"""The array closed forms against a point-by-point ``math`` reference.

The reference below is the scalar evaluation the sweeps used before the
closed forms took arrays: one point at a time, every operation on Python
floats. The array forms must reproduce it bit for bit, because the sweep
outputs are gated on byte-identical files. Transcendentals and powers,
including ``** 2``, differ between libm and numpy's vectorized kernels in
the last place for some arguments, so a grid of random points exercises
the rounding of each.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqsl import metrology, presets, qsl_bounds
from relqsl.arrays import require_finite

POINTS = 20_000
NEAR = qsl_bounds.NEAR_REVIVAL_LIMIT


def _clamp(x):
    return min(1.0, max(-1.0, x))


def ref_mt_coherent(a, t, eps):
    f0 = math.exp(a * a * (math.cos(t) - 1.0))
    w1 = math.acos(_clamp(f0))
    gap = 1.0 - f0 * f0
    near = gap < NEAR
    coefficient = 3.0 / 8.0 * (1.0 + a * a) / a * w1
    if not near:
        coefficient -= (
            3.0 / 8.0 * a * t * (1.0 + a * a * math.cos(t)) * math.sin(t) * f0 / math.sqrt(gap)
        )
    return w1 / a, eps * coefficient, near


def ref_ml_coherent(a, t, eps):
    a2 = a * a
    f0 = math.exp(a2 * (math.cos(t) - 1.0))
    w1 = math.acos(_clamp(f0))
    zeroth = 2.0 * w1 * w1 / ((0.5 + a2) * math.pi)
    w3 = (1.0 + 2.0 * a2) ** 2
    w4 = 1.0 + 4.0 * a2 + 2.0 * a2 * a2
    w5 = 4.0 * a2 * (1.0 + 2.0 * a2)
    gap = 1.0 - f0 * f0
    near = gap < NEAR
    bracket = w4 * w1
    if not near:
        bracket -= w5 * f0 * t * (1.0 + a2 * math.cos(t)) * math.sin(t) / math.sqrt(gap)
    return zeroth, eps * (3.0 * w1 / (4.0 * w3 * math.pi) * bracket), near


def _ref_squeezed_core(r, t):
    y2 = 3.0 + math.cosh(4.0 * r) - 2.0 * math.cos(t) * math.sinh(2.0 * r) ** 2
    th2 = math.tanh(r) ** 2
    y6 = -4.0 * math.sin(t) + math.sin(2.0 * t) * th2 + 2.0 * math.sin(t) * th2 * th2
    y7 = 1.0 - 2.0 * math.cos(t) * th2 + th2 * th2
    return y2, y6, y7, math.sqrt(2.0) / y2 ** 0.25


def _ref_squeezed_shift(scale, r, t, y2, y6, y7):
    y8 = math.sqrt(math.sqrt(y2) - 2.0)
    y5 = scale * t * math.cosh(r) ** 5 * math.sinh(r) ** 2 / y2 ** 1.75
    return y5 * y6 / (y7 ** 0.25 * y8)


def ref_mt_squeezed(r, t, eps):
    y2, y6, y7, f0 = _ref_squeezed_core(r, t)
    y1 = math.acos(_clamp(f0))
    y3 = math.sqrt(2.0) / math.sinh(2.0 * r)
    near = 1.0 - f0 * f0 < NEAR
    bracket = 6.0 * math.cosh(2.0 * r) * y1
    if not near and y7 > 0.0:
        bracket += _ref_squeezed_shift(8.0, r, t, y2, y6, y7)
    return y3 * y1, eps * (3.0 * y3 / 32.0 * bracket), near


def ref_ml_squeezed(r, t, eps):
    x2, x6, x7, f0 = _ref_squeezed_core(r, t)
    x1 = math.acos(_clamp(f0))
    x3 = 1.0 / math.cosh(2.0 * r)
    near = 1.0 - f0 * f0 < NEAR
    bracket = (1.0 + 3.0 * math.cosh(4.0 * r)) * x3 * x1
    if not near and x7 > 0.0:
        bracket += _ref_squeezed_shift(32.0, r, t, x2, x6, x7)
    return 4.0 * x3 / math.pi * x1 * x1, eps * (3.0 * x3 / (16.0 * math.pi) * x1 * bracket), near


def ref_squeeze_ratio(r, a, theta, eps):
    base = math.exp(-2.0 * r)
    corr = -3.0 / 64.0 * eps * (
        5.0 + 3.0 * math.exp(-4.0 * r) - 4.0 * a * a * base * (math.cos(2.0 * theta) - 4.0)
    )
    ratio = base + corr
    return ratio, -10.0 * math.log10(ratio)


# The scalar fidelities as they stood before they took arrays, verbatim except
# that the squeezed one reads its core from the math reference above.

def _ref_coherent_fidelity_closed(alpha0: float, t: float, epsilon: float) -> float:
    """|<state(0)|state(t)>| for a coherent state, to first order in epsilon.

    F = F0 * [1 + (3 eps/8) a0^2 t (1 + a0^2 cos t) sin t] with
    F0 = exp(a0^2 (cos t - 1)), clamped to [0, 1].
    """
    if alpha0 < 0:
        raise ValueError("alpha0 must be non-negative")
    f0 = math.exp(alpha0 * alpha0 * (math.cos(t) - 1.0))
    corr = 3.0 * epsilon / 8.0 * alpha0 * alpha0 * t * (1.0 + alpha0 * alpha0 * math.cos(t)) * math.sin(t)
    return min(1.0, max(0.0, f0 * (1.0 + corr)))


def _ref_squeezed_fidelity_closed(r: float, t: float, epsilon: float) -> float:
    """|<state(0)|state(t)>| for the squeezed vacuum, to first order in epsilon.

    F = sqrt(2) / y2^{1/4} - (3 eps t cosh^5 r sinh^2 r / (4 y2^2 y7^{1/4})) y6,
    clamped to [0, 1]. At t = 0 the leading term is exactly 1 for every r.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if r == 0.0:
        return 1.0
    y2, y6, y7, f0 = _ref_squeezed_core(r, t)
    corr = 0.0
    if y7 > 0.0:
        corr = (
            3.0 * epsilon * t * math.cosh(r) ** 5 * math.sinh(r) ** 2
            / (4.0 * y2 * y2 * y7 ** 0.25)
        ) * y6
    return min(1.0, max(0.0, f0 - corr))


# The scalar moment closed forms as they stood before they took arrays,
# verbatim except that the refusals are spelled out here.

def _ref_finite(name, inputs, what, *values):
    if not all(map(math.isfinite, values)):
        point = ", ".join(f"{key}={value!r}" for key, value in inputs.items())
        raise ValueError(f"{name}: {what} not finite at {point}")


def _ref_moments(name, inputs, mean, var):
    _ref_finite(name, inputs, f"energy moments (mean {mean!r}, variance {var!r}) are", mean, var)
    if var < 0.0:
        if var < -1e-12:
            raise ValueError(f"variance {var!r} negative beyond tolerance")
        var = 0.0
    return mean, var, mean * mean + var


def ref_coherent_energy(alpha0, epsilon):
    a2 = alpha0 * alpha0
    mean = 0.5 + a2 - 3.0 * epsilon / 32.0 * (1.0 + 4.0 * a2 + 2.0 * a2 * a2)
    var = a2 - 0.75 * epsilon * (a2 + a2 * a2)
    return _ref_moments("coherent_energy", {"alpha0": alpha0, "epsilon": epsilon}, mean, var)


def ref_coherent_second_moment_closed(alpha0, epsilon):
    a2 = alpha0 * alpha0
    try:
        value = (0.25 + 2.0 * a2 + a2 * a2) - 3.0 * epsilon / 32.0 * (
            1.0 + 14.0 * a2 + 18.0 * a2 * a2 + 4.0 * a2 ** 3
        )
    except OverflowError:
        value = math.nan
    inputs = {"alpha0": alpha0, "epsilon": epsilon}
    _ref_finite("coherent_second_moment_closed", inputs, f"second moment {value!r} is", value)
    return (value,)


def ref_squeezed_energy(r, epsilon):
    try:
        mean = math.cosh(2.0 * r) / 2.0 - 3.0 * epsilon / 128.0 * (1.0 + 3.0 * math.cosh(4.0 * r))
        var = 2.0 * math.cosh(r) ** 2 * math.sinh(r) ** 2 - 9.0 * epsilon / 32.0 * math.sinh(
            2.0 * r
        ) * math.sinh(4.0 * r)
    except OverflowError:
        mean = var = math.nan
    return _ref_moments("squeezed_energy", {"r": r, "epsilon": epsilon}, mean, var)


def ref_squeezed_second_moment_closed(r, epsilon):
    try:
        value = (-1.0 + 3.0 * math.cosh(4.0 * r)) / 8.0 + 3.0 * epsilon / 256.0 * (
            7.0 * math.cosh(2.0 * r) - 15.0 * math.cosh(6.0 * r)
        )
    except OverflowError:
        value = math.nan
    inputs = {"r": r, "epsilon": epsilon}
    _ref_finite("squeezed_second_moment_closed", inputs, f"second moment {value!r} is", value)
    return (value,)


def _random_points(seed):
    rng = np.random.default_rng(seed)
    revival = 2.0 * math.pi * rng.integers(0, 4, POINTS)
    t = np.where(rng.random(POINTS) < 0.1, revival, rng.uniform(0.0, 8.0, POINTS))
    par = rng.uniform(1e-3, 3.0, POINTS)
    eps = np.where(rng.random(POINTS) < 0.2, 0.0, rng.uniform(0.0, 0.1, POINTS))
    return par, t, eps


@pytest.mark.parametrize(
    "bound, reference, par_scale",
    [
        (qsl_bounds.mt_coherent, ref_mt_coherent, 1.0),
        (qsl_bounds.ml_coherent, ref_ml_coherent, 1.0),
        (qsl_bounds.mt_squeezed, ref_mt_squeezed, 0.7),
        (qsl_bounds.ml_squeezed, ref_ml_squeezed, 0.7),
    ],
)
def test_bounds_match_pointwise_reference(bound, reference, par_scale):
    par, t, eps = _random_points(7)
    par = par * par_scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = bound(par, t, eps)
    want = [reference(*point) for point in zip(par.tolist(), t.tolist(), eps.tolist())]
    zeroth, correction, near = (np.array(column) for column in zip(*want))
    assert near.any()
    np.testing.assert_array_equal(grid.zeroth, zeroth)
    np.testing.assert_array_equal(grid.correction, correction)
    np.testing.assert_array_equal(grid.total, zeroth + correction)
    np.testing.assert_array_equal(grid.near_revival, near)


def test_squeeze_ratio_matches_pointwise_reference():
    par, t, eps = _random_points(8)
    r, a, theta, eps = par / 2.0, par / 2.0, t / 2.0, eps / 20.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = metrology.squeeze_ratio(r, a, theta, eps)
    points = zip(r.tolist(), a.tolist(), theta.tolist(), eps.tolist())
    want = [ref_squeeze_ratio(*point) for point in points]
    ratio, sf_db = (np.array(column) for column in zip(*want))
    np.testing.assert_array_equal(grid.ratio, ratio)
    np.testing.assert_array_equal(grid.sf_db, sf_db)


@pytest.mark.parametrize(
    "fidelity, reference, par_scale",
    [
        (qsl_bounds.coherent_fidelity_closed, _ref_coherent_fidelity_closed, 1.0),
        (qsl_bounds.squeezed_fidelity_closed, _ref_squeezed_fidelity_closed, 0.7),
    ],
)
def test_fidelities_match_pointwise_reference(fidelity, reference, par_scale):
    par, t, eps = _random_points(9)
    par = par * par_scale
    # the amplitude or squeeze parameter 0 (a stationary state) at 5 % of the points
    par[np.random.default_rng(10).random(POINTS) < 0.05] = 0.0
    assert (par == 0.0).any() and (t == 0.0).any() and (t == 2.0 * math.pi).any()
    grid = fidelity(par, t, eps)
    want = [reference(*point) for point in zip(par.tolist(), t.tolist(), eps.tolist())]
    assert list(map(repr, grid.tolist())) == list(map(repr, want))


def _outcome(fn, *point):
    """The values of fn at one point, or the text of the ValueError it raises."""
    try:
        return fn(*point)
    except ValueError as exc:
        return str(exc)


def _fields(result):
    if isinstance(result, metrology.EnergyMoments):
        return result.mean, result.variance, result.second
    return (result,)


@pytest.mark.parametrize(
    "closed, reference, overflow_band",
    [
        (metrology.coherent_energy, ref_coherent_energy, (1e76, 1e78)),
        (metrology.coherent_second_moment_closed, ref_coherent_second_moment_closed, (1e51, 1e52)),
        (metrology.squeezed_energy, ref_squeezed_energy, (177.0, 178.5)),
        (metrology.squeezed_second_moment_closed, ref_squeezed_second_moment_closed,
         (118.0, 119.0)),
    ],
)
def test_moments_match_pointwise_reference(closed, reference, overflow_band):
    rng = np.random.default_rng(11)
    par, _, eps = _random_points(12)
    # a quarter of the points spread over 200 decades, a tenth around the
    # first overflow of the formula
    wide = rng.random(POINTS)
    par = np.where(wide < 0.25, 10.0 ** rng.uniform(-3.0, 200.0, POINTS), par)
    par = np.where(wide > 0.9, rng.uniform(*overflow_band, POINTS), par)
    points = list(zip(par.tolist(), eps.tolist()))
    want = [_outcome(reference, *point) for point in points]
    refusals = [(point, text) for point, text in zip(points, want) if isinstance(text, str)]
    values = [outcome for outcome in want if not isinstance(outcome, str)]
    assert values and any("not finite" in text for _, text in refusals)

    ok = np.array([not isinstance(outcome, str) for outcome in want])
    for got, column in zip(_fields(closed(par[ok], eps[ok])), zip(*values)):
        assert list(map(repr, got.tolist())) == list(map(repr, column))

    # a refused point gives the reference's text, alone or as the first
    # non-finite point of the whole grid
    for point, text in refusals[:500]:
        assert _outcome(closed, *point) == text
    with pytest.raises(ValueError) as refusal:
        closed(par, eps)
    assert str(refusal.value) == next(text for _, text in refusals if "not finite" in text)


# ------------------------------------------------ open sweep grid vs dense grid

# every column a target returns: its parameters, then its results
RESULT_COLUMNS = {
    "qsl_coherent": ("t_mt0", "t_mt", "t_ml0", "t_ml", "t_qsl", "near_revival"),
    "qsl_squeezed": ("t_mt0", "t_mt", "t_ml0", "t_ml", "t_qsl", "near_revival"),
    "squeeze_factor": ("ratio0", "sf_db0", "ratio", "sf_db"),
}
# (ordinary range, wide range) of each parameter; the wide range reaches
# refusals (alpha0 = 0, r = 0, overflowing cosh and sinh, a non-positive
# squeeze ratio) and the validity warning
PARAM_RANGES = {
    "t": ((0.01, 7.0), (1e-3, 60.0)),
    "alpha0_sq": ((0.05, 3.0), (0.0, 1e4)),
    "alpha_sq": ((0.0, 3.0), (0.0, 1e4)),
    "r": ((0.0, 1.5), (0.0, 500.0)),
    "theta": ((-4.0, 4.0), (-100.0, 100.0)),
    "epsilon": ((0.0, 0.1), (0.0, 2.0)),
}


def dense_run_sweep(spec):
    """The dense evaluation: every parameter repeated over the whole grid before the target."""
    grids = np.meshgrid(*[axis.values() for axis in spec.axes], indexing="ij")
    params = {axis.name: grid.ravel() for axis, grid in zip(spec.axes, grids)}
    params.update(
        {name: np.full(grids[0].size, value, dtype=float) for name, value in spec.fixed.items()}
    )
    results = presets.TARGETS[spec.target].evaluate(params)
    return spec.columns, np.rec.fromarrays([results[name] for name in spec.columns],
                                           names=spec.columns)


def _sweep_outcome(run, spec):
    """The table's header, dtype and bytes (or the ValueError text), and the warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            header, table = run(spec)
        except ValueError as exc:
            outcome = str(exc)
        else:
            outcome = (header, table.dtype, table.tobytes())
    return outcome, [(w.category, str(w.message)) for w in caught]


def _value(draw, name):
    lo, hi = PARAM_RANGES[name][draw(st.sampled_from((0, 0, 0, 1)))]
    if name == "t":
        lo = max(lo, 1e-3)
    return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@st.composite
def sweep_specs(draw, target):
    """A SweepSpec of ``target`` with 1 to 3 axes of up to 5 points in any order."""
    names = draw(st.permutations(sorted(presets.TARGETS[target].required)))
    n_axes = draw(st.integers(1, presets.MAX_AXES))
    axes = []
    for name in names[:n_axes]:
        start, count = _value(draw, name), draw(st.integers(1, 5))
        step = draw(st.floats(1e-3, max(1e-3, PARAM_RANGES[name][0][1] / 2)))
        axes.append(presets.Axis(name, start, start + (count - 1) * step, step))
    fixed = {name: _value(draw, name) for name in names[n_axes:]}
    columns = tuple(names) + RESULT_COLUMNS[target]
    return presets.SweepSpec(target=target, axes=tuple(axes), columns=columns, fixed=fixed)


@pytest.mark.parametrize("target", sorted(RESULT_COLUMNS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_open_grid_sweep_equals_dense_grid(target, data):
    spec = data.draw(sweep_specs(target))
    assert _sweep_outcome(presets.run_sweep, spec) == _sweep_outcome(dense_run_sweep, spec)


def test_open_grid_names_the_dense_grids_first_non_finite_point():
    # cosh(4 r) and sinh(2 r) overflow from r = 177.5 on, so every point of
    # the last two r values has a nan bound
    spec = presets.SweepSpec(
        target="qsl_squeezed",
        axes=(presets.Axis("t", 0.5, 1.5, 0.5), presets.Axis("r", 0.5, 300.5, 100.0)),
        columns=("t", "r", "epsilon", "t_qsl"),
        fixed={"epsilon": 0.01},
    )
    open_outcome, dense_outcome = (
        _sweep_outcome(run, spec) for run in (presets.run_sweep, dense_run_sweep)
    )
    assert open_outcome == dense_outcome
    assert open_outcome[0] == "mt_squeezed: bound nan is not finite at r=200.5, t=0.5, epsilon=0.01"


def test_refusal_names_the_first_point_of_the_joint_grid():
    # the value depends on a alone; the first bad point of the a x b grid in
    # axis-major order is (a[1], b[0])
    a, b = np.array([[1.0], [2.0], [3.0]]), np.array([[10.0, 20.0, 30.0, 40.0]])
    value = np.array([[1.0], [np.nan], [np.nan]])
    with pytest.raises(ValueError, match=r"^f: v nan is not finite at a=2.0, b=10.0$"):
        require_finite("f", {"a": a, "b": b}, "v {!r} is", value)


@pytest.mark.filterwarnings("ignore:m[tl]_coherent")
def test_open_grid_sweep_peak_memory():
    """The 126 x 30 x 30 grid peaks within 16 float64 columns of the grid.

    A dense grid (each parameter repeated over every point before the
    closed forms run) peaks at about 25 columns; the open grid at about 10.
    """
    spec = presets.SweepSpec(
        target="qsl_coherent",
        axes=(
            presets.Axis("t", 0.05, 0.05 + 125 * 0.05, 0.05),
            presets.Axis("alpha0_sq", 0.1, 0.1 + 29 * 0.1, 0.1),
            presets.Axis("epsilon", 0.0, 29 * 0.0025, 0.0025),
        ),
        columns=presets.PRESETS["fig1"].columns,
    )
    tracemalloc.start()
    try:
        _, table = presets.run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 126 * 30 * 30
    assert peak <= 16 * 8 * len(table), f"{peak / (8 * len(table)):.1f} columns"
