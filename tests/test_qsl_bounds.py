"""Bound-family tests: frozen zeroth orders, correction consistency, revival flags.

The correction coefficients are validated by an independent route: assemble
the bound from its ingredients (closed fidelity, closed energy moments) as a
function of epsilon and differentiate numerically at zero. Agreement pins
the cross-module consistency of qsl_bounds and metrology.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqsl import fock_core, metrology
from relqsl.presets import PRESETS
from relqsl.qsl_bounds import (
    BoundReport,
    coherent_fidelity_closed,
    ml_coherent,
    ml_squeezed,
    mt_coherent,
    mt_squeezed,
    squeezed_fidelity_closed,
    t_qsl,
)

# zeroth-order bounds at alpha0 = 1, t = pi: arccos(e^-2) and 2 arccos(e^-2)^2/(1.5 pi)
EXPECTED_ZEROTH = {
    "mt_coherent": 1.4350444756099092,
    "ml_coherent": 0.8740164088960273,
}

DERIVATIVE_STEP = 1e-6


def test_frozen_zeroth_orders():
    assert mt_coherent(1.0, math.pi, 0.0).zeroth == pytest.approx(
        EXPECTED_ZEROTH["mt_coherent"], rel=1e-12
    )
    assert ml_coherent(1.0, math.pi, 0.0).zeroth == pytest.approx(
        EXPECTED_ZEROTH["ml_coherent"], rel=1e-12
    )
    # independent expressions
    assert mt_coherent(1.0, math.pi, 0.0).zeroth == pytest.approx(
        math.acos(math.exp(-2.0)), rel=1e-14
    )
    assert ml_coherent(1.0, math.pi, 0.0).zeroth == pytest.approx(
        2.0 * math.acos(math.exp(-2.0)) ** 2 / (1.5 * math.pi), rel=1e-14
    )


@pytest.mark.parametrize("epsilon", [0.0, 1e-3])
@pytest.mark.parametrize("alpha0", [0.5, 1.0, 2.0])
def test_coherent_short_time_identity(alpha0, epsilon):
    # |<psi|e^{-iHt}|psi>| = 1 - Var(H) t^2 / 2 + O(t^3), so the closed fidelity's
    # curvature is the closed variance and the MT bound is saturated as t -> 0
    t = 1e-3
    curvature = 2.0 * (1.0 - coherent_fidelity_closed(alpha0, t, epsilon)) / t**2
    variance = metrology.coherent_energy(alpha0, epsilon).variance
    assert curvature == pytest.approx(variance, rel=1e-5, abs=0)
    assert mt_coherent(alpha0, 1e-4, epsilon).zeroth / 1e-4 == pytest.approx(1.0, rel=0, abs=1e-7)


@pytest.mark.parametrize("alpha0", [0.3, 1.0, 1.7])
def test_coherent_fidelity_at_zero_epsilon_is_the_exact_overlap(alpha0):
    # |<alpha|alpha e^{-it}>| = exp(-|alpha|^2 |1 - e^{-it}|^2 / 2) = exp(alpha0^2 (cos t - 1))
    for t in PRESETS["fig1"].axes[0].values().tolist():
        exact = math.exp(alpha0 * alpha0 * (math.cos(t) - 1.0))
        assert coherent_fidelity_closed(alpha0, t, 0.0) == pytest.approx(exact, rel=1e-15, abs=0)


def test_report_total_is_exact_sum():
    rep = mt_coherent(0.8, 2.0, 1e-3)
    assert rep.total == rep.zeroth + rep.correction
    assert rep.correction == 1e-3 * rep.coefficient


def test_zero_epsilon_correction_vanishes():
    for rep in (
        mt_coherent(1.0, 2.0, 0.0),
        ml_coherent(1.0, 2.0, 0.0),
        mt_squeezed(0.5, 2.0, 0.0),
        ml_squeezed(0.5, 2.0, 0.0),
    ):
        assert rep.correction == 0.0
        assert rep.total == rep.zeroth


def test_fidelity_bounds_and_t_zero():
    assert coherent_fidelity_closed(1.0, 0.0, 1e-3) == 1.0
    assert squeezed_fidelity_closed(0.7, 0.0, 1e-3) == 1.0
    for t in np.linspace(0.1, 6.0, 25):
        assert 0.0 <= coherent_fidelity_closed(1.5, float(t), 1e-4) <= 1.0
        assert 0.0 <= squeezed_fidelity_closed(0.9, float(t), 1e-4) <= 1.0


def test_squeezed_fidelity_r_zero_is_stationary():
    assert squeezed_fidelity_closed(0.0, 3.0, 1e-3) == 1.0


def test_squeezed_fidelity_rejects_nan_instead_of_clamping_it_to_zero():
    """Where y2 cancels (r >~ 9) the fidelity is nan: named, not clamped to 0.0."""
    r = np.linspace(8.0, 11.0, 3001)
    zeros = np.zeros_like(r)
    with pytest.raises(ValueError, match=r"^squeezed_fidelity_closed: fidelity nan is not "
                                         r"finite at r=9\.381, t=0\.0, epsilon=0\.0$"):
        squeezed_fidelity_closed(r, zeros, zeros)
    with pytest.raises(ValueError, match="fidelity nan is not finite at r=9.56228976435397,"):
        squeezed_fidelity_closed(9.56228976435397, 0.0, 0.0)


@pytest.mark.parametrize("point, shown", [
    ((math.nan, 1.0, 0.0), "alpha0=nan, t=1.0, epsilon=0.0"),
    ((1.0, math.nan, 0.0), "alpha0=1.0, t=nan, epsilon=0.0"),
    ((1e200, 1.0, 0.0), "alpha0=1e+200, t=1.0, epsilon=0.0"),  # inf * 0 in the correction
], ids=["alpha0-nan", "t-nan", "alpha0-overflow"])
def test_coherent_fidelity_rejects_nan_instead_of_clamping_it_to_zero(point, shown):
    with pytest.raises(ValueError) as refused:
        coherent_fidelity_closed(*point)
    assert str(refused.value) == f"coherent_fidelity_closed: fidelity nan is not finite at {shown}"


def test_near_revival_flag_and_suppression():
    """At t = 2 pi the overlap gap vanishes; the divergent term must be dropped."""
    rep = mt_coherent(1.0, 2.0 * math.pi, 1e-4)
    assert rep.near_revival
    assert math.isfinite(rep.total)
    off = mt_coherent(1.0, 2.0 * math.pi + 0.5, 1e-4)
    assert not off.near_revival


def test_argument_validation():
    with pytest.raises(ValueError):
        mt_coherent(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ml_coherent(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        mt_squeezed(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ml_squeezed(-0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        coherent_fidelity_closed(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        squeezed_fidelity_closed(np.array([0.5, -0.5]), 1.0, 0.0)
    with pytest.raises(ValueError):
        BoundReport(t=1.0, zeroth=-0.1, correction=0.0, coefficient=0.0, near_revival=False)


def test_t_qsl_selection_and_tie():
    mt = mt_coherent(1.0, 2.0, 1e-4)
    ml = ml_coherent(1.0, 2.0, 1e-4)
    best = t_qsl(mt, ml)
    assert best.total == max(mt.total, ml.total)
    assert t_qsl(mt, mt) is mt
    with pytest.raises(ValueError):
        t_qsl(mt, ml_coherent(1.0, 2.5, 1e-4))


def test_validity_warning_fires_deep_in_epsilon():
    with pytest.warns(UserWarning, match="first-order validity"):
        ml_squeezed(0.05, 5.8, 0.08)


def test_validity_warning_counts_points_once_per_call():
    r = np.array([0.05, 0.05, 0.4])
    t = np.array([5.8, 5.8, 1.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ml_squeezed(r, t, 0.08)
    assert [str(w.message) for w in caught] == [
        "ml_squeezed: epsilon correction exceeds half the zeroth-order value "
        "at 2 of 3 evaluation points; first-order validity is doubtful there"
    ]


@pytest.mark.parametrize(
    "call",
    [
        lambda: mt_coherent(2.0, 5.4, 0.1),
        lambda: ml_squeezed(0.05, 5.8, 0.08),
        lambda: metrology.squeeze_ratio(1.0, 1.0, 0.0, 0.3),
        lambda: fock_core.lowest_levels(16, 0.2, 2),
    ],
    ids=["mt_coherent", "ml_squeezed", "squeeze_ratio", "fock_core-large-epsilon"],
)
def test_validity_warnings_point_at_the_caller(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert len(caught) == 1
    assert caught[0].filename == __file__


def test_non_finite_bound_names_function_and_first_point():
    with pytest.raises(ValueError, match=r"^mt_coherent: bound nan is not finite "
                       r"at alpha0=1e\+200, t=1.0, epsilon=0.0$"):
        mt_coherent(1e200, 1.0, 0.0)
    alpha0 = np.array([[1.0, 1e200], [1e200, 1.0]])
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    first_point = r"^ml_coherent: .* at alpha0=1e\+200, t=2.0, epsilon=0.0$"
    with pytest.raises(ValueError, match=first_point):
        ml_coherent(alpha0, t, 0.0)
    # cosh(4r) and sinh(2r)^2 overflow in math; the point is named, not "math range error"
    for bound in (mt_squeezed, ml_squeezed):
        name = bound.__name__
        with pytest.raises(ValueError, match=rf"^{name}: bound nan is not finite "
                           r"at r=1000.0, t=1.0, epsilon=0.0$"):
            bound(1e3, 1.0, 0.0)
        with pytest.raises(ValueError, match=rf"^{name}: .* at r=1000.0, t=2.0, epsilon=0.01$"):
            bound(np.array([0.5, 1e3]), np.array([1.0, 2.0]), 0.01)


def _mt_coherent_composed(alpha0: float, t: float, eps: float) -> float:
    f = min(1.0, coherent_fidelity_closed(alpha0, t, eps))
    return math.acos(f) / math.sqrt(metrology.coherent_energy(alpha0, eps).variance)


def _ml_coherent_composed(alpha0: float, t: float, eps: float) -> float:
    f = min(1.0, coherent_fidelity_closed(alpha0, t, eps))
    s = math.acos(f)
    return 2.0 * s * s / (math.pi * metrology.coherent_energy(alpha0, eps).mean)


def _mt_squeezed_composed(r: float, t: float, eps: float) -> float:
    f = min(1.0, squeezed_fidelity_closed(r, t, eps))
    return math.acos(f) / math.sqrt(metrology.squeezed_energy(r, eps).variance)


def _ml_squeezed_composed(r: float, t: float, eps: float) -> float:
    f = min(1.0, squeezed_fidelity_closed(r, t, eps))
    s = math.acos(f)
    return 2.0 * s * s / (math.pi * metrology.squeezed_energy(r, eps).mean)


@pytest.mark.parametrize(
    "bound, composed, par, t",
    [
        (mt_coherent, _mt_coherent_composed, 1.2, 2.0),
        (mt_coherent, _mt_coherent_composed, 0.7, 4.0),
        (ml_coherent, _ml_coherent_composed, 1.2, 2.0),
        (ml_coherent, _ml_coherent_composed, 0.7, 4.0),
        (mt_squeezed, _mt_squeezed_composed, 0.5, 2.0),
        (mt_squeezed, _mt_squeezed_composed, 0.8, 4.0),
        (ml_squeezed, _ml_squeezed_composed, 0.5, 2.0),
        (ml_squeezed, _ml_squeezed_composed, 0.8, 4.0),
    ],
)
def test_correction_coefficient_matches_composed_derivative(bound, composed, par, t):
    h = DERIVATIVE_STEP
    numeric = (composed(par, t, h) - composed(par, t, -h)) / (2.0 * h)
    coef = bound(par, t, 0.0).coefficient
    assert numeric == pytest.approx(coef, rel=1e-7)


def test_zeroth_matches_composed_value():
    for par, t in ((1.2, 2.0), (0.7, 4.0)):
        assert mt_coherent(par, t, 0.0).zeroth == pytest.approx(
            _mt_coherent_composed(par, t, 0.0), rel=1e-13
        )
        assert ml_coherent(par, t, 0.0).zeroth == pytest.approx(
            _ml_coherent_composed(par, t, 0.0), rel=1e-13
        )
    for par, t in ((0.5, 2.0), (0.8, 4.0)):
        assert mt_squeezed(par, t, 0.0).zeroth == pytest.approx(
            _mt_squeezed_composed(par, t, 0.0), rel=1e-13
        )
        assert ml_squeezed(par, t, 0.0).zeroth == pytest.approx(
            _ml_squeezed_composed(par, t, 0.0), rel=1e-13
        )


# ------------------------------------------------ array call vs 0-d calls

BOUNDS = (mt_coherent, ml_coherent, mt_squeezed, ml_squeezed)
REPORT_FIELDS = ("t", "zeroth", "correction", "coefficient", "near_revival", "total")
# 2 pi k are exact revivals (cos t == 1.0), where the divergent term is dropped
TIE_TIMES = (0.0, 0.3, 2.0, 2.0 * math.pi, 3.5, 4.0 * math.pi, 5.9, 6.0 * math.pi)
TIE_PARAMETERS = (1e-3, 0.05, 0.5, 1.3)
TIE_EPSILONS = (0.0, 1e-4, 0.03)


def _grid(*axes):
    return [g.ravel() for g in np.meshgrid(*map(np.asarray, axes), indexing="ij")]


def _assert_report_ties(grid, point_at, size):
    """Every field of the array report equals, by repr, the 0-d call at that point."""
    for i in range(size):
        point = point_at(i)
        assert type(point.total) is float and type(point.near_revival) is bool
        for name in REPORT_FIELDS:
            assert repr(getattr(point, name)) == repr(getattr(grid, name)[i].item()), (name, i)


@pytest.mark.filterwarnings("ignore:m[tl]_(coherent|squeezed)")
@pytest.mark.parametrize("bound", BOUNDS)
def test_array_call_equals_pointwise_calls(bound):
    par, t, eps = _grid(TIE_PARAMETERS, TIE_TIMES, TIE_EPSILONS)
    grid = bound(par, t, eps)
    assert grid.near_revival.any() and not grid.near_revival.all()
    _assert_report_ties(grid, lambda i: bound(float(par[i]), float(t[i]), float(eps[i])), par.size)


@pytest.mark.parametrize("fidelity", (coherent_fidelity_closed, squeezed_fidelity_closed))
def test_fidelity_array_call_equals_pointwise_calls(fidelity):
    # a stationary state (parameter 0) is in the fidelities' domain, not the bounds'
    par, t, eps = _grid((0.0, *TIE_PARAMETERS), TIE_TIMES, TIE_EPSILONS)
    grid = fidelity(par, t, eps)
    for i in range(par.size):
        point = fidelity(float(par[i]), float(t[i]), float(eps[i]))
        assert type(point) is float
        assert repr(point) == repr(grid[i].item()), i


@pytest.mark.filterwarnings("ignore:m[tl]_(coherent|squeezed)")
@pytest.mark.parametrize("family", ("coherent", "squeezed"))
def test_t_qsl_array_call_equals_pointwise_calls(family):
    mt, ml = (mt_coherent, ml_coherent) if family == "coherent" else (mt_squeezed, ml_squeezed)
    par, t, eps = _grid(TIE_PARAMETERS, TIE_TIMES, TIE_EPSILONS)
    mt_grid, ml_grid = mt(par, t, eps), ml(par, t, eps)
    grid = t_qsl(mt_grid, ml_grid)
    if family == "coherent":
        # the energy-spread bound wins everywhere here, so its report comes back whole
        assert grid is mt_grid
    else:
        # each bound wins somewhere, so the result is assembled point by point
        assert grid is not mt_grid and grid is not ml_grid

    def point_at(i):
        args = (float(par[i]), float(t[i]), float(eps[i]))
        return t_qsl(mt(*args), ml(*args))

    _assert_report_ties(grid, point_at, par.size)


@pytest.mark.filterwarnings("ignore:squeeze_ratio")
def test_squeeze_ratio_array_call_equals_pointwise_calls():
    r, alpha0, theta, eps = _grid(
        (0.0, 1e-3, 0.4, 1.8), (0.0, 0.3, 1.7), (0.0, 0.9, math.pi / 2), (0.0, 0.08)
    )
    grid = metrology.squeeze_ratio(r, alpha0, theta, eps)
    for i in range(r.size):
        args = (float(r[i]), float(alpha0[i]), float(theta[i]), float(eps[i]))
        point = metrology.squeeze_ratio(*args)
        assert type(point.ratio) is float and type(point.sf_db) is float
        assert repr(point.ratio) == repr(grid.ratio[i].item())
        assert repr(point.sf_db) == repr(grid.sf_db[i].item())


def test_squeeze_ratio_error_names_first_point_in_axis_major_order():
    # at alpha0 = 0, ratio = e^{-2r} - (3/64) eps (5 + 3 e^{-4r}); with eps = 0.5
    # it is positive at r = 1 and negative at r = 1.5 and 2, so r = 2 comes first
    r = np.array([[1.0, 2.0], [1.5, 1.0]])
    with pytest.raises(ValueError) as scalar:
        metrology.squeeze_ratio(2.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError) as grid:
        metrology.squeeze_ratio(r, 0.0, 0.0, 0.5)
    assert str(grid.value) == str(scalar.value)
    assert str(grid.value).startswith("corrected variance ratio -")
    assert str(grid.value).endswith(
        "is non-positive; epsilon is too large for the first-order squeeze formula"
    )


_times = st.one_of(st.floats(0.0, 10.0), st.sampled_from([2.0 * math.pi * k for k in range(4)]))


@settings(max_examples=30, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.floats(1e-3, 2.5), _times, st.one_of(st.just(0.0), st.floats(0.0, 0.05))),
        min_size=1,
        max_size=12,
    )
)
def test_drawn_grid_array_call_equals_pointwise_calls(points):
    par, t, eps = (np.array(column) for column in zip(*points))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for bound in BOUNDS:
            _assert_report_ties(bound(par, t, eps), lambda i: bound(*points[i]), len(points))
        for mt, ml in ((mt_coherent, ml_coherent), (mt_squeezed, ml_squeezed)):
            _assert_report_ties(
                t_qsl(mt(par, t, eps), ml(par, t, eps)),
                lambda i: t_qsl(mt(*points[i]), ml(*points[i])),
                len(points),
            )
        theta = t / 2.0
        grid = metrology.squeeze_ratio(par, par, theta, eps / 10.0)
        for i, (p, _, e) in enumerate(points):
            point = metrology.squeeze_ratio(p, p, theta[i], e / 10.0)
            assert (repr(point.ratio), repr(point.sf_db)) == (
                repr(grid.ratio[i].item()), repr(grid.sf_db[i].item())
            )
