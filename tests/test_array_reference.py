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
import warnings

import numpy as np
import pytest

from relqsl import metrology, qsl_bounds

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
