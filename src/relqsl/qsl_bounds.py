"""Closed-form evolution-time bounds with first-order relativistic corrections.

Two bound families (energy-variance and mean-energy) for coherent and
squeezed oscillator states, each reported as zeroth order plus an
epsilon-scaled correction. The unified speed limit is the pointwise maximum.
The correction terms diverge like 1/sqrt(1 - F0^2) at state revivals; such
points are flagged and the divergent part suppressed instead of returned as
infinities. Each bound and each closed fidelity takes floats, equal-shape or
broadcastable (open-grid) arrays, so a whole sweep grid is one call and each
term runs only over the axes it depends on; a non-finite bound is refused
through arrays.require_finite. The bounds and the fidelity of one state
family share their zeroth-order pieces (one core per family); each keeps its
own first-order term, so the fidelities stay an independent route to the
bounds' coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .arrays import Grid, as_arrays, first, libm, native, require_finite, warn_doubtful

NEAR_REVIVAL_LIMIT = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: zeroth order, epsilon-scaled correction, and their sum.

    ``coefficient`` is the correction divided by epsilon, exposed for
    epsilon sweeps; ``total`` is always the exact float sum of ``zeroth``
    and ``correction``. Fields are Python floats (a bool for
    ``near_revival``) for a scalar evaluation and arrays for a grid, each at
    the broadcast shape of the inputs it depends on (``t`` keeps its own).
    """

    t: Any
    zeroth: Any
    correction: Any
    coefficient: Any
    near_revival: Any
    total: Any = field(init=False)

    def __post_init__(self):
        for name in ("t", "zeroth", "correction", "coefficient", "near_revival"):
            object.__setattr__(self, name, native(getattr(self, name)))
        negative = np.less(self.zeroth, 0)
        if np.any(negative):
            raise ValueError(
                f"zeroth-order bound must be non-negative, got {first(self.zeroth, negative)}"
            )
        object.__setattr__(self, "total", self.zeroth + self.correction)


def _clamp_unit(x: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, np.maximum(-1.0, x))


def _clamp_fidelity(f: np.ndarray) -> np.ndarray:
    """min(1, max(0, f)) elementwise as Python evaluates it: nan and -0.0 give 0.0."""
    f = np.where(f > 0.0, f, 0.0)
    return np.where(f < 1.0, f, 1.0)


def _report(name: str, inputs: dict[str, np.ndarray], coefficient: np.ndarray,
            zeroth: np.ndarray, near: np.ndarray) -> BoundReport:
    """The bound at every point, after the validity warning and the finiteness check."""
    with np.errstate(all="ignore"):
        correction = inputs["epsilon"] * coefficient
        report = BoundReport(t=inputs["t"], zeroth=zeroth, correction=correction,
                             coefficient=coefficient, near_revival=near)
    warn_doubtful(name, "value", correction, zeroth, stacklevel=3)
    require_finite(name, inputs, "bound {!r} is", report.total)
    return report


# ---------------------------------------------------------------- coherent

def _coherent_core(alpha0: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shared zeroth-order pieces: (cos t, sin t, F0, arccos F0, 1 - F0^2, revival mask).

    F0 = exp(a0^2 (cos t - 1)) is the uncorrected coherent overlap.
    """
    cos_t, sin_t = libm(math.cos, t), libm(math.sin, t)
    f0 = libm(math.exp, alpha0 * alpha0 * (cos_t - 1.0))
    angle = libm(math.acos, _clamp_unit(f0))
    gap = 1.0 - f0 * f0
    return cos_t, sin_t, f0, angle, gap, gap < NEAR_REVIVAL_LIMIT


def coherent_fidelity_closed(alpha0: Grid, t: Grid, epsilon: Grid) -> Any:
    """|<state(0)|state(t)>| for a coherent state, to first order in epsilon.

    F = F0 * [1 + (3 eps/8) a0^2 t (1 + a0^2 cos t) sin t] with
    F0 = exp(a0^2 (cos t - 1)), clamped to [0, 1]. Takes floats (returning
    a float), equal-shape or broadcastable (open-grid) arrays.
    """
    alpha0, t, epsilon = as_arrays(alpha0, t, epsilon)
    if np.any(alpha0 < 0):
        raise ValueError("alpha0 must be non-negative")
    with np.errstate(all="ignore"):
        cos_t, sin_t, f0 = _coherent_core(alpha0, t)[:3]
        corr = 3.0 * epsilon / 8.0 * alpha0 * alpha0 * t * (1.0 + alpha0 * alpha0 * cos_t) * sin_t
        return native(_clamp_fidelity(f0 * (1.0 + corr)))


def mt_coherent(alpha0: Grid, t: Grid, epsilon: Grid) -> BoundReport:
    """Energy-variance bound for a coherent state.

    zeroth = arccos(F0) / a0; the correction combines the angular shift with
    the first-order drop of the energy spread.
    """
    alpha0, t, epsilon = as_arrays(alpha0, t, epsilon)
    if np.any(alpha0 <= 0):
        raise ValueError("alpha0 must be positive: the vacuum does not evolve under this family")
    with np.errstate(all="ignore"):
        cos_t, sin_t, f0, w1, gap, near = _coherent_core(alpha0, t)
        zeroth = w1 / alpha0
        coefficient = 3.0 / 8.0 * (1.0 + alpha0 * alpha0) / alpha0 * w1
        shift = (
            3.0 / 8.0 * alpha0 * t * (1.0 + alpha0 * alpha0 * cos_t) * sin_t
            * f0 / np.sqrt(gap)
        )
        coefficient = np.where(near, coefficient, coefficient - shift)
    return _report("mt_coherent", {"alpha0": alpha0, "t": t, "epsilon": epsilon},
                   coefficient, zeroth, near)


def ml_coherent(alpha0: Grid, t: Grid, epsilon: Grid) -> BoundReport:
    """Mean-energy bound for a coherent state.

    zeroth = 2 arccos(F0)^2 / (pi (1/2 + a0^2)); the correction combines the
    angular shift with the first-order drop of the mean energy.
    """
    alpha0, t, epsilon = as_arrays(alpha0, t, epsilon)
    if np.any(alpha0 <= 0):
        raise ValueError("alpha0 must be positive: the vacuum does not evolve under this family")
    with np.errstate(all="ignore"):
        cos_t, sin_t, f0, w1, gap, near = _coherent_core(alpha0, t)
        a2 = alpha0 * alpha0
        zeroth = 2.0 * w1 * w1 / ((0.5 + a2) * math.pi)
        w3 = libm(math.pow, 1.0 + 2.0 * a2, 2.0)
        w4 = 1.0 + 4.0 * a2 + 2.0 * a2 * a2
        w5 = 4.0 * a2 * (1.0 + 2.0 * a2)
        bracket = w4 * w1
        shift = w5 * f0 * t * (1.0 + a2 * cos_t) * sin_t / np.sqrt(gap)
        bracket = np.where(near, bracket, bracket - shift)
        coefficient = 3.0 * w1 / (4.0 * w3 * math.pi) * bracket
    return _report("ml_coherent", {"alpha0": alpha0, "t": t, "epsilon": epsilon},
                   coefficient, zeroth, near)


# ---------------------------------------------------------------- squeezed

def _squeezed_core(r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Shared zeroth-order pieces: (y2, y6, y7, F0, arccos F0, revival mask).

    F0 = sqrt2 / y2^{1/4} is the uncorrected squeezed-vacuum overlap.
    """
    cos_t, sin_t = libm(math.cos, t), libm(math.sin, t)
    sinh2_2r = libm(math.pow, libm(math.sinh, 2.0 * r), 2.0)
    y2 = 3.0 + libm(math.cosh, 4.0 * r) - 2.0 * cos_t * sinh2_2r
    th2 = libm(math.pow, libm(math.tanh, r), 2.0)
    y6 = -4.0 * sin_t + libm(math.sin, 2.0 * t) * th2 + 2.0 * sin_t * th2 * th2
    y7 = 1.0 - 2.0 * cos_t * th2 + th2 * th2
    f0 = math.sqrt(2.0) / libm(math.pow, y2, 0.25)
    angle = libm(math.acos, _clamp_unit(f0))
    return y2, y6, y7, f0, angle, 1.0 - f0 * f0 < NEAR_REVIVAL_LIMIT


def squeezed_fidelity_closed(r: Grid, t: Grid, epsilon: Grid) -> Any:
    """|<state(0)|state(t)>| for the squeezed vacuum, to first order in epsilon.

    F = sqrt(2) / y2^{1/4} - (3 eps t cosh^5 r sinh^2 r / (4 y2^2 y7^{1/4})) y6,
    clamped to [0, 1]; the correction is dropped where y7 <= 0. At t = 0 the
    leading term is exactly 1 for every r, and at r = 0 F is 1. A non-finite
    value before the clamp (y2 cancels for r >~ 9) raises ValueError naming
    the point. Takes floats (returning a float), equal-shape or broadcastable
    (open-grid) arrays.
    """
    r, t, epsilon = as_arrays(r, t, epsilon)
    if np.any(r < 0):
        raise ValueError("r must be non-negative")
    with np.errstate(all="ignore"):
        y2, y6, y7, f0 = _squeezed_core(r, t)[:4]
        # y7^{1/4} leaves the domain of pow where the correction is dropped
        keep = y7 > 0.0
        corr = (
            3.0 * epsilon * t * libm(math.pow, libm(math.cosh, r), 5.0)
            * libm(math.pow, libm(math.sinh, r), 2.0)
            / (4.0 * y2 * y2 * libm(math.pow, np.where(keep, y7, 1.0), 0.25))
        ) * y6
        f = f0 - np.where(keep, corr, 0.0)
    # the clamp would turn a nan into 0.0, so a non-finite value stops here
    require_finite("squeezed_fidelity_closed", {"r": r, "t": t, "epsilon": epsilon},
                   "fidelity {!r} is", f)
    return native(np.where(r == 0.0, 1.0, _clamp_fidelity(f)))


def _squeezed_shift(scale: float, r: np.ndarray, t: np.ndarray, y2: np.ndarray,
                    y6: np.ndarray, y7: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Where ``keep`` holds, scale t cosh^5 r sinh^2 r y6 / (y2^{7/4} y7^{1/4} y8).

    The term diverges at revivals. Inputs at the other points are replaced
    by 1.0, so that the math calls cannot overflow or leave their domain
    where the result is discarded.
    """
    r, t, y2, y6, y7 = (np.where(keep, a, 1.0) for a in (r, t, y2, y6, y7))
    y8 = np.sqrt(np.sqrt(y2) - 2.0)
    y5 = (
        scale * t * libm(math.pow, libm(math.cosh, r), 5.0)
        * libm(math.pow, libm(math.sinh, r), 2.0) / libm(math.pow, y2, 1.75)
    )
    return y5 * y6 / (libm(math.pow, y7, 0.25) * y8)


def mt_squeezed(r: Grid, t: Grid, epsilon: Grid) -> BoundReport:
    """Energy-variance bound for the squeezed vacuum.

    zeroth = sqrt(2) csch(2r) arccos(sqrt2 / y2^{1/4}); the correction carries
    the angular shift plus the first-order drop of the energy spread.
    """
    r, t, epsilon = as_arrays(r, t, epsilon)
    if np.any(r <= 0):
        raise ValueError("r must be positive: the unsqueezed vacuum has zero energy spread")
    with np.errstate(all="ignore"):
        y2, y6, y7, _, y1, near = _squeezed_core(r, t)
        y3 = math.sqrt(2.0) / libm(math.sinh, 2.0 * r)
        y4 = libm(math.cosh, 2.0 * r)
        zeroth = y3 * y1
        keep = ~near & (y7 > 0.0)
        bracket = 6.0 * y4 * y1
        shift = _squeezed_shift(8.0, r, t, y2, y6, y7, keep)
        bracket = np.where(keep, bracket + shift, bracket)
        coefficient = 3.0 * y3 / 32.0 * bracket
    return _report("mt_squeezed", {"r": r, "t": t, "epsilon": epsilon},
                   coefficient, zeroth, near)


def ml_squeezed(r: Grid, t: Grid, epsilon: Grid) -> BoundReport:
    """Mean-energy bound for the squeezed vacuum.

    zeroth = (4 sech 2r / pi) arccos(sqrt2 / y2^{1/4})^2; the correction
    carries the angular shift plus the first-order drop of the mean energy.
    """
    r, t, epsilon = as_arrays(r, t, epsilon)
    if np.any(r <= 0):
        raise ValueError("r must be positive: the unsqueezed vacuum does not evolve")
    with np.errstate(all="ignore"):
        x2, x6, x7, _, x1, near = _squeezed_core(r, t)
        x3 = 1.0 / libm(math.cosh, 2.0 * r)
        x4 = 1.0 + 3.0 * libm(math.cosh, 4.0 * r)
        zeroth = 4.0 * x3 / math.pi * x1 * x1
        keep = ~near & (x7 > 0.0)
        bracket = x4 * x3 * x1
        shift = _squeezed_shift(32.0, r, t, x2, x6, x7, keep)
        bracket = np.where(keep, bracket + shift, bracket)
        coefficient = 3.0 * x3 / (16.0 * math.pi) * x1 * bracket
    return _report("ml_squeezed", {"r": r, "t": t, "epsilon": epsilon},
                   coefficient, zeroth, near)


def t_qsl(mt: BoundReport, ml: BoundReport) -> BoundReport:
    """Unified speed limit: the larger of the two bounds; ties go to the first argument.

    Both reports must refer to the same evolution times. Where one bound
    wins at every point, that report is returned as it is.
    """
    differ = np.not_equal(mt.t, ml.t)
    if np.any(differ):
        raise ValueError(f"bound reports refer to different times: "
                         f"{first(mt.t, differ)} vs {first(ml.t, differ)}")
    take_mt = np.greater_equal(mt.total, ml.total)
    if np.all(take_mt):
        return mt
    if not np.any(take_mt):
        return ml
    return BoundReport(**{
        name: np.where(take_mt, getattr(mt, name), getattr(ml, name))
        for name in ("t", "zeroth", "correction", "coefficient", "near_revival")
    })
