"""Energy moments, Fisher information, squeeze factor, and amplitude decay.

Moment closed forms feed the time-estimation Fisher information (4 * variance
for pure states under unitary time encoding) and its Cramer-Rao limit. The
squeeze-factor formula quantifies quadrature nonclassicality against the
fixed 1/4 benchmark, and the displaced-amplitude pair tracks the quadratic
local-oscillator decay used by the homodyne and trap budgets. The moments,
the printed second-moment series and the squeeze ratio take floats,
equal-shape or broadcastable (open-grid) arrays, as the bounds do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .arrays import Grid, as_arrays, first, libm, native, require_finite, warn_doubtful

X_C_VARIANCE = 0.25  # fixed benchmark quadrature variance


@dataclass(frozen=True)
class EnergyMoments:
    """Mean, second moment and variance of the corrected Hamiltonian.

    ``second`` is stored as mean^2 + variance so the three fields are exactly
    self-consistent; the independently printed first-order series for the
    second moment differs from this at O(eps^2) and is available through the
    *_second_moment_closed functions. Python floats for a scalar evaluation,
    arrays at the grid's (broadcast) shape for a grid.
    """

    mean: Any
    variance: Any
    second: Any = field(init=False)

    def __post_init__(self):
        mean, var = native(self.mean), native(self.variance)
        negative = np.less(var, -1e-12)
        if np.any(negative):
            raise ValueError(f"variance {first(var, negative)!r} negative beyond tolerance")
        var = native(np.where(np.less(var, 0.0), 0.0, var))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var)
        object.__setattr__(self, "second", mean * mean + var)


_MOMENTS = "energy moments (mean {!r}, variance {!r}) are"


def coherent_energy(alpha0: Grid, epsilon: Grid) -> EnergyMoments:
    """First-order energy moments of a coherent state, at a point or over a grid.

    mean = (1/2 + a0^2) - (3 eps/32)(1 + 4 a0^2 + 2 a0^4)
    variance = a0^2 - (3 eps/4)(a0^2 + a0^4)
    """
    alpha0, epsilon = as_arrays(alpha0, epsilon)
    if np.any(alpha0 < 0):
        raise ValueError("alpha0 must be non-negative")
    with np.errstate(all="ignore"):
        a2 = alpha0 * alpha0
        mean = 0.5 + a2 - 3.0 * epsilon / 32.0 * (1.0 + 4.0 * a2 + 2.0 * a2 * a2)
        var = a2 - 0.75 * epsilon * (a2 + a2 * a2)
    require_finite("coherent_energy", {"alpha0": alpha0, "epsilon": epsilon}, _MOMENTS, mean, var)
    return EnergyMoments(mean=mean, variance=var)


def coherent_second_moment_closed(alpha0: Grid, epsilon: Grid) -> Any:
    """Printed first-order series for <H^2> in a coherent state.

    Differs from mean^2 + variance at O(eps^2); kept for the internal
    consistency check.
    """
    alpha0, epsilon = as_arrays(alpha0, epsilon)
    with np.errstate(all="ignore"):
        a2 = alpha0 * alpha0
        value = (0.25 + 2.0 * a2 + a2 * a2) - 3.0 * epsilon / 32.0 * (
            1.0 + 14.0 * a2 + 18.0 * a2 * a2 + 4.0 * libm(math.pow, a2, 3.0)
        )
    require_finite("coherent_second_moment_closed", {"alpha0": alpha0, "epsilon": epsilon},
                   "second moment {!r} is", value)
    return native(value)


def squeezed_energy(r: Grid, epsilon: Grid) -> EnergyMoments:
    """First-order energy moments of the squeezed vacuum, at a point or over a grid.

    mean = cosh(2r)/2 - (3 eps/128)(1 + 3 cosh 4r)
    variance = 2 cosh^2 r sinh^2 r - (9 eps/32) sinh 2r sinh 4r
    """
    r, epsilon = as_arrays(r, epsilon)
    if np.any(r < 0):
        raise ValueError("r must be non-negative")
    with np.errstate(all="ignore"):
        mean = libm(math.cosh, 2.0 * r) / 2.0 - 3.0 * epsilon / 128.0 * (
            1.0 + 3.0 * libm(math.cosh, 4.0 * r)
        )
        var = (
            2.0 * libm(math.pow, libm(math.cosh, r), 2.0) * libm(math.pow, libm(math.sinh, r), 2.0)
            - 9.0 * epsilon / 32.0 * libm(math.sinh, 2.0 * r) * libm(math.sinh, 4.0 * r)
        )
    require_finite("squeezed_energy", {"r": r, "epsilon": epsilon}, _MOMENTS, mean, var)
    return EnergyMoments(mean=mean, variance=var)


def squeezed_second_moment_closed(r: Grid, epsilon: Grid) -> Any:
    """Printed first-order series for <H^2> in the squeezed vacuum."""
    r, epsilon = as_arrays(r, epsilon)
    with np.errstate(all="ignore"):
        value = (-1.0 + 3.0 * libm(math.cosh, 4.0 * r)) / 8.0 + 3.0 * epsilon / 256.0 * (
            7.0 * libm(math.cosh, 2.0 * r) - 15.0 * libm(math.cosh, 6.0 * r)
        )
    require_finite("squeezed_second_moment_closed", {"r": r, "epsilon": epsilon},
                   "second moment {!r} is", value)
    return native(value)


def qfi_time(variance: float) -> float:
    """Fisher information for time estimation on a pure state: 4 * variance."""
    if variance < 0:
        raise ValueError("variance must be non-negative")
    return 4.0 * variance


def qcrb(qfi: float) -> float:
    """Cramer-Rao limit 1/sqrt(F) on the time estimate."""
    if qfi <= 0:
        raise ValueError(
            "Fisher information must be positive; a state with zero energy "
            "variance does not evolve and carries no timing information"
        )
    return 1.0 / math.sqrt(qfi)


@dataclass(frozen=True)
class SqueezeFactorPoint:
    """Quadrature-variance ratio against the 1/4 benchmark and its decibel form.

    Python floats for a scalar evaluation, arrays at the grid's (broadcast)
    shape for a grid.
    """

    ratio: Any
    sf_db: Any = field(init=False)

    def __post_init__(self):
        ratio = native(self.ratio)
        bad = np.less_equal(ratio, 0)
        if np.any(bad):
            raise ValueError(f"variance ratio must be positive, got {first(ratio, bad)}")
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "sf_db", native(-10.0 * libm(math.log10, ratio)))


def squeeze_ratio(r: Grid, alpha0: Grid, theta: Grid, epsilon: Grid) -> SqueezeFactorPoint:
    """Corrected squeezed-to-benchmark variance ratio, at a point or over a grid.

    ratio = e^{-2r} - (3/64) eps (5 + 3 e^{-4r} - 4 a0^2 e^{-2r} (cos 2 theta - 4)).
    A non-positive ratio means the correction has left first-order validity
    and is rejected; the error names the first such point in axis-major order.
    """
    r, alpha0, theta, epsilon = as_arrays(r, alpha0, theta, epsilon)
    if np.any(r < 0) or np.any(alpha0 < 0):
        raise ValueError("r and alpha0 must be non-negative")
    with np.errstate(all="ignore"):
        base = libm(math.exp, -2.0 * r)
        corr = -3.0 / 64.0 * epsilon * (
            5.0
            + 3.0 * libm(math.exp, -4.0 * r)
            - 4.0 * alpha0 * alpha0 * base * (libm(math.cos, 2.0 * theta) - 4.0)
        )
        ratio = base + corr
    non_positive = ratio <= 0
    if np.any(non_positive):
        raise ValueError(
            f"corrected variance ratio {first(ratio, non_positive):.3e} is non-positive; "
            "epsilon is too large for the first-order squeeze formula"
        )
    inputs = {"r": r, "alpha0": alpha0, "theta": theta, "epsilon": epsilon}
    require_finite("squeeze_ratio", inputs, "ratio {!r} is", ratio)
    warn_doubtful("squeeze_ratio", "ratio", corr, base, stacklevel=2)
    return SqueezeFactorPoint(ratio=ratio)


def displaced_amplitude(alpha_mag: float, t: float, epsilon: float) -> complex:
    """Mean ladder amplitude alpha_m(t) with the quadratic drift bracket.

    alpha e^{it} [1 - 12 i (|a|^2 + 1) eps t - 72 (|a|^4 + 3 |a|^2 + 1) eps^2 t^2].
    """
    if alpha_mag < 0 or t < 0:
        raise ValueError("alpha_mag and t must be non-negative")
    a2 = alpha_mag * alpha_mag
    bracket = (
        1.0
        - 12j * (a2 + 1.0) * epsilon * t
        - 72.0 * (a2 * a2 + 3.0 * a2 + 1.0) * epsilon * epsilon * t * t
    )
    return alpha_mag * complex(math.cos(t), math.sin(t)) * bracket


def lo_amplitude_decay(alpha_mag: float, t: float, epsilon: float) -> float:
    """Retained-order amplitude decay |alpha| [1 - 72 (|a|^4 + 3|a|^2 + 1) eps^2 t^2].

    Equals |alpha| times the real part of the displaced-amplitude bracket
    exactly. A negative factor means eps^2 t^2 is beyond the expansion's
    reach and is rejected.
    """
    if alpha_mag < 0 or t < 0:
        raise ValueError("alpha_mag and t must be non-negative")
    a2 = alpha_mag * alpha_mag
    factor = 1.0 - 72.0 * (a2 * a2 + 3.0 * a2 + 1.0) * epsilon * epsilon * t * t
    if factor < 0:
        raise ValueError(
            f"decay factor {factor:.3e} is negative; eps^2 t^2 exceeds the "
            "validity of the truncated expansion"
        )
    return alpha_mag * factor
