"""Balanced-homodyne readout and the Penning-trap Allan-deviation budget.

The homodyne half covers the difference-intensity observable and the
phase-sensitivity degradation picked up from quadratic local-oscillator
decay. The trap half budgets shot-noise against relativistic-drift Allan
deviation and locates their crossover.

Everything upstream of this module works in natural units; SI constants and
unit conversion live here and nowhere else, so there is a single boundary
where dimensions can go wrong. The one exception is the electron mass, the
default of the trap's mass parameter, which the stdlib-only ``config``
schema defines; ``TrapConfig`` checks its ranges through that schema too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from .arrays import require_finite
from .config import check_ranges

PLANCK_H = 6.62607015e-34  # J s, exact by definition
SPEED_OF_LIGHT = 299792458.0  # m / s, exact by definition

#: Widely quoted one-second shot-noise Allan deviation for the reference
#: 149 GHz / 1 mW trap readout. The closed form below gives a value about
#: pi times smaller with the same inputs; ``selfcheck`` reports both numbers
#: side by side instead of silently preferring one.
REFERENCE_SHOT_NOISE_1S = 5.3e-22

MIN_SIN_DELTA_PSI = 1e-9

# simulate_i_diff draws each port SHOT_CHUNK shots at a time (512 KiB of
# int64 per draw) and stores int16 photocounts while both port means are at
# most INT16_MAX_PORT_MEAN, where 32767 lies more than 900 sigma out
SHOT_CHUNK = 65_536
INT16_MAX_PORT_MEAN = 1e3
_INT16_MAX = np.iinfo(np.int16).max

_LOG10_TAU_LO = -6.0
_LOG10_TAU_HI = 12.0
# scipy.optimize.bisect's defaults: rtol = 4 machine epsilons, 100 iterations
_BISECT_RTOL = 4 * np.finfo(float).eps
_BISECT_MAXITER = 100


@dataclass(frozen=True)
class BhdConfig:
    """Balanced-homodyne operating point.

    ``delta_psi`` defaults to pi/2, the maximum-slope operating point.
    """

    alpha_s: float
    alpha_lo_mag: float
    delta_psi: float = math.pi / 2.0

    def __post_init__(self):
        if not self.alpha_s > 0:
            raise ValueError(f"alpha_s must be positive, got {self.alpha_s}")
        if not self.alpha_lo_mag > 0:
            raise ValueError(f"alpha_lo_mag must be positive, got {self.alpha_lo_mag}")


@dataclass(frozen=True)
class TrapConfig:
    """Trap readout parameters, all strictly positive.

    nu is the cyclotron frequency in Hz, p_lo the local-oscillator power in
    W, kappa the dimensionless drift-curvature prefactor and epsilon the
    relativistic expansion parameter. Planck's constant is the module's
    PLANCK_H, the one h that epsilon_from_trap also uses.
    """

    nu: float
    p_lo: float
    kappa: float
    epsilon: float

    def __post_init__(self):
        # a [trap] epsilon of 0 means "derive it", so the schema's range admits 0
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be strictly positive, got {self.epsilon}")
        check_ranges("trap", self)


def i_diff_mean(cfg: BhdConfig) -> float:
    """Mean difference intensity 2 alpha_s alpha_lo cos(delta_psi)."""
    return 2.0 * cfg.alpha_s * cfg.alpha_lo_mag * math.cos(cfg.delta_psi)


def i_diff_variance(cfg: BhdConfig) -> float:
    """Shot-noise variance of the difference intensity: alpha_s^2 + alpha_lo^2."""
    return cfg.alpha_s**2 + cfg.alpha_lo_mag**2


def i_diff_mean_slope(cfg: BhdConfig) -> float:
    """Derivative of the mean difference intensity with respect to delta_psi."""
    return -2.0 * cfg.alpha_s * cfg.alpha_lo_mag * math.sin(cfg.delta_psi)


def simulate_i_diff(cfg: BhdConfig, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Sample difference-intensity outcomes from the two output ports.

    Coherent inputs put independent Poisson photocounts at each port with
    means |amplitude|^2 of the respective output, so the sampled differences
    reproduce i_diff_mean and i_diff_variance. The result is the integer
    count differences, port + minus port -.

    Port + is drawn in chunks of SHOT_CHUNK shots into one count array, then
    port - in chunks of the same size from the same generator, each chunk
    subtracted in place. ``Generator.poisson`` yields the same stream in
    chunks as in one call, so the counts equal drawing each port whole. They
    are int16 when both port means are at most INT16_MAX_PORT_MEAN, else
    int64; a narrowed chunk outside the int16 range raises ArithmeticError
    and is never wrapped.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    s2 = cfg.alpha_s**2
    l2 = cfg.alpha_lo_mag**2
    cross = 2.0 * cfg.alpha_s * cfg.alpha_lo_mag * math.cos(cfg.delta_psi)
    port_means = ((s2 + l2 + cross) / 2.0, (s2 + l2 - cross) / 2.0)
    narrow = max(port_means) <= INT16_MAX_PORT_MEAN
    counts = np.empty(shots, dtype=np.int16 if narrow else np.int64)
    for port, mean in enumerate(port_means):
        for start in range(0, shots, SHOT_CHUNK):
            chunk = rng.poisson(mean, size=min(SHOT_CHUNK, shots - start))
            if narrow and chunk.max() > _INT16_MAX:
                raise ArithmeticError(
                    f"simulate_i_diff: a photocount of {chunk.max()} at port mean {mean!r} "
                    f"exceeds the int16 range"
                )
            window = counts[start:start + chunk.size]
            if port == 0:
                window[...] = chunk
            else:
                window -= chunk
    return counts


def sensitivity_bracket_c(cfg: BhdConfig) -> float:
    """Prefactor C of the eps^2 t^2 sensitivity penalty.

    C = 72 alpha_s^2 (|a|^4 + 3 |a|^2 + 1) / (|a|^2 + alpha_s^2) with |a| the
    LO magnitude; it inherits the quartic bracket of the LO amplitude decay.
    """
    l2 = cfg.alpha_lo_mag**2
    return 72.0 * cfg.alpha_s**2 * (l2 * l2 + 3.0 * l2 + 1.0) / (l2 + cfg.alpha_s**2)


def phase_sensitivity(cfg: BhdConfig, t: float, epsilon: float) -> float:
    """Phase uncertainty of the balanced readout after LO decay for time t.

    sqrt(|a|^2 + alpha_s^2) / (2 |a| alpha_s |sin delta_psi|) * [1 + C eps^2 t^2].
    The epsilon = 0 value is, bit for bit, the error-propagation quotient
    sqrt(i_diff_variance) / |i_diff_mean_slope|. delta_psi at a multiple of
    pi is a zero-slope point and is rejected; so is a non-finite result.
    """
    if abs(math.sin(cfg.delta_psi)) <= MIN_SIN_DELTA_PSI:
        raise ValueError(
            "delta_psi is at (or within 1e-9 of) a multiple of pi, where the "
            "interference slope vanishes and phase readout is undefined"
        )
    if not t >= 0:
        raise ValueError("t must be non-negative")
    base = math.sqrt(i_diff_variance(cfg)) / abs(i_diff_mean_slope(cfg))
    value = base * (1.0 + sensitivity_bracket_c(cfg) * epsilon * epsilon * t * t)
    inputs = {**asdict(cfg), "t": t, "epsilon": epsilon}
    require_finite("phase_sensitivity", inputs, "result {!r} is", value)
    return value


def _finite_or_named(fn: Callable[..., float]) -> Callable[..., float]:
    """Wrap a trap closed form so an overflow or a non-finite result names it.

    The ValueError carries the function's name and its inputs, as
    ``arrays.require_finite`` words every non-finite closed-form result.
    """

    @functools.wraps(fn)
    def checked(trap: TrapConfig, *tau: float) -> float:
        try:
            value = fn(trap, *tau)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        inputs = asdict(trap)
        inputs.update(zip(("tau",), tau))
        require_finite(fn.__name__, inputs, "result {!r} is", value)
        return value

    return checked


def _shot_noise(trap: TrapConfig, tau: float) -> float:
    return (
        math.sqrt(PLANCK_H * trap.nu / (4.0 * trap.p_lo))
        / (2.0 * math.pi * trap.nu)
        * tau**-1.5
    )


def _drift(trap: TrapConfig, tau: float) -> float:
    return trap.kappa * trap.epsilon**2 / 2.0 * tau


@_finite_or_named
def allan_shot_noise(trap: TrapConfig, tau: float) -> float:
    """Shot-noise Allan deviation sqrt(h nu / (4 P_lo)) / (2 pi nu) * tau^-3/2."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return _shot_noise(trap, tau)


@_finite_or_named
def allan_relativistic(trap: TrapConfig, tau: float) -> float:
    """Relativistic-drift Allan deviation (kappa epsilon^2 / 2) tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return _drift(trap, tau)


@_finite_or_named
def crossover_closed(trap: TrapConfig) -> float:
    """Closed-form crossover time [h nu / (pi^2 P_lo)]^(1/5) (kappa eps^2)^(-2/5).

    This is the published expression. Equating allan_shot_noise to
    allan_relativistic analytically gives a different nu-dependence, so this
    generally disagrees with crossover_numeric; selfcheck reports both.
    """
    return (PLANCK_H * trap.nu / (math.pi**2 * trap.p_lo)) ** 0.2 * (
        trap.kappa * trap.epsilon**2
    ) ** -0.4


def _bisect(f: Callable[[float], float], a: float, b: float, fa: float, xtol: float) -> float:
    """Root of f in [a, b] given fa = f(a), step for step as scipy.optimize.bisect.

    Like scipy's C loop, fa is never updated: only its sign is read.
    """
    dm = b - a
    for _ in range(_BISECT_MAXITER):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0:
            a = xm
        if fm == 0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise ArithmeticError(f"bisection did not converge in {_BISECT_MAXITER} steps")


@_finite_or_named
def crossover_numeric(trap: TrapConfig) -> float:
    """Bisection root of allan_shot_noise(tau) = allan_relativistic(tau).

    Solved on log10(tau) over [1e-6, 1e12] s to 1e-10 relative tolerance in
    tau. The ratio of the two sides is a pure tau^(5/2) power law, so the
    root is unique whenever the bracket changes sign.
    """

    def gap(log10_tau: float) -> float:
        tau = 10.0**log10_tau
        value = _shot_noise(trap, tau) - _drift(trap, tau)
        if math.isnan(value):  # both branches overflow to inf at this tau
            raise OverflowError
        return value

    lo, hi = gap(_LOG10_TAU_LO), gap(_LOG10_TAU_HI)
    if lo == 0.0:
        return 10.0**_LOG10_TAU_LO
    if hi == 0.0:
        return 10.0**_LOG10_TAU_HI
    if lo * hi > 0:
        raise ValueError(
            "no crossover between 1e-6 s and 1e12 s; trap parameters are "
            "outside the regime where both noise branches matter"
        )
    # xtol 2e-11 in log10 space bounds the relative error in tau by
    # ln(10) * 2e-11 < 1e-10.
    return 10.0 ** _bisect(gap, _LOG10_TAU_LO, _LOG10_TAU_HI, lo, xtol=2e-11)


def epsilon_from_trap(nu: float, mass: float) -> float:
    """Relativistic expansion parameter h nu / (8 m c^2) for a trapped particle."""
    if not (nu >= 0 and mass > 0):
        raise ValueError("nu must be non-negative and mass positive")
    return PLANCK_H * nu / (8.0 * mass * SPEED_OF_LIGHT**2)


def trap_config(params: dict[str, Any]) -> tuple[TrapConfig, str]:
    """The TrapConfig for trap parameters, and where its epsilon came from.

    ``params`` is a resolved [trap] section; tau is not part of the config
    and is ignored. epsilon = 0 means derive it from nu and mass (source
    "derived"); any other value is used as given (source "config").
    """
    epsilon, source = params["epsilon"], "config"
    if epsilon == 0.0:
        epsilon, source = epsilon_from_trap(params["nu"], params["mass"]), "derived"
    return TrapConfig(params["nu"], params["p_lo"], params["kappa"], epsilon), source
