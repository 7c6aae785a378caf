"""CV-QKD noise budget with the relativistic phase-drift addendum.

Reverse-reconciled Gaussian model: channel loss and excess noise enter the
input-referred total noise, the local-oscillator phase drift adds an extra
excess-noise term (estimator-variance inflation plus uncompensated
deterministic drift), and the asymptotic key rate is beta * I_AB - chi_BE.

The Holevo bound uses the standard entangling-cloner purification. Trusted
detection noise is modelled as a loss in front of Bob's detector: a
beamsplitter with vacuum in its other port, whose transmission chi_det fixes
(the trusted-detector model of Lodewyck et al., Phys. Rev. A 76, 042305,
2007, without electronic noise). The test suite checks the floating-point
path against an arbitrary-precision twin of the whole covariance algebra.
The parameter dataclasses check their floats against the ``config``
[qkd] schema, so a range is written once and nan is refused.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .arrays import require_finite
from .config import DETECTION_KINDS, PREDICTOR_KINDS, check_ranges

_PHYS_TOL = 1e-9


@dataclass(frozen=True)
class QkdLinkParams:
    """Link and detection parameters in shot-noise units."""

    transmissivity: float
    v_a: float
    xi_base: float = 0.0
    chi_det: float = 0.0
    beta: float = 1.0
    detection: str = "homodyne"
    trusted_detection: bool = True

    def __post_init__(self):
        check_ranges("qkd", self, ("transmissivity", "v_a", "xi_base", "chi_det", "beta"))
        if self.detection not in DETECTION_KINDS:
            raise ValueError(f"detection must be one of {sorted(DETECTION_KINDS)}")


@dataclass(frozen=True)
class PhaseNoiseParams:
    """Phase-estimation noise model for the relativistic addendum.

    sigma_phi0_sq is the non-relativistic estimator variance in rad^2,
    c_factor the quadratic-decay prefactor of the sensitivity bracket, gamma
    the deterministic drift curvature in rad/s^2, t_window the estimation
    window, t_pilot the pilot timestamp and dt the pilot-to-data delay, all
    in seconds.
    """

    sigma_phi0_sq: float = 0.0
    c_factor: float = 0.0
    gamma: float = 0.0
    epsilon: float = 0.0
    t_window: float = 0.0
    t_pilot: float = 0.0
    dt: float = 0.0
    predictor: str = "zoh"

    def __post_init__(self):
        check_ranges("qkd", self, ("sigma_phi0_sq", "c_factor", "gamma", "epsilon",
                                   "t_window", "t_pilot", "dt"))
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(f"predictor must be one of {sorted(PREDICTOR_KINDS)}")


def chi_line(transmissivity: float) -> float:
    """Input-referred channel loss noise (1 - T) / T."""
    if not 0.0 < transmissivity <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {transmissivity}")
    return (1.0 - transmissivity) / transmissivity


def delta_xi_phase(sigma_phi_sq: float, transmissivity: float, v_a: float) -> float:
    """Small-angle excess noise sigma_phi^2 (V_A + 1/T) from residual phase jitter."""
    if sigma_phi_sq < 0:
        raise ValueError("sigma_phi_sq must be non-negative")
    return sigma_phi_sq * (v_a + 1.0 / transmissivity)


def residual_drift(p: PhaseNoiseParams) -> float:
    """Uncompensated deterministic drift after pilot correction.

    Zero-order hold leaves gamma (2 t_p dt + dt^2); a linear predictor
    cancels the slope and leaves gamma dt^2 regardless of t_p. Both multiply
    gamma last, so the linear residual never exceeds the zero-order one.
    """
    if p.predictor == "linear":
        return p.gamma * (p.dt * p.dt)
    return p.gamma * (2.0 * p.t_pilot * p.dt + p.dt * p.dt)


def delta_xi_rel(p: PhaseNoiseParams, link: QkdLinkParams) -> float:
    """Relativistic excess-noise addendum, input-referred.

    [2 C eps^2 t^2 sigma_phi0^2 + residual_drift^2] (V_A + 1/T). The first
    term is delta_xi_phase applied to the inflation of the estimator variance
    sigma_phi0^2 [1 + 2 C eps^2 t^2], formed directly so that it does not
    cancel against sigma_phi0^2; the second is the squared uncompensated drift.
    A result that is not finite (an overflow, or 0 * inf) is refused with a
    ValueError that names the phase-noise and link inputs.
    """
    inflation = p.sigma_phi0_sq * (
        2.0 * p.c_factor * p.epsilon * p.epsilon * p.t_window * p.t_window
    )
    drift = residual_drift(p)
    value = (inflation + drift * drift) * (link.v_a + 1.0 / link.transmissivity)
    inputs = {**asdict(p), "v_a": link.v_a, "transmissivity": link.transmissivity}
    require_finite("delta_xi_rel", inputs, "result {!r} is", value)
    return value


def mutual_information(link: QkdLinkParams, chi_tot: float) -> float:
    """Alice-Bob mutual information in bits per symbol.

    Homodyne: (1/2) log2((V + chi) / (1 + chi)) with V = V_A + 1; heterodyne
    drops the 1/2.
    """
    if chi_tot < 0:
        raise ValueError("chi_tot must be non-negative")
    v = link.v_a + 1.0
    half = 0.5 * math.log2((v + chi_tot) / (1.0 + chi_tot))
    return half if link.detection == "homodyne" else 2.0 * half


def _g(x: float) -> float:
    """Entropy (bits) of a thermal state with mean photon number x."""
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def _symplectic_eigs(cov: np.ndarray) -> np.ndarray:
    m = cov.shape[0] // 2
    omega = np.zeros((2 * m, 2 * m))
    for i in range(m):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * omega @ cov)))
    # The spectrum of i*Omega*cov is +-nu pairs, so the sorted moduli repeat
    # each nu twice; every other entry picks each one once.
    return moduli[::2]


def _check_physical(nus: np.ndarray) -> None:
    smallest = float(np.min(nus))
    if smallest < 1.0 - _PHYS_TOL:
        raise ValueError(
            f"unphysical covariance matrix: symplectic eigenvalue {smallest} < 1"
        )


def _conditioned(cov: np.ndarray, detection: str) -> np.ndarray:
    """Covariance of the remaining modes after measuring Bob's (rows 2 and 3)."""
    rest = [i for i in range(cov.shape[0]) if i not in (2, 3)]
    gamma_rest = cov[np.ix_(rest, rest)]
    if detection == "homodyne":
        col = cov[np.ix_(rest, [2])]
        return gamma_rest - col @ col.T / cov[2, 2]
    sigma = cov[np.ix_(rest, [2, 3])]
    gamma_b = cov[np.ix_([2, 3], [2, 3])]
    return gamma_rest - sigma @ np.linalg.inv(gamma_b + np.eye(2)) @ sigma.T


def _budget_covariance(
    a: float, b: float, c: float, t_chi_det: float, detection: str
) -> np.ndarray:
    """Pre-measurement covariance from the Alice-Bob entries a, b and c.

    Trusted detector noise x = T chi_det is a beamsplitter in front of Bob's
    detector with vacuum in its other port: transmission eta = 1/(1 + x) for
    homodyne. Heterodyne splits off one extra vacuum unit, which is part of
    the trusted budget, so eta = 2/(1 + x) and chi_det below 1/T has no
    heterodyne realization. Modes are ordered (A, B[, F]): Alice's kept
    half, Bob's detected mode and the port output.
    """
    sz = np.diag([1.0, -1.0])
    i2 = np.eye(2)
    cov = np.block([[a * i2, c * sz], [c * sz, b * i2]])
    if t_chi_det == 0.0:
        return cov
    if detection == "heterodyne":
        if t_chi_det < 1.0 - 1e-12:
            raise ValueError(
                "trusted heterodyne detection noise cannot be below the intrinsic "
                "vacuum unit: chi_det >= 1/T is required (or use chi_det = 0 for "
                "the idealized no-penalty bookkeeping)"
            )
        if t_chi_det <= 1.0 + 1e-12:
            return cov
        eta, loss = 2.0 / (1.0 + t_chi_det), (t_chi_det - 1.0) / (1.0 + t_chi_det)
    else:
        eta, loss = 1.0 / (1.0 + t_chi_det), t_chi_det / (1.0 + t_chi_det)
    # 1 - eta comes from its own fraction: 1.0 - eta cancels at small x
    rt, rr = math.sqrt(eta), math.sqrt(loss)
    vacuum_port = np.eye(6)
    vacuum_port[:4, :4] = cov
    split = np.eye(6)
    split[2:6, 2:6] = np.kron([[rt, rr], [-rr, rt]], i2)
    return split @ vacuum_port @ split.T


def holevo_bound(link: QkdLinkParams, chi_tot: float) -> float:
    """Eavesdropper information bound chi_BE in bits per symbol.

    Entangling-cloner purification of the channel: S(E) comes from the
    Alice-Bob covariance before detection, S(E|measurement) from the
    covariance of the unmeasured modes after Bob's homodyne or heterodyne
    click. Trusted chi_det stays out of the channel purification; with
    trusted_detection false it is folded into the channel noise instead.
    """
    if chi_tot < 0:
        raise ValueError("chi_tot must be non-negative")
    t = link.transmissivity
    v = link.v_a + 1.0
    chi_det = link.chi_det if link.trusted_detection else 0.0
    chi_chan = chi_tot - chi_det
    if chi_chan < -1e-12:
        raise ValueError("chi_tot is smaller than the trusted chi_det it must contain")
    chi_chan = max(chi_chan, 0.0)

    a = v
    b = t * (v + chi_chan)
    c = math.sqrt(t * (v * v - 1.0))
    delta = a * a + b * b - 2.0 * c * c
    det_ab = a * b - c * c
    disc = math.sqrt(max(delta * delta - 4.0 * det_ab * det_ab, 0.0))
    nu1 = math.sqrt((delta + disc) / 2.0)
    nu2 = math.sqrt(max((delta - disc) / 2.0, 0.0))
    # overflowed entries would reach numpy.linalg as inf or nan
    require_finite(
        "holevo_bound", {"v_a": link.v_a, "transmissivity": t, "chi_tot": chi_tot},
        "covariance entries (a {!r}, b {!r}, c {!r}) or symplectic eigenvalues ({!r}, {!r}) are",
        a, b, c, nu1, nu2,
    )
    _check_physical(np.array([nu1, nu2]))

    cov = _budget_covariance(a, b, c, t * chi_det, link.detection)
    cond = _conditioned(cov, link.detection)
    nus_cond = _symplectic_eigs(cond)
    _check_physical(nus_cond)

    s_eve = _g((nu1 - 1.0) / 2.0) + _g((nu2 - 1.0) / 2.0)
    s_cond = sum(_g((nu - 1.0) / 2.0) for nu in nus_cond)
    return float(s_eve - s_cond)


@dataclass(frozen=True)
class KeyRateBudget:
    """Noise decomposition and asymptotic key rate for one operating point.

    chi_tot is the input-referred total noise
    chi_line + xi_base + delta_xi_rel + chi_det.
    """

    chi_line: float
    delta_xi_rel: float
    chi_tot: float
    i_ab: float
    holevo: float
    key_rate: float
    key_rate_clamped: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "key_rate_clamped", max(self.key_rate, 0.0))


def key_rate(link: QkdLinkParams, p: PhaseNoiseParams | None = None) -> KeyRateBudget:
    """Asymptotic reverse-reconciliation key rate beta I_AB - chi_BE.

    Negative rates are reported as-is so sweeps show where the positive-rate
    region ends; key_rate_clamped carries the floored value.
    """
    loss = chi_line(link.transmissivity)
    addendum = delta_xi_rel(p, link) if p is not None else 0.0
    total = loss + link.xi_base + addendum + link.chi_det
    i_ab = mutual_information(link, total)
    chi_be = holevo_bound(link, total)
    rate = link.beta * i_ab - chi_be
    return KeyRateBudget(
        chi_line=loss,
        delta_xi_rel=addendum,
        chi_tot=total,
        i_ab=i_ab,
        holevo=chi_be,
        key_rate=rate,
    )


def simulate_rotation_penalty(
    link: QkdLinkParams, sigma_phi_sq: float, samples: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo estimate of the input-referred phase-jitter excess noise.

    Samples the rotated-quadrature error X_meas - X_ch for Gaussian channel
    outputs and phase jitter phi ~ N(0, sigma_phi_sq), then refers the error
    variance to the input by 1/T. Converges to delta_xi_phase for small
    jitter.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if sigma_phi_sq < 0:
        raise ValueError("sigma_phi_sq must be non-negative")
    t = link.transmissivity
    v_out = t * link.v_a + 1.0
    x_ch = rng.normal(0.0, math.sqrt(v_out), samples)
    p_ch = rng.normal(0.0, math.sqrt(v_out), samples)
    phi = rng.normal(0.0, math.sqrt(sigma_phi_sq), samples)
    delta = x_ch * (np.cos(phi) - 1.0) + p_ch * np.sin(phi)
    return float(np.var(delta, ddof=1) / t)
