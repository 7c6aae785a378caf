"""CV-QKD noise budget with the relativistic phase-drift addendum.

Reverse-reconciled Gaussian model: channel loss and excess noise enter the
input-referred total noise, the local-oscillator phase drift adds an extra
excess-noise term (estimator-variance inflation plus uncompensated
deterministic drift), and the asymptotic key rate is beta * I_AB - chi_BE.

The Holevo bound uses the standard entangling-cloner purification. Trusted
detection noise is modelled by a beamsplitter in front of Bob's detector fed
from one arm of an EPR pair; the bound is independent of how the
transmission/port-variance pair is split (only their combination is fixed by
chi_det), which doubles as a consistency check. An arbitrary-precision twin
of the whole covariance algebra backs the floating-point path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DETECTION_KINDS = frozenset({"homodyne", "heterodyne"})
PREDICTOR_KINDS = frozenset({"zoh", "linear"})

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
        if not 0.0 < self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity must be in (0, 1], got {self.transmissivity}")
        if self.v_a <= 0:
            raise ValueError(f"v_a must be positive, got {self.v_a}")
        if self.xi_base < 0:
            raise ValueError(f"xi_base must be non-negative, got {self.xi_base}")
        if self.chi_det < 0:
            raise ValueError(f"chi_det must be non-negative, got {self.chi_det}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
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
        for name in ("sigma_phi0_sq", "c_factor", "gamma", "epsilon", "t_window", "t_pilot", "dt"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(f"predictor must be one of {sorted(PREDICTOR_KINDS)}")


def drift_curvature(kappa: float, epsilon: float) -> float:
    """Deterministic phase-drift curvature gamma = kappa * epsilon^2."""
    if kappa < 0 or epsilon < 0:
        raise ValueError("kappa and epsilon must be non-negative")
    return kappa * epsilon * epsilon


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


def sigma_phi_est_sq(p: PhaseNoiseParams) -> float:
    """Inflated estimator variance sigma_phi0^2 [1 + 2 C eps^2 t^2]."""
    return p.sigma_phi0_sq * (
        1.0 + 2.0 * p.c_factor * p.epsilon * p.epsilon * p.t_window * p.t_window
    )


def residual_drift(p: PhaseNoiseParams) -> float:
    """Uncompensated deterministic drift after pilot correction.

    Zero-order hold leaves gamma (2 t_p dt + dt^2); a linear predictor
    cancels the slope and leaves gamma dt^2 regardless of t_p.
    """
    if p.predictor == "linear":
        return p.gamma * p.dt * p.dt
    return p.gamma * (2.0 * p.t_pilot * p.dt + p.dt * p.dt)


def delta_xi_rel(p: PhaseNoiseParams, link: QkdLinkParams) -> float:
    """Relativistic excess-noise addendum, input-referred.

    [2 C eps^2 t^2 sigma_phi0^2 + residual_drift^2] (V_A + 1/T). The first
    term is delta_xi_phase applied to the estimator-variance inflation, the
    second the squared uncompensated drift; the identity is exact.
    """
    inflation = sigma_phi_est_sq(p) - p.sigma_phi0_sq
    drift = residual_drift(p)
    return (inflation + drift * drift) * (link.v_a + 1.0 / link.transmissivity)


def chi_total(link: QkdLinkParams, p: PhaseNoiseParams | None = None) -> float:
    """Input-referred total noise chi_line + xi_base + delta_xi_rel + chi_det."""
    extra = delta_xi_rel(p, link) if p is not None else 0.0
    return chi_line(link.transmissivity) + link.xi_base + extra + link.chi_det


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


def _detector_model(
    t_chi_det: float, eta: float | None, detection: str
) -> tuple[float, float] | None:
    """Beamsplitter transmission and EPR-port variance for trusted detection.

    Homodyne: any (eta, d) with (1 - eta) d / eta = T chi_det represents the
    same detector. Heterodyne splits off one extra vacuum unit at the
    detector, and that unit is part of the trusted budget, so the constraint
    becomes ((1 - eta) d + 1) / eta = T chi_det and chi_det below 1/T has no
    physical heterodyne realization. The default split puts plain vacuum on
    the port (d = 1); the bound does not depend on the split. Returns None
    when the noise target needs no beamsplitter at all.
    """
    if detection == "heterodyne":
        if t_chi_det < 1.0 - 1e-12:
            raise ValueError(
                "trusted heterodyne detection noise cannot be below the intrinsic "
                "vacuum unit: chi_det >= 1/T is required (or use chi_det = 0 for "
                "the idealized no-penalty bookkeeping)"
            )
        if t_chi_det <= 1.0 + 1e-12:
            return None
        if eta is None:
            eta = 2.0 / (1.0 + t_chi_det)
        if not 0.0 < eta < 1.0:
            raise ValueError(f"detector transmission must be in (0, 1), got {eta}")
        d = (eta * t_chi_det - 1.0) / (1.0 - eta)
    else:
        if eta is None:
            eta = 1.0 / (1.0 + t_chi_det)
        if not 0.0 < eta < 1.0:
            raise ValueError(f"detector transmission must be in (0, 1), got {eta}")
        d = eta * t_chi_det / (1.0 - eta)
    if d < 1.0 - 1e-12:
        raise ValueError(
            f"detector split eta={eta} needs port variance {d} < 1 (unphysical); "
            "increase eta"
        )
    return eta, max(d, 1.0)


def _conditioned(cov: np.ndarray, mode: int, detection: str) -> np.ndarray:
    """Covariance of the remaining modes after measuring one mode."""
    n = cov.shape[0]
    bx, bp = 2 * mode, 2 * mode + 1
    rest = [i for i in range(n) if i not in (bx, bp)]
    gamma_rest = cov[np.ix_(rest, rest)]
    if detection == "homodyne":
        col = cov[np.ix_(rest, [bx])]
        return gamma_rest - col @ col.T / cov[bx, bx]
    sigma = cov[np.ix_(rest, [bx, bp])]
    gamma_b = cov[np.ix_([bx, bp], [bx, bp])]
    return gamma_rest - sigma @ np.linalg.inv(gamma_b + np.eye(2)) @ sigma.T


def _budget_covariance(
    v: float, t: float, chi_chan: float, t_chi_det: float, eta: float | None, detection: str
) -> tuple[np.ndarray, int]:
    """Full pre-measurement covariance and the index of Bob's measured mode.

    Modes are ordered (A, B, F'[, G]): Alice's kept half, Bob's detected
    mode, the detector-port output, and the EPR purifier of the port when
    its variance is above vacuum.
    """
    sz = np.diag([1.0, -1.0])
    i2 = np.eye(2)
    a = v
    b = t * (v + chi_chan)
    c = math.sqrt(t * (v * v - 1.0))
    model = None if t_chi_det == 0.0 else _detector_model(t_chi_det, eta, detection)
    if model is None:
        cov = np.block([[a * i2, c * sz], [c * sz, b * i2]])
        return cov, 1
    eta, d = model
    rt, rr = math.sqrt(eta), math.sqrt(1.0 - eta)
    modes = 4 if d > 1.0 + 1e-12 else 3
    cov = np.zeros((2 * modes, 2 * modes))
    cov[0:2, 0:2] = a * i2
    cov[2:4, 2:4] = (eta * b + (1.0 - eta) * d) * i2
    cov[4:6, 4:6] = ((1.0 - eta) * b + eta * d) * i2
    cov[0:2, 2:4] = cov[2:4, 0:2] = rt * c * sz
    cov[0:2, 4:6] = cov[4:6, 0:2] = -rr * c * sz
    cov[2:4, 4:6] = cov[4:6, 2:4] = rt * rr * (d - b) * i2
    if modes == 4:
        k = math.sqrt(d * d - 1.0)
        cov[6:8, 6:8] = d * i2
        cov[2:4, 6:8] = cov[6:8, 2:4] = rr * k * sz
        cov[4:6, 6:8] = cov[6:8, 4:6] = rt * k * sz
    return cov, 1


def holevo_bound(
    link: QkdLinkParams, chi_tot: float, detector_transmission: float | None = None
) -> float:
    """Eavesdropper information bound chi_BE in bits per symbol.

    Entangling-cloner purification of the channel: S(E) comes from the
    Alice-Bob covariance before detection, S(E|measurement) from the
    covariance of the unmeasured modes after Bob's homodyne or heterodyne
    click. Trusted chi_det stays out of the channel purification; with
    trusted_detection false it is folded into the channel noise instead.

    detector_transmission overrides the internal beamsplitter split of the
    trusted-detector model; the result is independent of it, so it exists
    only for consistency checking.
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
    _check_physical(np.array([nu1, nu2]))

    cov, bob = _budget_covariance(
        v, t, chi_chan, t * chi_det, detector_transmission, link.detection
    )
    cond = _conditioned(cov, bob, link.detection)
    nus_cond = _symplectic_eigs(cond)
    _check_physical(nus_cond)

    s_eve = _g((nu1 - 1.0) / 2.0) + _g((nu2 - 1.0) / 2.0)
    s_cond = sum(_g((nu - 1.0) / 2.0) for nu in nus_cond)
    return s_eve - s_cond


def holevo_bound_mp(link: QkdLinkParams, chi_tot: float, dps: int = 50) -> float:
    """Arbitrary-precision twin of holevo_bound.

    Rebuilds the same covariance algebra in mpmath and takes every
    symplectic eigenvalue from the full eigendecomposition instead of the
    two-mode closed form, so the two routes share no numerics.
    """
    if chi_tot < 0:
        raise ValueError("chi_tot must be non-negative")
    import mpmath

    with mpmath.workdps(dps):
        one = mpmath.mpf(1)
        t = mpmath.mpf(link.transmissivity)
        v = mpmath.mpf(link.v_a) + 1
        chi_det = mpmath.mpf(link.chi_det) if link.trusted_detection else mpmath.mpf(0)
        chi_chan = mpmath.mpf(chi_tot) - chi_det
        if chi_chan < 0:
            if chi_chan < mpmath.mpf("-1e-12"):
                raise ValueError("chi_tot is smaller than the trusted chi_det it must contain")
            chi_chan = mpmath.mpf(0)

        a = v
        b = t * (v + chi_chan)
        c = mpmath.sqrt(t * (v * v - 1))
        t_chi_det = t * chi_det

        def channel_cov() -> mpmath.matrix:
            cov = mpmath.matrix(4)
            for i in range(2):
                cov[i, i] = a
                cov[2 + i, 2 + i] = b
            cov[0, 2] = cov[2, 0] = c
            cov[1, 3] = cov[3, 1] = -c
            return cov

        def block_cov() -> tuple[mpmath.matrix, int]:
            if t_chi_det == 0:
                return channel_cov(), 1
            if link.detection == "heterodyne":
                if t_chi_det < 1 - mpmath.mpf("1e-12"):
                    raise ValueError(
                        "trusted heterodyne detection noise cannot be below the "
                        "intrinsic vacuum unit: chi_det >= 1/T is required"
                    )
                if t_chi_det <= 1 + mpmath.mpf("1e-12"):
                    return channel_cov(), 1
                eta = 2 * one / (one + t_chi_det)
            else:
                eta = one / (one + t_chi_det)
            d = one
            rt, rr = mpmath.sqrt(eta), mpmath.sqrt(one - eta)
            cov = mpmath.matrix(6)
            vb = eta * b + (one - eta) * d
            vf = (one - eta) * b + eta * d
            for i in range(2):
                cov[i, i] = a
                cov[2 + i, 2 + i] = vb
                cov[4 + i, 4 + i] = vf
            cov[0, 2] = cov[2, 0] = rt * c
            cov[1, 3] = cov[3, 1] = -rt * c
            cov[0, 4] = cov[4, 0] = -rr * c
            cov[1, 5] = cov[5, 1] = rr * c
            cov[2, 4] = cov[4, 2] = rt * rr * (d - b)
            cov[3, 5] = cov[5, 3] = rt * rr * (d - b)
            return cov, 1

        def symp_eigs(cov: mpmath.matrix) -> list:
            m = cov.rows // 2
            iomega = mpmath.matrix(2 * m)
            for i in range(m):
                iomega[2 * i, 2 * i + 1] = mpmath.mpc(0, 1)
                iomega[2 * i + 1, 2 * i] = mpmath.mpc(0, -1)
            eigvals, _ = mpmath.eig(iomega * cov)
            moduli = sorted(abs(e) for e in eigvals)
            return moduli[::2]

        def g(x):
            if x <= 0:
                return mpmath.mpf(0)
            return (x + 1) * mpmath.log(x + 1, 2) - x * mpmath.log(x, 2)

        # Eve purifies the channel output before the trusted detector, so her
        # entropy comes from the plain two-mode Alice-Bob covariance even when
        # the conditional step below runs on the detector-extended matrix.
        nus_eve = symp_eigs(channel_cov())
        cov, bob = block_cov()
        bx, bp = 2 * bob, 2 * bob + 1
        rest = [i for i in range(cov.rows) if i not in (bx, bp)]
        gamma_rest = mpmath.matrix(len(rest))
        for i, ri in enumerate(rest):
            for j, rj in enumerate(rest):
                gamma_rest[i, j] = cov[ri, rj]
        if link.detection == "homodyne":
            for i, ri in enumerate(rest):
                for j, rj in enumerate(rest):
                    gamma_rest[i, j] -= cov[ri, bx] * cov[rj, bx] / cov[bx, bx]
        else:
            gb = mpmath.matrix(2)
            gb[0, 0] = cov[bx, bx] + 1
            gb[1, 1] = cov[bp, bp] + 1
            gb[0, 1] = cov[bx, bp]
            gb[1, 0] = cov[bp, bx]
            gb_inv = gb**-1
            for i, ri in enumerate(rest):
                for j, rj in enumerate(rest):
                    acc = mpmath.mpf(0)
                    for u, bu in enumerate((bx, bp)):
                        for w, bw in enumerate((bx, bp)):
                            acc += cov[ri, bu] * gb_inv[u, w] * cov[rj, bw]
                    gamma_rest[i, j] -= acc
        nus_cond = symp_eigs(gamma_rest)

        s_eve = sum(g((nu - 1) / 2) for nu in nus_eve)
        s_cond = sum(g((nu - 1) / 2) for nu in nus_cond)
        return float(s_eve - s_cond)


@dataclass(frozen=True)
class KeyRateBudget:
    """Noise decomposition and asymptotic key rate for one operating point."""

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
