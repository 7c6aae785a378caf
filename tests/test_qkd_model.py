"""Noise budget, Holevo bound consistency, and key-rate assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relqsl.qkd_model import (
    KeyRateBudget,
    PhaseNoiseParams,
    QkdLinkParams,
    chi_line,
    delta_xi_phase,
    delta_xi_rel,
    holevo_bound,
    key_rate,
    mutual_information,
    residual_drift,
    simulate_rotation_penalty,
)

RNG = np.random.default_rng(42)

# T = 0.5, V_A = 4, xi = 0.01, beta = 0.95, trusted homodyne, no detector noise
EXPECTED_BUDGET = {
    "chi_line": 1.0,
    "chi_tot": 1.01,
    "i_ab": 0.7900847447661284,
    "holevo": 0.4793497519049097,
    "key_rate": 0.2712307556229123,
}


def _reference_link() -> QkdLinkParams:
    return QkdLinkParams(transmissivity=0.5, v_a=4.0, xi_base=0.01, beta=0.95)


def _detector_link(**overrides) -> QkdLinkParams:
    kwargs = dict(transmissivity=0.6, v_a=4.0, xi_base=0.02, chi_det=0.2)
    kwargs.update(overrides)
    return QkdLinkParams(**kwargs)


def _holevo_bound_mp(link: QkdLinkParams, chi_tot: float, dps: int = 50) -> float:
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

        def block_cov() -> mpmath.matrix:
            if t_chi_det == 0:
                return channel_cov()
            if link.detection == "heterodyne":
                if t_chi_det < 1 - mpmath.mpf("1e-12"):
                    raise ValueError(
                        "trusted heterodyne detection noise cannot be below the "
                        "intrinsic vacuum unit: chi_det >= 1/T is required"
                    )
                if t_chi_det <= 1 + mpmath.mpf("1e-12"):
                    return channel_cov()
                eta = 2 * one / (one + t_chi_det)
            else:
                eta = one / (one + t_chi_det)
            # vacuum in the beamsplitter's other port
            rt, rr = mpmath.sqrt(eta), mpmath.sqrt(one - eta)
            cov = mpmath.matrix(6)
            vb = eta * b + (one - eta)
            vf = (one - eta) * b + eta
            for i in range(2):
                cov[i, i] = a
                cov[2 + i, 2 + i] = vb
                cov[4 + i, 4 + i] = vf
            cov[0, 2] = cov[2, 0] = rt * c
            cov[1, 3] = cov[3, 1] = -rt * c
            cov[0, 4] = cov[4, 0] = -rr * c
            cov[1, 5] = cov[5, 1] = rr * c
            cov[2, 4] = cov[4, 2] = rt * rr * (one - b)
            cov[3, 5] = cov[5, 3] = rt * rr * (one - b)
            return cov

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
        # modes (A, B[, F]) as in the library: Bob's quadratures are rows 2 and 3
        cov = block_cov()
        rest = [i for i in range(cov.rows) if i not in (2, 3)]
        gamma_rest = mpmath.matrix(len(rest))
        for i, ri in enumerate(rest):
            for j, rj in enumerate(rest):
                gamma_rest[i, j] = cov[ri, rj]
        if link.detection == "homodyne":
            for i, ri in enumerate(rest):
                for j, rj in enumerate(rest):
                    gamma_rest[i, j] -= cov[ri, 2] * cov[rj, 2] / cov[2, 2]
        else:
            gb = mpmath.matrix(2)
            gb[0, 0] = cov[2, 2] + 1
            gb[1, 1] = cov[3, 3] + 1
            gb[0, 1] = cov[2, 3]
            gb[1, 0] = cov[3, 2]
            gb_inv = gb**-1
            for i, ri in enumerate(rest):
                for j, rj in enumerate(rest):
                    acc = mpmath.mpf(0)
                    for u, bu in enumerate((2, 3)):
                        for w, bw in enumerate((2, 3)):
                            acc += cov[ri, bu] * gb_inv[u, w] * cov[rj, bw]
                    gamma_rest[i, j] -= acc
        nus_cond = symp_eigs(gamma_rest)

        s_eve = sum(g((nu - 1) / 2) for nu in nus_eve)
        s_cond = sum(g((nu - 1) / 2) for nu in nus_cond)
        return float(s_eve - s_cond)


def test_chi_line_values():
    assert chi_line(0.5) == 1.0
    assert chi_line(0.25) == 3.0
    assert chi_line(1.0) == 0.0
    with pytest.raises(ValueError):
        chi_line(0.0)
    with pytest.raises(ValueError):
        chi_line(1.5)


def test_link_params_validation():
    with pytest.raises(ValueError):
        QkdLinkParams(transmissivity=0.5, v_a=0.0)
    with pytest.raises(ValueError):
        QkdLinkParams(transmissivity=0.5, v_a=4.0, beta=0.0)
    with pytest.raises(ValueError):
        QkdLinkParams(transmissivity=0.5, v_a=4.0, beta=1.2)
    with pytest.raises(ValueError):
        QkdLinkParams(transmissivity=0.5, v_a=4.0, xi_base=-0.1)
    with pytest.raises(ValueError):
        QkdLinkParams(transmissivity=0.5, v_a=4.0, detection="intensity")


def test_frozen_reference_budget():
    budget = key_rate(_reference_link())
    for name, value in EXPECTED_BUDGET.items():
        assert getattr(budget, name) == pytest.approx(value, rel=1e-12), name
    # Python floats, as annotated, not numpy scalars
    for name in ("holevo", "key_rate", "key_rate_clamped"):
        assert type(getattr(budget, name)) is float, name
    assert budget.key_rate_clamped == budget.key_rate
    assert budget.delta_xi_rel == 0.0


def test_mutual_information_forms():
    link = _reference_link()
    chi = 1.01
    v = link.v_a + 1.0
    direct = 0.5 * math.log2((v + chi) / (1.0 + chi))
    assert mutual_information(link, chi) == direct
    het = QkdLinkParams(transmissivity=0.5, v_a=4.0, detection="heterodyne")
    assert mutual_information(het, chi) == 2.0 * direct
    with pytest.raises(ValueError):
        mutual_information(link, -0.1)


def test_holevo_against_arbitrary_precision():
    points = [
        (_reference_link(), 1.01),
        (_detector_link(), key_rate(_detector_link()).chi_tot),
        (
            _detector_link(chi_det=2.5, detection="heterodyne"),
            key_rate(_detector_link(chi_det=2.5, detection="heterodyne")).chi_tot,
        ),
    ]
    for link, chi in points:
        assert holevo_bound(link, chi) == pytest.approx(
            _holevo_bound_mp(link, chi), abs=1e-12
        )


@pytest.mark.parametrize("transmissivity", [0.05, 0.5, 0.9])
@pytest.mark.parametrize("chi_det", [1e-17, 1e-12, 1e-8, 1e-6, 1e-4])
def test_small_homodyne_detector_noise_against_arbitrary_precision(transmissivity, chi_det):
    # 1 - eta is as small as T chi_det here, so it must not come from 1.0 - eta
    link = _detector_link(transmissivity=transmissivity, chi_det=chi_det)
    chi = key_rate(link).chi_tot
    assert holevo_bound(link, chi) == pytest.approx(_holevo_bound_mp(link, chi), abs=1e-12)


@pytest.mark.parametrize("transmissivity", [0.05, 0.5, 0.9])
@pytest.mark.parametrize("excess", [2e-12, 1e-9, 1e-7, 1e-5])
def test_heterodyne_just_above_vacuum_unit_against_arbitrary_precision(transmissivity, excess):
    link = _detector_link(
        transmissivity=transmissivity, chi_det=(1.0 + excess) / transmissivity,
        detection="heterodyne",
    )
    chi = key_rate(link).chi_tot
    assert holevo_bound(link, chi) == pytest.approx(_holevo_bound_mp(link, chi), abs=1e-12)


@pytest.mark.parametrize("transmissivity", [0.05, 0.5, 0.9])
def test_vanishing_detector_noise_approaches_the_noiseless_bound(transmissivity):
    noiseless = key_rate(_detector_link(transmissivity=transmissivity, chi_det=0.0)).holevo
    gaps = [
        abs(key_rate(_detector_link(transmissivity=transmissivity, chi_det=c)).holevo - noiseless)
        for c in (1e-4, 1e-6, 1e-8)
    ]
    # the gap is linear in chi_det
    assert gaps[0] > 50.0 * gaps[1] > 2500.0 * gaps[2] > 0.0
    tiny = key_rate(_detector_link(transmissivity=transmissivity, chi_det=1e-17)).holevo
    assert tiny == pytest.approx(noiseless, abs=1e-13)


def test_homodyne_trusted_frozen_point():
    link = _detector_link()
    assert holevo_bound(link, key_rate(link).chi_tot) == pytest.approx(
        0.4848939581770295, rel=1e-12
    )


def test_untrusted_detection_gives_eve_more():
    chi = key_rate(_detector_link()).chi_tot
    trusted = holevo_bound(_detector_link(), chi)
    untrusted = holevo_bound(_detector_link(trusted_detection=False), chi)
    assert untrusted == pytest.approx(0.8508074696251673, rel=1e-12)
    assert untrusted > trusted


def test_heterodyne_trusted_frozen_point():
    link = _detector_link(chi_det=2.5, detection="heterodyne")
    assert holevo_bound(link, key_rate(link).chi_tot) == pytest.approx(
        0.6238773109679279, rel=1e-12
    )


def test_heterodyne_vacuum_unit_is_free_for_eve():
    # chi_det = 1/T is the intrinsic heterodyne vacuum unit; modelled
    # explicitly it leaves the bound exactly at the idealized chi_det = 0 value.
    unit = _detector_link(chi_det=1.0 / 0.6, detection="heterodyne")
    zero = _detector_link(chi_det=0.0, detection="heterodyne")
    got_unit = holevo_bound(unit, key_rate(unit).chi_tot)
    got_zero = holevo_bound(zero, key_rate(zero).chi_tot)
    assert got_unit == got_zero == pytest.approx(0.7200414394482488, rel=1e-12)


def test_heterodyne_rejects_sub_vacuum_detector_noise():
    link = _detector_link(chi_det=0.5, detection="heterodyne")
    with pytest.raises(ValueError, match="chi_det >= 1/T"):
        holevo_bound(link, chi_line(0.6) + 0.02 + 0.5)


def test_chi_tot_must_contain_trusted_chi_det():
    with pytest.raises(ValueError, match="must contain"):
        holevo_bound(_detector_link(), 0.1)


def test_phase_noise_params_validation():
    with pytest.raises(ValueError):
        PhaseNoiseParams(sigma_phi0_sq=-1e-4)
    with pytest.raises(ValueError):
        PhaseNoiseParams(predictor="quadratic")


def test_estimator_inflation_and_drift_forms():
    p = PhaseNoiseParams(
        sigma_phi0_sq=1e-4, c_factor=3924.0, gamma=1e-5, epsilon=1e-3,
        t_window=2.0, t_pilot=0.5, dt=0.1,
    )
    assert residual_drift(p) == p.gamma * (2.0 * p.t_pilot * p.dt + p.dt * p.dt)
    linear = PhaseNoiseParams(
        sigma_phi0_sq=1e-4, c_factor=3924.0, gamma=1e-5, epsilon=1e-3,
        t_window=2.0, t_pilot=0.5, dt=0.1, predictor="linear",
    )
    assert residual_drift(linear) == linear.gamma * (linear.dt * linear.dt)


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(0.0, 1.0),
    t_pilot=st.floats(0.0, 10.0),
    dt=st.floats(0.0, 1.0),
)
# a subnormal gamma where (gamma dt) dt rounds above gamma (dt dt)
@example(gamma=5e-324, t_pilot=0.0, dt=0.625)
def test_linear_predictor_never_loses(gamma, t_pilot, dt):
    zoh = PhaseNoiseParams(gamma=gamma, t_pilot=t_pilot, dt=dt, predictor="zoh")
    lin = PhaseNoiseParams(gamma=gamma, t_pilot=t_pilot, dt=dt, predictor="linear")
    # both scale the rounded dt^2 term by gamma last, and rounding is monotone
    assert residual_drift(lin) <= residual_drift(zoh)


def test_addendum_identity_and_zero_case():
    link = _detector_link()
    p = PhaseNoiseParams(
        sigma_phi0_sq=1e-4, c_factor=3924.0, gamma=1e-5, epsilon=1e-3,
        t_window=2.0, t_pilot=0.5, dt=0.1,
    )
    inflation = p.sigma_phi0_sq * 2.0 * p.c_factor * p.epsilon**2 * p.t_window**2
    drift = residual_drift(p)
    expected = (inflation + drift * drift) * (link.v_a + 1.0 / link.transmissivity)
    assert delta_xi_rel(p, link) == pytest.approx(expected, rel=1e-14)
    off = PhaseNoiseParams(
        sigma_phi0_sq=1e-4, c_factor=3924.0, gamma=0.0, epsilon=0.0,
        t_window=2.0, t_pilot=0.5, dt=0.1,
    )
    assert delta_xi_rel(off, link) == 0.0


@pytest.mark.parametrize("epsilon, rounded", [(1.5e-10, 2.7e-20), (1e-8, 1.2e-16)])
def test_small_epsilon_addendum_against_exact_arithmetic(epsilon, rounded):
    # sigma_phi0^2 (1 + 2 C eps^2 t^2) - sigma_phi0^2 loses the term to cancellation
    link = QkdLinkParams(transmissivity=0.5, v_a=4.0, xi_base=0.01)
    p = PhaseNoiseParams(sigma_phi0_sq=1e-5, c_factor=100.0, epsilon=epsilon, t_window=10.0)
    s0, c, eps, t = (Fraction(x) for x in (p.sigma_phi0_sq, p.c_factor, p.epsilon, p.t_window))
    exact = 2 * c * eps**2 * t**2 * s0 * (Fraction(link.v_a) + 1 / Fraction(link.transmissivity))
    # abs=0: pytest.approx's default absolute tolerance of 1e-12 would pass any tiny value
    assert float(exact) == pytest.approx(rounded, rel=1e-12, abs=0.0)
    assert delta_xi_rel(p, link) == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def test_chi_total_composition():
    link = _detector_link()
    p = PhaseNoiseParams(
        sigma_phi0_sq=1e-4, c_factor=3924.0, gamma=1e-5, epsilon=1e-3,
        t_window=2.0, t_pilot=0.5, dt=0.1,
    )
    plain = key_rate(link)
    assert plain.chi_line == chi_line(0.6)
    assert plain.delta_xi_rel == 0.0
    assert plain.chi_tot == chi_line(0.6) + 0.02 + 0.2
    budget = key_rate(link, p)
    assert budget.delta_xi_rel == delta_xi_rel(p, link)
    assert budget.chi_tot == pytest.approx(
        chi_line(0.6) + 0.02 + 0.2 + delta_xi_rel(p, link), rel=1e-15
    )


def test_small_angle_noise_projection():
    assert delta_xi_phase(1e-3, 0.6, 4.0) == pytest.approx(1e-3 * (4.0 + 1.0 / 0.6), rel=1e-15)
    with pytest.raises(ValueError):
        delta_xi_phase(-1e-3, 0.6, 4.0)


def test_key_rate_clamp():
    lossy = QkdLinkParams(transmissivity=0.5, v_a=4.0, xi_base=0.5, beta=0.95)
    budget = key_rate(lossy)
    assert budget.key_rate < 0.0
    assert budget.key_rate_clamped == 0.0
    direct = KeyRateBudget(
        chi_line=1.0, delta_xi_rel=0.0, chi_tot=1.0, i_ab=0.5, holevo=0.6,
        key_rate=-0.1,
    )
    assert direct.key_rate_clamped == 0.0


def test_rotation_penalty_monte_carlo():
    link = _detector_link()
    sim = simulate_rotation_penalty(link, 1e-3, 200_000, RNG)
    assert sim == pytest.approx(delta_xi_phase(1e-3, 0.6, 4.0), rel=0.02)
    with pytest.raises(ValueError):
        simulate_rotation_penalty(link, 1e-3, 0, RNG)
    with pytest.raises(ValueError):
        simulate_rotation_penalty(link, -1e-3, 10, RNG)
