"""Acceptance battery: one printed verdict line per criterion.

Each test prints its verdict before asserting, so the per-criterion lines
survive a failure. Run `pytest tests/test_acceptance.py -s` to see them for
passing criteria too.
"""

import math

import numpy as np
import pytest

from relqsl import config, fock_core, homodyne_trap, presets, qsl_bounds
from relqsl.selfcheck import (
    _halving,
    counting_zscores,
    error_propagation_identity,
    fidelity_residuals,
    level_residuals,
    moment_residuals,
    run_selfcheck,
)

SPECTRUM_DIM = 512
SPECTRUM_EPS_PAIR = (1e-3, 5e-4)
RATIO_WINDOW = (3.4, 4.6)

FIDELITY_EPS_PAIR = (1e-4, 5e-5)
FIDELITY_AMPLITUDES = (0.5, 1.0, 1.5, 2.0)
FIDELITY_TIMES = (np.arange(1, 61) * 0.1).tolist()
FIDELITY_CAP = 5.0
SCALING_FLOOR = 1e-13

MC_SHOTS = 1_000_000


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def spectra512():
    """Exact spectral decomposition at dim 512 for both halving epsilons."""
    return {
        eps: fock_core.diagonalize(fock_core.build_hamiltonian(SPECTRUM_DIM, eps))
        for eps in SPECTRUM_EPS_PAIR
    }


def test_criterion_1_trap_reference_numbers():
    trap, _ = homodyne_trap.trap_config(config.defaults()["trap"])
    eps_dev = abs(trap.epsilon - 1.5e-10) / 1.5e-10
    crossover = homodyne_trap.crossover_closed(trap)
    cross_dev = abs(crossover - 8.7e2) / 8.7e2
    ok = eps_dev <= 0.01 and cross_dev <= 0.02
    assert _verdict(
        1,
        ok,
        f"epsilon={trap.epsilon:.6e} ({eps_dev * 100:.2f}% from 1.5e-10), "
        f"crossover={crossover:.4f} s ({cross_dev * 100:.2f}% from 8.7e2)",
    )


def test_criterion_2_spectrum_residual_quartering(spectra512):
    ratios, ok = _halving(level_residuals(spectra512), cap=False)
    assert _verdict(
        2,
        ok,
        f"n=0..10 at dim={SPECTRUM_DIM}: residual ratio range "
        f"[{ratios.min():.4f}, {ratios.max():.4f}] vs window {list(RATIO_WINDOW)}",
    )


def _fidelity_scan(kind: str):
    """Max |closed - oracle| / eps^2 and the quadratic-scaling ratio range."""
    bound = qsl_bounds.mt_coherent if kind == "coherent" else qsl_bounds.mt_squeezed
    max_excess = 0.0
    ratio_lo, ratio_hi = math.inf, -math.inf
    for par in FIDELITY_AMPLITUDES:
        times = [t for t in FIDELITY_TIMES if not bound(par, t, 0.0).near_revival]
        diffs = fidelity_residuals(kind, par, times, FIDELITY_EPS_PAIR)
        for e, diff in diffs.items():
            max_excess = max(max_excess, float(np.max(diff / (e * e))))
        big, small = (diffs[e] for e in FIDELITY_EPS_PAIR)
        kept = small >= SCALING_FLOOR
        ratios = (big[kept] / small[kept]).tolist()
        ratio_lo, ratio_hi = min(ratio_lo, *ratios), max(ratio_hi, *ratios)
    return max_excess, ratio_lo, ratio_hi


def test_criterion_3_fidelity_oracle_cap_and_scaling():
    coh_excess, coh_lo, coh_hi = _fidelity_scan("coherent")
    sq_excess, sq_lo, sq_hi = _fidelity_scan("squeezed")
    caps_ok = coh_excess <= FIDELITY_CAP and sq_excess <= FIDELITY_CAP
    scaling_ok = (
        RATIO_WINDOW[0] <= coh_lo
        and coh_hi <= RATIO_WINDOW[1]
        and RATIO_WINDOW[0] <= sq_lo
        and sq_hi <= RATIO_WINDOW[1]
    )
    ok = caps_ok and scaling_ok
    assert _verdict(
        3,
        ok,
        f"max |closed-oracle| = {coh_excess:.1f} eps^2 (coherent), "
        f"{sq_excess:.1f} eps^2 (squeezed) vs cap {FIDELITY_CAP} eps^2; "
        f"quadratic-scaling ratios in [{min(coh_lo, sq_lo):.3f}, {max(coh_hi, sq_hi):.3f}]",
    )


def test_criterion_4_moment_oracle(spectra512):
    cases = [
        ("coherent", 1.0), ("coherent", 2.0),
        ("squeezed", 0.5), ("squeezed", 1.0),
    ]
    ratios = np.concatenate(
        [_halving(moment_residuals(spectra512, kind, par), cap=False)[0] for kind, par in cases]
    )
    ratio_lo, ratio_hi = ratios.min(), ratios.max()
    ok = RATIO_WINDOW[0] <= ratio_lo and ratio_hi <= RATIO_WINDOW[1]
    assert _verdict(
        4,
        ok,
        f"energy mean/variance residual ratios on constructed states in "
        f"[{ratio_lo:.4f}, {ratio_hi:.4f}] vs window {list(RATIO_WINDOW)}",
    )


@pytest.fixture(scope="module")
def selfcheck42():
    """One selfcheck run: criteria 5-7 read its checks, criterion 9 its discrepancies."""
    return run_selfcheck(42)


def _checks(report, *names):
    by_name = {c.name: c for c in report.checks}
    return [by_name[name] for name in names]


def test_criterion_5_squeezed_gaps_positive_and_monotone(selfcheck42):
    (gaps,) = _checks(selfcheck42, "squeezed_bound_gap_monotone")
    assert _verdict(
        5,
        gaps.passed,
        f"t-averaged corrected-minus-zeroth gaps: min {gaps.measured['min_gap']:.6e}, "
        f"min increment over r {gaps.measured['min_step']:.6e}",
    )


def test_criterion_6_squeeze_factor_never_drops(selfcheck42):
    (lift,) = _checks(selfcheck42, "squeeze_factor_lift")
    points = math.prod(axis.values().size for axis in presets.PRESETS["fig4"].axes)
    assert _verdict(
        6,
        lift.passed,
        f"squeeze-factor lift on {points} grid points: "
        f"min {lift.measured['min_lift_db']:.4f} dB, max {lift.measured['max_lift_db']:.4f} dB",
    )


def test_criterion_7_qkd_addendum_properties(selfcheck42):
    slope, margin, zero = _checks(
        selfcheck42,
        "qkd_noise_monotonicity", "qkd_predictor_dominance", "qkd_zero_epsilon_addendum",
    )
    assert _verdict(
        7,
        slope.passed and margin.passed and zero.passed,
        f"max dK/dxi = {slope.measured['max_dk_dxi']:.4f} on the 5x5x5 grid; linear-vs-zoh "
        f"min margin {margin.measured['min_margin']:.3e}; "
        f"addendum at eps=gamma=0 is {zero.measured['addendum']!r}",
    )


def test_criterion_8_counting_statistics_and_identity():
    cfg = homodyne_trap.BhdConfig(alpha_s=3.0, alpha_lo_mag=3.0, delta_psi=math.pi / 3.0)
    z_mean, z_var = counting_zscores(cfg, MC_SHOTS, np.random.default_rng(42))
    identity = all(
        error_propagation_identity(c, 7.3)[1]
        for c in (
            cfg,
            homodyne_trap.BhdConfig(alpha_s=3.0, alpha_lo_mag=3.0),
            homodyne_trap.BhdConfig(alpha_s=1.0, alpha_lo_mag=4.0, delta_psi=1.1),
        )
    )
    ok = z_mean <= 3.0 and z_var <= 3.0 and identity
    assert _verdict(
        8,
        ok,
        f"{MC_SHOTS} shots: z_mean={z_mean:.3f}, z_var={z_var:.3f} (limit 3); "
        f"epsilon=0 sensitivity bitwise equals the error-propagation quotient: {identity}",
    )


def test_criterion_9_selfcheck_reports_known_discrepancies(selfcheck42):
    by_name = {d.name: d.values for d in selfcheck42.discrepancies}
    spacing_ok = (
        "level_spacing_rules" in by_name
        and by_name["level_spacing_rules"]["first_order"]
        != by_name["level_spacing_rules"]["quoted_rule"]
    )
    shot_ok = (
        "shot_noise_reference_value" in by_name
        and by_name["shot_noise_reference_value"]["computed_1s"] > 0.0
        and by_name["shot_noise_reference_value"]["reference_1s"] == 5.3e-22
    )
    ml_ok = (
        "ml_normalization_variants" in by_name
        and by_name["ml_normalization_variants"]["adopted"]
        != by_name["ml_normalization_variants"]["variant_half"]
    )
    ok = spacing_ok and shot_ok and ml_ok
    detail = "missing entries"
    if ok:
        spacing = by_name["level_spacing_rules"]
        shot = by_name["shot_noise_reference_value"]
        ml = by_name["ml_normalization_variants"]
        detail = (
            f"spacing {spacing['first_order']:.6f} vs {spacing['quoted_rule']:.6f}; "
            f"shot noise {shot['computed_1s']:.4e} vs {shot['reference_1s']:.1e}; "
            f"ml normalization {ml['adopted']:.6f} adopted over "
            f"{ml['variant_half']:.6f}/{ml['variant_pi']:.6f}"
        )
    assert _verdict(9, ok, detail)
