"""Balanced-homodyne statistics and the trap Allan-deviation budget."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from relqsl import homodyne_trap, selfcheck
from relqsl.homodyne_trap import (
    ELECTRON_MASS,
    INT16_MAX_PORT_MEAN,
    PLANCK_H,
    REFERENCE_SHOT_NOISE_1S,
    SHOT_CHUNK,
    SPEED_OF_LIGHT,
    BhdConfig,
    TrapConfig,
    allan_relativistic,
    allan_shot_noise,
    crossover_closed,
    crossover_numeric,
    epsilon_from_trap,
    i_diff_mean,
    i_diff_mean_slope,
    i_diff_variance,
    phase_sensitivity,
    sensitivity_bracket_c,
    simulate_i_diff,
)

RNG = np.random.default_rng(42)

# reference 149 GHz / 1 mW electron trap with kappa = 200
EXPECTED_TRAP = {
    "epsilon": 1.5073770867001796e-10,
    "crossover_closed_s": 865.0455666694274,
    "crossover_numeric_s": 0.022251150905136772,
    "allan_shot_noise_1s": 1.6781277400152137e-22,
}


def _reference_trap() -> TrapConfig:
    return TrapConfig(
        nu=149e9,
        p_lo=1e-3,
        kappa=200.0,
        epsilon=epsilon_from_trap(149e9, ELECTRON_MASS),
    )


def test_difference_intensity_moments():
    cfg = BhdConfig(alpha_s=2.0, alpha_lo_mag=3.0, delta_psi=math.pi / 3.0)
    assert i_diff_mean(cfg) == pytest.approx(6.0, rel=1e-14)
    assert i_diff_variance(cfg) == 13.0
    assert i_diff_mean_slope(cfg) == pytest.approx(-12.0 * math.sin(math.pi / 3.0), rel=1e-14)
    # default operating point pi/2: zero mean, maximal slope
    balanced = BhdConfig(alpha_s=2.0, alpha_lo_mag=3.0)
    assert abs(i_diff_mean(balanced)) < 1e-15
    assert i_diff_mean_slope(balanced) == -12.0


def test_config_validation():
    with pytest.raises(ValueError):
        BhdConfig(alpha_s=0.0, alpha_lo_mag=1.0)
    with pytest.raises(ValueError):
        BhdConfig(alpha_s=1.0, alpha_lo_mag=-2.0)
    with pytest.raises(ValueError):
        TrapConfig(nu=1e9, p_lo=1e-3, kappa=1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        TrapConfig(nu=-1e9, p_lo=1e-3, kappa=1.0, epsilon=1e-10)


def test_simulated_counts_match_moments():
    cfg = BhdConfig(alpha_s=2.0, alpha_lo_mag=3.0, delta_psi=math.pi / 3.0)
    shots = 200_000
    samples = simulate_i_diff(cfg, shots, RNG)
    mu = i_diff_mean(cfg)
    sig2 = i_diff_variance(cfg)
    se_mean = math.sqrt(sig2 / shots)
    # Var(s^2) for a difference of Poissons: (sigma^2 + 2 sigma^4) / N
    se_var = math.sqrt((sig2 + 2.0 * sig2 * sig2) / shots)
    assert abs(samples.mean() - mu) <= 3.0 * se_mean
    assert abs(samples.var(ddof=1) - sig2) <= 3.0 * se_var
    with pytest.raises(ValueError):
        simulate_i_diff(cfg, 0, RNG)


MC_SHOTS = 1_000_000
MIB = 2**20


def _traced_peak(fn, *args):
    """Return fn(*args) and the tracemalloc peak while it ran (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _whole_port_draws(cfg: BhdConfig, shots: int, seed: int) -> np.ndarray:
    """Reference counts: both ports drawn in full as int64, then subtracted."""
    rng = np.random.default_rng(seed)
    lam_plus = (i_diff_variance(cfg) + i_diff_mean(cfg)) / 2.0
    lam_minus = (i_diff_variance(cfg) - i_diff_mean(cfg)) / 2.0
    return rng.poisson(lam_plus, shots) - rng.poisson(lam_minus, shots)


def _assert_same_sample(samples: np.ndarray, expected: np.ndarray) -> None:
    """Equal values, and mean and sample variance equal bit for bit."""
    assert np.array_equal(samples, expected)
    assert samples.mean().tobytes() == expected.mean().tobytes()
    if samples.size > 1:
        assert samples.var(ddof=1).tobytes() == expected.var(ddof=1).tobytes()


def test_simulated_counts_are_the_port_difference_in_two_arrays():
    cfg = BhdConfig(alpha_s=2.0, alpha_lo_mag=3.0, delta_psi=math.pi / 3.0)
    samples, peak = _traced_peak(simulate_i_diff, cfg, MC_SHOTS, np.random.default_rng(11))
    # int16 counts hold the same sample as the float64 difference of two whole draws
    expected = _whole_port_draws(cfg, MC_SHOTS, 11).astype(float)
    assert samples.dtype == np.int16
    _assert_same_sample(samples, expected)
    # the int16 counts plus a few int64 draw chunks
    assert peak <= 2 * MC_SHOTS + 2 * MIB


@pytest.mark.parametrize("shots", [1, SHOT_CHUNK - 1, SHOT_CHUNK, SHOT_CHUNK + 1, 1_000_003])
def test_chunked_draws_equal_whole_port_draws(shots):
    cfg = BhdConfig(alpha_s=2.0, alpha_lo_mag=3.0, delta_psi=math.pi / 2.0)
    samples = simulate_i_diff(cfg, shots, np.random.default_rng(977))
    assert samples.dtype == np.int16
    _assert_same_sample(samples, _whole_port_draws(cfg, shots, 977).astype(float))


def test_large_port_means_are_drawn_into_int64():
    # port means about 4.5e4: int16 photocounts would wrap, so the counts stay int64
    cfg = BhdConfig(alpha_s=2.0, alpha_lo_mag=300.0, delta_psi=math.pi / 3.0)
    assert (i_diff_variance(cfg) - i_diff_mean(cfg)) / 2.0 > np.iinfo(np.int16).max
    shots = 3 * SHOT_CHUNK + 5
    samples = simulate_i_diff(cfg, shots, np.random.default_rng(5))
    expected = _whole_port_draws(cfg, shots, 5)
    assert samples.dtype == expected.dtype == np.int64
    _assert_same_sample(samples, expected)


class _HugeCounts:
    """A generator stand-in whose photocounts overflow int16."""

    def poisson(self, lam, size):
        return np.full(size, 40_000)


def test_out_of_range_counts_raise_instead_of_wrapping():
    cfg = BhdConfig(alpha_s=2.0, alpha_lo_mag=3.0, delta_psi=math.pi / 2.0)
    port_mean = (i_diff_variance(cfg) + i_diff_mean(cfg)) / 2.0
    assert port_mean <= INT16_MAX_PORT_MEAN
    with pytest.raises(ArithmeticError, match=f"photocount of 40000 at port mean {port_mean!r}"):
        simulate_i_diff(cfg, 10, _HugeCounts())


def test_homodyne_mc_check_holds_two_shot_arrays_at_most():
    assert selfcheck.MC_SHOTS == MC_SHOTS
    zscores, peak = _traced_peak(selfcheck._homodyne_zscores, np.random.default_rng(42))
    assert selfcheck._homodyne_entry(zscores).passed
    # var's float64 deviation array plus the int16 counts
    assert peak <= 10 * MC_SHOTS + MIB


def test_sensitivity_bracket_and_base_identity():
    cfg = BhdConfig(alpha_s=3.0, alpha_lo_mag=3.0)
    assert sensitivity_bracket_c(cfg) == 3924.0
    base = phase_sensitivity(cfg, 5.0, 0.0)
    assert base == math.sqrt(i_diff_variance(cfg)) / abs(i_diff_mean_slope(cfg))
    assert base == pytest.approx(0.2357022603955158, rel=1e-14)


def test_sensitivity_penalty_frozen_point():
    cfg = BhdConfig(alpha_s=3.0, alpha_lo_mag=3.0)
    assert phase_sensitivity(cfg, 2.0, 1e-3) == pytest.approx(0.23940184307468382, rel=1e-13)
    # penalty is even in epsilon and quadratic in t
    up = phase_sensitivity(cfg, 2.0, 1e-3) - phase_sensitivity(cfg, 2.0, 0.0)
    up_half = phase_sensitivity(cfg, 1.0, 1e-3) - phase_sensitivity(cfg, 1.0, 0.0)
    assert up / up_half == pytest.approx(4.0, rel=1e-10)
    assert phase_sensitivity(cfg, 2.0, -1e-3) == phase_sensitivity(cfg, 2.0, 1e-3)


def test_sensitivity_rejects_zero_slope_point():
    cfg = BhdConfig(alpha_s=1.0, alpha_lo_mag=1.0, delta_psi=0.0)
    with pytest.raises(ValueError, match="slope vanishes"):
        phase_sensitivity(cfg, 1.0, 0.0)
    with pytest.raises(ValueError):
        phase_sensitivity(BhdConfig(alpha_s=1.0, alpha_lo_mag=1.0), -1.0, 0.0)


def test_allan_power_laws_are_exact():
    trap = _reference_trap()
    assert allan_shot_noise(trap, 4.0) / allan_shot_noise(trap, 1.0) == 0.125
    assert allan_relativistic(trap, 2.0) / allan_relativistic(trap, 1.0) == 2.0
    with pytest.raises(ValueError):
        allan_shot_noise(trap, 0.0)
    with pytest.raises(ValueError):
        allan_relativistic(trap, -1.0)


def test_reference_trap_frozen_numbers():
    trap = _reference_trap()
    assert trap.epsilon == pytest.approx(EXPECTED_TRAP["epsilon"], rel=1e-13, abs=0)
    assert crossover_closed(trap) == pytest.approx(EXPECTED_TRAP["crossover_closed_s"], rel=1e-12)
    assert crossover_numeric(trap) == pytest.approx(
        EXPECTED_TRAP["crossover_numeric_s"], rel=1e-9
    )
    assert allan_shot_noise(trap, 1.0) == pytest.approx(
        EXPECTED_TRAP["allan_shot_noise_1s"], rel=1e-13, abs=0
    )
    assert REFERENCE_SHOT_NOISE_1S == 5.3e-22


def test_crossover_numeric_follows_analytic_rescaling():
    # Equating the two Allan branches directly differs from the closed form
    # by exactly (2 nu)^(-2/5); at 2 nu = 1 the two coincide.
    trap = _reference_trap()
    rescaled = crossover_closed(trap) * (2.0 * trap.nu) ** -0.4
    assert crossover_numeric(trap) == pytest.approx(rescaled, rel=1e-9)
    synthetic = TrapConfig(nu=0.5, p_lo=1e-3, kappa=1.0, epsilon=1e-3)
    assert crossover_numeric(synthetic) == pytest.approx(crossover_closed(synthetic), rel=1e-8)


@pytest.mark.parametrize("k", [4.0, 0.01])
def test_one_planck_constant_for_epsilon_and_shot_noise(monkeypatch, k):
    trap = _reference_trap()
    epsilon, shot = epsilon_from_trap(149e9, ELECTRON_MASS), allan_shot_noise(trap, 1.0)
    monkeypatch.setattr(homodyne_trap, "PLANCK_H", k * PLANCK_H)
    assert epsilon_from_trap(149e9, ELECTRON_MASS) == pytest.approx(k * epsilon, rel=1e-15, abs=0)
    assert allan_shot_noise(trap, 1.0) == pytest.approx(math.sqrt(k) * shot, rel=1e-15, abs=0)


def test_crossover_sits_between_the_branches():
    trap = _reference_trap()
    tau = crossover_numeric(trap)
    assert allan_shot_noise(trap, tau) == pytest.approx(
        allan_relativistic(trap, tau), rel=1e-8, abs=0
    )
    # shot noise dominates before the crossover, drift after
    assert allan_shot_noise(trap, tau / 10) > allan_relativistic(trap, tau / 10)
    assert allan_shot_noise(trap, tau * 10) < allan_relativistic(trap, tau * 10)


def _scipy_crossover(trap: TrapConfig) -> float:
    """crossover_numeric as it was solved with scipy.optimize.bisect."""
    from scipy.optimize import bisect

    def gap(log10_tau: float) -> float:
        tau = 10.0**log10_tau
        return allan_shot_noise(trap, tau) - allan_relativistic(trap, tau)

    return 10.0 ** bisect(gap, -6.0, 12.0, xtol=2e-11)


def test_inline_bisection_equals_scipy_bisect_bit_for_bit():
    trap = _reference_trap()
    assert crossover_numeric(trap) == EXPECTED_TRAP["crossover_numeric_s"]
    assert crossover_numeric(trap) == _scipy_crossover(trap)
    rng = np.random.default_rng(20240611)
    compared = 0
    while compared < 1000:
        # log-uniform nu, p_lo, kappa, epsilon; keep brackets that change sign
        nu, p_lo, kappa, epsilon = 10.0 ** rng.uniform([3, -9, -3, -16], [13, 1, 6, -2])
        trap = TrapConfig(nu=nu, p_lo=p_lo, kappa=kappa, epsilon=epsilon)
        try:
            got = crossover_numeric(trap)
        except ValueError as exc:
            assert "no crossover" in str(exc)
            continue
        assert got == _scipy_crossover(trap), trap
        compared += 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda trap: allan_shot_noise(trap, 1e-300),
         "allan_shot_noise: result inf is not finite at nu=149000000000.0, p_lo=0.001, "
         "kappa=200.0, epsilon=1e-10, tau=1e-300"),
        (lambda trap: allan_relativistic(replace(trap, epsilon=1e200), 1.0),
         "allan_relativistic: result inf is not finite at nu=149000000000.0, p_lo=0.001, "
         "kappa=200.0, epsilon=1e+200, tau=1.0"),
        (lambda trap: crossover_closed(replace(trap, epsilon=1e-200)),
         "crossover_closed: result inf is not finite at nu=149000000000.0, p_lo=0.001, "
         "kappa=200.0, epsilon=1e-200"),
        (lambda trap: crossover_numeric(replace(trap, epsilon=1e200)),
         "crossover_numeric: result inf is not finite at nu=149000000000.0, p_lo=0.001, "
         "kappa=200.0, epsilon=1e+200"),
        # both branches overflow, so the gap is inf - inf
        (lambda trap: crossover_numeric(replace(trap, nu=1e300, p_lo=5e-324, kappa=1e300,
                                                epsilon=1e5)),
         "crossover_numeric: result inf is not finite at nu=1e+300, p_lo=5e-324, "
         "kappa=1e+300, epsilon=100000.0"),
    ],
)
def test_overflow_names_the_function_and_its_inputs(call, message):
    trap = TrapConfig(nu=149e9, p_lo=1e-3, kappa=200.0, epsilon=1e-10)
    with pytest.raises(ValueError) as raised:
        call(trap)
    assert str(raised.value) == message


def test_epsilon_from_trap():
    got = epsilon_from_trap(149e9, ELECTRON_MASS)
    direct = PLANCK_H * 149e9 / (8.0 * ELECTRON_MASS * SPEED_OF_LIGHT**2)
    assert got == direct
    assert epsilon_from_trap(0.0, ELECTRON_MASS) == 0.0
    with pytest.raises(ValueError):
        epsilon_from_trap(1e9, 0.0)


def test_si_constants():
    assert PLANCK_H == 6.62607015e-34
    assert SPEED_OF_LIGHT == 299792458.0
    assert ELECTRON_MASS == 9.1093837015e-31
