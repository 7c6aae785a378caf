"""Energy moments, Fisher-information helpers, squeeze factor."""

import math

import pytest

from relqsl.metrology import (
    EnergyMoments,
    SqueezeFactorPoint,
    coherent_energy,
    coherent_second_moment_closed,
    qcrb,
    qfi_time,
    squeeze_ratio,
    squeezed_energy,
    squeezed_second_moment_closed,
)

# (family, parameter, epsilon) -> (mean, variance)
EXPECTED_MOMENTS = {
    ("coherent", 1.0, 0.0): (1.5, 1.0),
    ("coherent", 1.0, 1e-3): (1.49934375, 0.9985),
    ("squeezed", 0.5, 0.0): (0.7715403174076219, 0.6905489227709077),
}


def test_frozen_energy_moments():
    for (family, par, eps), (mean, var) in EXPECTED_MOMENTS.items():
        fn = coherent_energy if family == "coherent" else squeezed_energy
        mom = fn(par, eps)
        assert mom.mean == pytest.approx(mean, rel=1e-12)
        assert mom.variance == pytest.approx(var, rel=1e-12)


def test_squeezed_moments_match_hyperbolic_forms():
    r = 0.5
    mom = squeezed_energy(r, 0.0)
    assert mom.mean == pytest.approx(math.cosh(2 * r) / 2, rel=1e-14)
    assert mom.variance == pytest.approx(math.sinh(2 * r) ** 2 / 2, rel=1e-13)


def test_second_moment_is_self_consistent():
    for mom in (coherent_energy(1.3, 1e-3), squeezed_energy(0.8, 1e-3)):
        assert mom.second == mom.mean * mom.mean + mom.variance


def test_moments_variance_clamp_and_rejection():
    clamped = EnergyMoments(mean=1.0, variance=-1e-13)
    assert clamped.variance == 0.0
    assert clamped.second == 1.0
    with pytest.raises(ValueError, match="beyond tolerance"):
        EnergyMoments(mean=1.0, variance=-1e-9)


def test_printed_second_moment_agrees_to_quadratic_order():
    # The standalone <H^2> series and mean^2 + variance differ exactly at
    # O(eps^2): the gap shrinks fourfold when eps halves.
    eps = 1e-3
    for alpha0 in (0.5, 1.0, 2.0):
        gap = abs(coherent_second_moment_closed(alpha0, eps) - coherent_energy(alpha0, eps).second)
        gap_half = abs(
            coherent_second_moment_closed(alpha0, eps / 2) - coherent_energy(alpha0, eps / 2).second
        )
        assert gap <= 25.0 * eps * eps
        assert gap / gap_half == pytest.approx(4.0, rel=1e-3)
    for r in (0.3, 0.5, 1.0):
        gap = abs(squeezed_second_moment_closed(r, eps) - squeezed_energy(r, eps).second)
        gap_half = abs(
            squeezed_second_moment_closed(r, eps / 2) - squeezed_energy(r, eps / 2).second
        )
        assert gap <= 25.0 * eps * eps
        assert gap / gap_half == pytest.approx(4.0, rel=1e-3)


def test_printed_second_moment_matches_at_zero_epsilon():
    for alpha0 in (0.5, 1.0, 2.0):
        assert coherent_second_moment_closed(alpha0, 0.0) == pytest.approx(
            coherent_energy(alpha0, 0.0).second, rel=1e-12
        )
    for r in (0.3, 0.5, 1.0):
        assert squeezed_second_moment_closed(r, 0.0) == pytest.approx(
            squeezed_energy(r, 0.0).second, rel=1e-12
        )


def test_moment_argument_validation():
    for moments in (coherent_energy, coherent_second_moment_closed):
        with pytest.raises(ValueError, match="^alpha0 must be non-negative$"):
            moments(-0.1, 0.0)
    for moments in (squeezed_energy, squeezed_second_moment_closed):
        with pytest.raises(ValueError, match="^r must be non-negative$"):
            moments(-0.1, 0.0)


def test_non_finite_moments_name_function_and_inputs():
    # sinh 2r sinh 4r overflows to inf first: the variance is -inf, not "negative"
    with pytest.raises(ValueError, match=r"^squeezed_energy: energy moments \(mean "
                       r".*, variance -inf\) are not finite at r=150.0, epsilon=0.01$"):
        squeezed_energy(150.0, 0.01)


def test_qfi_and_qcrb():
    assert qfi_time(1.0) == 4.0
    assert qfi_time(0.0) == 0.0
    assert qcrb(4.0) == 0.5
    var = coherent_energy(1.0, 1e-3).variance
    assert qcrb(qfi_time(var)) == pytest.approx(0.5 / math.sqrt(var), rel=1e-14)
    with pytest.raises(ValueError):
        qfi_time(-1e-6)
    with pytest.raises(ValueError, match="does not evolve"):
        qcrb(0.0)


def test_squeeze_ratio_uncorrected_is_exponential():
    assert squeeze_ratio(0.5, 0.0, 0.0, 0.0).ratio == math.exp(-1.0)
    assert squeeze_ratio(0.5, 1.0, math.pi / 3, 0.0).ratio == math.exp(-1.0)


def test_squeeze_ratio_frozen_corrected_point():
    point = squeeze_ratio(0.5, 1.0, 0.0, 0.08)
    assert point.ratio == pytest.approx(0.33105234438231557, rel=1e-12)
    assert point.sf_db == pytest.approx(4.801033322693031, rel=1e-12)


def test_squeeze_factor_point_fields():
    point = SqueezeFactorPoint(ratio=0.25)
    assert point.sf_db == pytest.approx(-10.0 * math.log10(0.25), rel=1e-14)
    with pytest.raises(ValueError):
        SqueezeFactorPoint(ratio=0.0)
    with pytest.raises(ValueError):
        squeeze_ratio(-0.1, 0.0, 0.0, 0.0)


def test_squeeze_ratio_validity_guards():
    with pytest.warns(UserWarning, match="first-order validity"):
        squeeze_ratio(1.5, 2.0, 0.0, 0.08)
    with pytest.raises(ValueError, match="non-positive"):
        squeeze_ratio(2.0, 0.0, 0.0, 0.5)
