import math

import numpy as np
import pytest

from relqsl import perturbation
from relqsl.fock_core import build_hamiltonian, diagonalize
from relqsl.perturbation import (
    energy,
    level_spacing,
    mixing_coefficients,
    perturbed_eigenstate,
    phase_aligned_column,
)

# first-order level energies, checked by hand from n + 1/2 - eps(6n^2+6n+3)/32
EXPECTED_ENERGIES = {
    (0, 1e-3): 0.49990625,
    (1, 1e-3): 1.49953125,
    (3, 0.01): 3.4765625,
    (10, 0.0): 10.5,
}


def test_energy_closed_form():
    for (n, eps), expected in EXPECTED_ENERGIES.items():
        assert energy(n, eps) == pytest.approx(expected, rel=1e-15)


def test_energy_vectorized():
    ns = np.arange(6)
    got = energy(ns, 1e-3)
    ref = np.array([energy(int(n), 1e-3) for n in ns])
    assert np.array_equal(got, ref)


def test_mixing_coefficients_low_levels():
    c0 = mixing_coefficients(0)
    assert c0.b4 == pytest.approx(-math.sqrt(24.0) / 4.0, rel=1e-15)
    assert c0.b2 == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-15)
    assert c0.bm2 == 0.0
    assert c0.bm4 == 0.0
    c2 = mixing_coefficients(2)
    assert c2.bm2 == pytest.approx(-3.0 * math.sqrt(2.0), rel=1e-15)
    assert c2.bm4 == 0.0
    c4 = mixing_coefficients(4)
    assert c4.bm4 == pytest.approx(math.sqrt(24.0) / 4.0, rel=1e-15)
    with pytest.raises(ValueError):
        mixing_coefficients(-1)


def test_spectrum_residual_is_second_order():
    """First-order energies track dense eigenvalues with an O(eps^2) defect."""
    eps = 1e-3
    spec = diagonalize(build_hamiltonian(256, eps))
    for n in range(11):
        assert abs(spec.eigenvalues[n] - energy(n, eps)) <= 100.0 * eps * eps


def test_perturbed_eigenstate_matches_exact_eigenvector():
    dim = 512
    eps = 1e-3
    spec = diagonalize(build_hamiltonian(dim, eps))
    for n in (0, 1, 5):
        approx = perturbed_eigenstate(n, eps, dim)
        exact = phase_aligned_column(spec, n)
        overlap = abs(np.vdot(exact, approx.amps))
        assert overlap >= 1.0 - 1e-6


def test_perturbed_eigenstate_cutoff_guard():
    with pytest.raises(ValueError):
        perturbed_eigenstate(5, 1e-3, 8)


def test_level_spacing_slope():
    assert level_spacing(1, 1e-3) == pytest.approx(0.999625, rel=1e-14)
    for n in (1, 2, 7):
        eps = 2e-3
        slope = (level_spacing(n, eps) - 1.0) / (n * eps)
        assert slope == pytest.approx(-0.375, rel=1e-10)
    with pytest.raises(ValueError):
        level_spacing(0, 1e-3)


def test_phase_aligned_column_convention():
    spec = diagonalize(build_hamiltonian(64, 1e-3))
    col = phase_aligned_column(spec, 3)
    pivot = col[3]
    assert pivot.imag == pytest.approx(0.0, abs=1e-12)
    assert pivot.real > 0
