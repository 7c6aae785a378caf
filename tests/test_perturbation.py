import numpy as np
import pytest

from relqsl.fock_core import build_hamiltonian, diagonalize
from relqsl.perturbation import energy, level_spacing

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


def test_spectrum_residual_is_second_order():
    """First-order energies track dense eigenvalues with an O(eps^2) defect."""
    eps = 1e-3
    spec = diagonalize(build_hamiltonian(256, eps))
    for n in range(11):
        assert abs(spec.eigenvalues[n] - energy(n, eps)) <= 100.0 * eps * eps


def test_level_spacing_slope():
    assert level_spacing(1, 1e-3) == pytest.approx(0.999625, rel=1e-14)
    for n in (1, 2, 7):
        eps = 2e-3
        slope = (level_spacing(n, eps) - 1.0) / (n * eps)
        assert slope == pytest.approx(-0.375, rel=1e-10)
    with pytest.raises(ValueError):
        level_spacing(0, 1e-3)
