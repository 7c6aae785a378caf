import math

import numpy as np
import pytest

from relqsl import fock_core
from relqsl.fock_core import (
    SpectralDecomposition,
    StateVector,
    TruncatedOperator,
    build_hamiltonian,
    build_ladder,
    build_quadratures,
    default_cutoff,
    diagonalize,
    evolve,
    expectation,
    hamiltonian_band,
    lowest_levels,
    variance,
)

DIM = 64

EXPECTED_CUTOFFS = {
    (0.0, 0.0): 256,
    (10.0, 0.0): 808,
    (0.0, 2.0): 1748,
}


def test_ladder_matrix_elements():
    a, adag = build_ladder(8)
    for n in range(1, 8):
        assert a.entries[n - 1, n] == pytest.approx(math.sqrt(n), rel=1e-15)
    # everything off the superdiagonal is exactly zero
    mask = np.ones((8, 8), dtype=bool)
    mask[np.arange(7), np.arange(1, 8)] = False
    assert np.all(a.entries[mask] == 0)
    assert np.array_equal(adag.entries, a.entries.conj().T)


def test_ladder_small_block():
    # top-left 3x3 block is the standard truncated annihilation matrix
    a, _ = build_ladder(8)
    block = a.entries[:3, :3]
    ref = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex)
    assert np.allclose(block, ref, atol=0, rtol=1e-15)


def test_commutator_is_identity_in_interior():
    a, adag = build_ladder(DIM)
    comm = a.entries @ adag.entries - adag.entries @ a.entries
    assert np.allclose(comm[: DIM - 1, : DIM - 1], np.eye(DIM - 1), atol=1e-12)
    # the last diagonal entry is the truncation artifact
    assert comm[DIM - 1, DIM - 1] == pytest.approx(1 - DIM)


def test_quadratures_hermitian_and_canonical():
    x, p = build_quadratures(DIM)
    assert x.is_hermitian()
    assert p.is_hermitian()
    comm = x.entries @ p.entries - p.entries @ x.entries
    assert np.allclose(comm[: DIM - 1, : DIM - 1], 1j * np.eye(DIM - 1), atol=1e-12)


def test_harmonic_spectrum_at_zero_epsilon():
    spec = diagonalize(build_hamiltonian(DIM, 0.0))
    interior = DIM // 4
    assert np.allclose(spec.eigenvalues[:interior], np.arange(interior) + 0.5, atol=1e-10)


def test_hamiltonian_hermitian_with_correction():
    h = build_hamiltonian(DIM, 0.01)
    assert h.is_hermitian()


def test_epsilon_validation():
    for build in (build_hamiltonian, hamiltonian_band, lambda d, e: lowest_levels(d, e, 4)):
        with pytest.raises(ValueError):
            build(DIM, -1e-6)
        with pytest.warns(UserWarning):
            build(DIM, 0.2)


def test_min_dim_enforced():
    with pytest.raises(ValueError):
        build_ladder(7)
    with pytest.raises(ValueError):
        TruncatedOperator(4, np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        lowest_levels(7, 1e-3, 1)


def test_state_vector_norm_check():
    amps = np.zeros(DIM, dtype=complex)
    amps[0] = 0.9
    with pytest.raises(ValueError):
        StateVector(DIM, amps)


def test_spectral_decomposition_requires_sorted():
    w = np.array([1.0, 0.5] + [2.0] * (DIM - 2))
    with pytest.raises(ValueError):
        SpectralDecomposition(DIM, w, np.eye(DIM, dtype=complex))


def test_diagonalize_rejects_non_hermitian():
    m = np.zeros((DIM, DIM), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        diagonalize(TruncatedOperator(DIM, m))


def test_evolution_phase_of_eigenstate():
    """exp(-iHt) applied to the ground state is a pure phase e^{-i E0 t}."""
    spec = diagonalize(build_hamiltonian(DIM, 0.0))
    amps = np.zeros(DIM, dtype=complex)
    amps[0] = 1.0
    state = StateVector(DIM, amps)
    t = 1.7
    out = evolve(state, spec, t)
    overlap = complex(np.vdot(state.amps, out.amps))
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
    assert overlap == pytest.approx(np.exp(-1j * 0.5 * t), abs=1e-10)


def test_expectation_and_variance_on_ground_state():
    h = build_hamiltonian(DIM, 0.0)
    amps = np.zeros(DIM, dtype=complex)
    amps[0] = 1.0
    state = StateVector(DIM, amps)
    assert expectation(h, state).real == pytest.approx(0.5, abs=1e-12)
    assert variance(h, state) == pytest.approx(0.0, abs=1e-12)


def test_variance_requires_hermitian():
    a, _ = build_ladder(DIM)
    amps = np.zeros(DIM, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError):
        variance(a, StateVector(DIM, amps))


def test_dimension_mismatch_raises():
    h = build_hamiltonian(DIM, 0.0)
    amps = np.zeros(2 * DIM, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError):
        expectation(h, StateVector(2 * DIM, amps))


def _band_to_dense(band: np.ndarray) -> np.ndarray:
    dim = band.shape[1]
    full = np.zeros((dim, dim))
    for k, row in enumerate(band):
        idx = np.arange(dim - k)
        full[idx + k, idx] = row[: dim - k]
        full[idx, idx + k] = row[: dim - k]
    return full


TIE_CASES = [
    (dim, eps) for dim in (64, 256, 512) for eps in (0.0, 1e-3, 1.0 / dim)
] + [(256, 0.08)]


@pytest.mark.filterwarnings("ignore:epsilon=")
@pytest.mark.parametrize("dim,eps", TIE_CASES)
def test_banded_levels_tie_to_dense_reference(dim, eps):
    """The band is the dense H, and the banded solver returns the dense lowest levels."""
    op = build_hamiltonian(dim, eps)
    h = op.entries
    band = hamiltonian_band(dim, eps)
    assert band.shape == (fock_core.BAND_ROWS, dim)
    assert np.all(h.imag == 0)
    assert np.abs(_band_to_dense(band) - h.real).max() <= 1e-12 * np.abs(h).max()
    dense = diagonalize(op).eigenvalues
    for count in sorted({1, 11, dim // 4}):
        levels = lowest_levels(dim, eps, count)
        assert levels.shape == (count,)
        assert np.abs(levels - dense[:count]).max() <= 1e-11
    if eps == 0.08:
        # past the cutoff turnover 8/(3 eps) both routes report the same
        # spurious ground state; the swap neither hides nor adds the defect
        assert lowest_levels(dim, eps, 1)[0] == pytest.approx(-2093.42, abs=5e-3)


PARITY_EDGE_CASES = [
    (9, 1e-3, 9),  # odd dim: the even block is one level larger
    (9, 0.08, 1),
    (257, 1e-3, 257),  # every level of both blocks
    (257, 1e-3, 1),
    (257, 1.0 / 257, 65),
    (1024, 1e-3, 257),
]


@pytest.mark.parametrize("dim,eps,count", PARITY_EDGE_CASES)
def test_parity_levels_edge_cases_match_dense_reference(dim, eps, count):
    """Unequal blocks, one level, and every level all merge to the dense lowest levels."""
    op = build_hamiltonian(dim, eps)
    h = op.entries.real
    assert np.abs(_band_to_dense(hamiltonian_band(dim, eps)) - h).max() <= 1e-12 * np.abs(h).max()
    dense = diagonalize(op).eigenvalues
    levels = lowest_levels(dim, eps, count)
    assert levels.shape == (count,)
    assert np.abs(levels - dense[:count]).max() <= 1e-11


def test_banded_levels_verification_is_live(monkeypatch):
    solve = fock_core.np.linalg.eigh

    def perturbed(*args, **kwargs):
        w, v = solve(*args, **kwargs)
        w = w.copy()
        w[2] += 1e-3
        return w, v

    assert lowest_levels(DIM, 1e-3, 5).shape == (5,)
    monkeypatch.setattr(fock_core.np.linalg, "eigh", perturbed)
    with pytest.raises(ArithmeticError, match="residual"):
        lowest_levels(DIM, 1e-3, 5)


def test_lowest_levels_count_range():
    for count in (0, DIM + 1):
        with pytest.raises(ValueError):
            lowest_levels(DIM, 1e-3, count)


def test_default_cutoff_policy():
    for (alpha0, r), expected in EXPECTED_CUTOFFS.items():
        assert default_cutoff(alpha0=alpha0, r=r) == expected


def test_module_constants():
    assert fock_core.MIN_DIM == 8
    assert fock_core.MAX_DIM == 16384
    assert fock_core.SOLVE_BYTES_PER_DIM2 == 12
    assert fock_core.SOLVE_BYTES_PER_DIM2 * fock_core.MAX_DIM**2 == fock_core.SOLVE_BUDGET_BYTES
    assert fock_core.EPSILON_WARN_THRESHOLD == 0.1
