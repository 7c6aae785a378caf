import errno
import math
import os
import tracemalloc
import warnings

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
    lowest_levels,
)
from relqsl.states import CoherentSpec, SqueezeSpec, coherent_amplitudes, squeezed_state

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
    assert np.array_equal(adag.entries, a.entries.T)


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
    """x is symmetric and q antisymmetric, so p = i q is Hermitian and [x, p] = i [x, q] = i."""
    x, q = build_quadratures(DIM)
    assert x.entries.dtype == q.entries.dtype == np.float64
    assert np.array_equal(x.entries, x.entries.T)
    assert np.array_equal(q.entries, -q.entries.T)
    comm = x.entries @ q.entries - q.entries @ x.entries
    assert np.allclose(comm[: DIM - 1, : DIM - 1], np.eye(DIM - 1), atol=1e-12)


def test_harmonic_spectrum_at_zero_epsilon():
    spec = diagonalize(build_hamiltonian(DIM, 0.0))
    interior = DIM // 4
    assert np.allclose(spec.eigenvalues[:interior], np.arange(interior) + 0.5, atol=1e-10)


def test_hamiltonian_hermitian_with_correction():
    h = build_hamiltonian(DIM, 0.01)
    assert h.is_hermitian()


def test_epsilon_validation():
    for build in (build_hamiltonian, lambda d, e: lowest_levels(d, e, 4)):
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_diagonalize_names_a_non_finite_entry_without_a_warning(bad):
    m = np.eye(8)
    m[2, 6] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError) as refused:
            diagonalize(TruncatedOperator(8, m))
    assert str(refused.value) == f"diagonalize(dim=8): H has a non-finite entry H[2, 6] = {bad!r}"


def test_state_vector_refuses_nan_amplitudes():
    amps = np.zeros(DIM)
    amps[0] = math.nan
    with pytest.raises(ValueError, match="state norm nan deviates from 1"):
        StateVector(DIM, amps)


def test_diagonalize_rejects_parity_coupling():
    """x is Hermitian but couples n to n+-1, so its parity blocks are not all of it."""
    x, _ = build_quadratures(DIM)
    assert x.is_hermitian()
    with pytest.raises(ValueError, match="parity"):
        diagonalize(x)


def _ground_state(dim: int) -> StateVector:
    amps = np.zeros(dim)
    amps[0] = 1.0
    return StateVector(dim, amps)


def test_moments_on_ground_state():
    assert diagonalize(build_hamiltonian(DIM, 0.0)).moments(_ground_state(DIM)) == (
        pytest.approx(0.5, abs=1e-12), pytest.approx(0.0, abs=1e-12))


def test_dimension_mismatch_raises():
    spec = diagonalize(build_hamiltonian(DIM, 0.0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        spec.moments(_ground_state(2 * DIM))


MOMENT_STATES = {
    "coherent": lambda dim: coherent_amplitudes(CoherentSpec(1.0), dim),
    "squeezed": lambda dim: squeezed_state(SqueezeSpec(0.5), dim),
}


@pytest.mark.parametrize("state", MOMENT_STATES.values(), ids=MOMENT_STATES.keys())
def test_moments_equal_the_carried_state_route(state):
    """Moments off the eigenvalues equal <psi|H|psi> and ||H psi||^2 - <H>^2 of the carried state."""
    op = build_hamiltonian(256, 1e-4)
    spec = diagonalize(op)
    bare = state(256)
    carried = spec.eigenvectors @ bare.amps
    hpsi = op.entries @ carried
    mean = float(np.real(np.vdot(carried, hpsi)))
    var = float(np.real(np.vdot(hpsi, hpsi))) - mean * mean
    assert spec.moments(bare) == (pytest.approx(mean, rel=1e-12), pytest.approx(var, rel=1e-12))


def _band_to_dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose diagonal at offset 2k is band row k."""
    dim = band.shape[1]
    full = np.zeros((dim, dim))
    for k, row in zip(range(0, 2 * len(band), 2), band):
        idx = np.arange(dim - k)
        full[idx + k, idx] = row[: dim - k]
        full[idx, idx + k] = row[: dim - k]
    return full


TIE_CASES = [
    (dim, eps) for dim in (64, 256, 512) for eps in (0.0, 1e-3, 1.0 / dim)
] + [(256, 0.08)]


def _complex_reference_hamiltonian(dim: int, eps: float) -> np.ndarray:
    """H from complex ladder matrices, p = i(a0dag - a0)/sqrt2, and matrix_power(p, 4)."""
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    adag = a.conj().T
    x = (adag + a) / np.sqrt(2.0)
    p = 1j * (adag - a) / np.sqrt(2.0)
    return (p @ p + x @ x) / 2.0 - eps * np.linalg.matrix_power(p, 4) / 8.0


@pytest.mark.filterwarnings("ignore:epsilon=")
@pytest.mark.parametrize("dim,eps", TIE_CASES)
def test_real_hamiltonian_matches_complex_reference(dim, eps):
    """The real build is the complex one up to summation order in the last bit."""
    op = build_hamiltonian(dim, eps)
    h = op.entries
    ref = _complex_reference_hamiltonian(dim, eps)
    assert h.dtype == np.float64
    assert np.all(ref.imag == 0)
    assert np.abs(h - ref.real).max() <= 1e-15 * np.abs(h).max()
    spec = diagonalize(op)
    assert spec.eigenvectors.dtype == np.float64
    ref_levels = np.linalg.eigvalsh(ref)[:11]
    assert np.abs(spec.eigenvalues[:11] - ref_levels).max() <= 1e-11


def _assert_solvers_match_eigvalsh(op: TruncatedOperator, eps: float, counts) -> None:
    """Both solvers against a full-matrix eigvalsh, which shares nothing with the parity solve."""
    reference = np.linalg.eigvalsh(op.entries)
    full = diagonalize(op).eigenvalues
    assert np.abs(full - reference).max() <= 1e-13 * np.abs(reference).max()
    assert np.abs(full[:11] - reference[:11]).max() <= 1e-11
    for count in counts:
        levels = lowest_levels(op.dim, eps, count)
        assert levels.shape == (count,)
        assert np.abs(levels - reference[:count]).max() <= 1e-11


@pytest.mark.filterwarnings("ignore:epsilon=")
@pytest.mark.parametrize("dim,eps", TIE_CASES)
def test_banded_levels_tie_to_dense_reference(dim, eps):
    """The band is the dense H, and both solvers return its lowest levels."""
    op = build_hamiltonian(dim, eps)
    h = op.entries
    band = fock_core._lower_band(dim, eps, 1)
    assert band.shape == (fock_core.BAND_ROWS, dim)
    assert np.abs(_band_to_dense(band) - h).max() <= 1e-12 * np.abs(h).max()
    _assert_solvers_match_eigvalsh(op, eps, sorted({1, 11, dim // 4}))
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
    h = op.entries
    assert np.abs(_band_to_dense(fock_core._lower_band(dim, eps, count)) - h).max() <= (
        1e-12 * np.abs(h).max())
    _assert_solvers_match_eigvalsh(op, eps, [count])


VERIFIED_ROUTES = {
    "lowest_levels": lambda op: lowest_levels(DIM, 1e-3, 5),
    "diagonalize": diagonalize,
}


@pytest.mark.parametrize("route", VERIFIED_ROUTES.values(), ids=VERIFIED_ROUTES.keys())
def test_banded_levels_verification_is_live(route, monkeypatch):
    """A perturbed eigh eigenvalue is caught by the residual check of either route."""
    op = build_hamiltonian(DIM, 1e-3)
    solve = fock_core.np.linalg.eigh

    def perturbed(*args, **kwargs):
        w, v = solve(*args, **kwargs)
        w = w.copy()
        w[2] += 1e-3
        return w, v

    route(op)
    monkeypatch.setattr(fock_core.np.linalg, "eigh", perturbed)
    with pytest.raises(ArithmeticError, match="residual"):
        route(op)


@pytest.mark.filterwarnings("ignore:epsilon=.* is large", "error::RuntimeWarning")
@pytest.mark.parametrize("route", ["lowest_levels", "diagonalize"])
def test_verification_is_live_where_the_squares_overflow(route, monkeypatch):
    """At epsilon = 1e300 the squares summed for ||H||_F and for the residual
    norms pass the largest float; the check still passes the exact eigenpairs,
    without a RuntimeWarning, and still catches perturbed eigenvalues."""
    solve = {
        "lowest_levels": lambda: lowest_levels(DIM, 1e300, 5),
        "diagonalize": lambda: diagonalize(build_hamiltonian(DIM, 1e300)).eigenvalues,
    }[route]
    assert np.isfinite(solve()).all()
    eigh = fock_core.np.linalg.eigh

    def perturbed(*args, **kwargs):
        w, v = eigh(*args, **kwargs)
        return w * (1.0 + 1e-6), v

    monkeypatch.setattr(fock_core.np.linalg, "eigh", perturbed)
    with pytest.raises(ArithmeticError, match="eigenpair residual"):
        solve()


def test_lowest_levels_count_over_memory_budget_refused(monkeypatch):
    """At MAX_DIM the block solve fits the budget, but verifying every level does not."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the solver must not be reached")

    monkeypatch.setattr(fock_core.np.linalg, "eigh", unreachable)
    dim = fock_core.MAX_DIM
    need = fock_core._VERIFY_BYTES_PER_DIM_COUNT * dim * dim
    with pytest.raises(ValueError, match=f"dim={dim} with count={dim} needs about {need} bytes"):
        lowest_levels(dim, 1e-3, dim)


def test_lowest_levels_traced_peak():
    """Two parity blocks are never held at once in this process: the traced peak
    stays below 4.5 dim^2 bytes."""
    dim = 2048
    tracemalloc.start()
    try:
        lowest_levels(dim, 1e-4, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * dim * dim


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
    assert fock_core._VERIFY_BYTES_PER_DIM_COUNT == 34
    # every count `spectrum` asks for (nmax <= dim/4) still fits at MAX_DIM
    most = fock_core.MAX_DIM // 4 + 1
    assert (fock_core._VERIFY_BYTES_PER_DIM_COUNT * fock_core.MAX_DIM * most
            <= fock_core.SOLVE_BUDGET_BYTES)
    assert fock_core.EPSILON_WARN_THRESHOLD == 0.1
    assert fock_core.BAND_ROWS == 3


# odd, so the even block (one level larger) is told apart from the odd one by
# its size; on two CPUs the even block at this size was once solved in a
# forked child, and now must not be
SOLVE_DIM = 641
EVEN_SIZE = (SOLVE_DIM + 1) // 2


def _count_forks(monkeypatch, fails: bool = False) -> list[int]:
    """A list that grows by one at each os.fork, which raises EAGAIN if ``fails``."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        if fails:
            raise OSError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


SOLVED_ROUTES = {
    "lowest_levels": lambda dim: lowest_levels(dim, 1e-3, dim // 4 + 1),
    "diagonalize": lambda dim: diagonalize(build_hamiltonian(dim, 1e-3)),
}


@pytest.mark.parametrize("dim", [576, SOLVE_DIM])
@pytest.mark.parametrize("route", SOLVED_ROUTES.values(), ids=SOLVED_ROUTES.keys())
def test_forked_solve_is_bit_identical(route, dim, monkeypatch, set_cpus):
    """The parity solve's eigenpairs are the same bits on one CPU and on two,
    and it calls os.fork on neither."""
    solved = []
    check = fock_core._check_eigenpairs

    def spy(hv, v, w, scale):
        solved.append((w.copy(), v.copy()))
        check(hv, v, w, scale)

    monkeypatch.setattr(fock_core, "_check_eigenpairs", spy)
    forks = _count_forks(monkeypatch)
    for cpus in (1, 2):
        set_cpus(cpus)
        route(dim)
    assert forks == []
    (w_one, v_one), (w_two, v_two) = solved
    assert np.array_equal(w_one, w_two)
    assert np.array_equal(v_one, v_two)


@pytest.mark.parametrize("failure", ["fork", "child"])
def test_failed_even_solve_is_rerun_in_process(failure, monkeypatch, set_cpus):
    """Neither a fork that fails nor an eigh that raises in any other process
    touches the solve: on two CPUs this process solves the even block itself,
    to the bits of one CPU, without calling os.fork."""
    set_cpus(1)
    expected = lowest_levels(SOLVE_DIM, 1e-3, 11)
    set_cpus(2)
    forks = _count_forks(monkeypatch, fails=failure == "fork")
    parent = os.getpid()
    solve = np.linalg.eigh

    def failing_in_child(a, *args, **kwargs):
        if os.getpid() != parent:
            raise np.linalg.LinAlgError("eigh failed in the child")
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(fock_core.np.linalg, "eigh", failing_in_child)
    assert np.array_equal(lowest_levels(SOLVE_DIM, 1e-3, 11), expected)
    assert forks == []


@pytest.mark.parametrize("fork_fails", [False, True], ids=["child", "fork"])
def test_even_block_error_reaches_the_caller(fork_fails, monkeypatch, set_cpus):
    """On two CPUs, whether or not a fork would succeed, an eigh that raises on
    the even block raises ArithmeticError naming the solve, from this process,
    without calling os.fork, and the odd block is never solved."""
    set_cpus(2)
    forks = _count_forks(monkeypatch, fails=fork_fails)
    solved = []
    solve = np.linalg.eigh

    def failing_on_even(a, *args, **kwargs):
        solved.append((a.shape[0], os.getpid()))
        if a.shape[0] == EVEN_SIZE:
            raise np.linalg.LinAlgError("eigh failed on the even block")
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(fock_core.np.linalg, "eigh", failing_on_even)
    with pytest.raises(ArithmeticError, match=rf"lowest_levels\(dim={SOLVE_DIM}, epsilon=0.001, count=11\)"
                                              ".*even block") as raised:
        lowest_levels(SOLVE_DIM, 1e-3, 11)
    assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)
    assert solved == [(EVEN_SIZE, os.getpid())]
    assert forks == []


@pytest.mark.filterwarnings("ignore:epsilon=.* is large", "error::RuntimeWarning")
def test_overflowing_hamiltonian_is_refused_with_epsilon():
    """An H whose entries overflow is refused where it is built, naming epsilon,
    not by diagonalize as a non-Hermitian operator, and no RuntimeWarning leaks."""
    with pytest.raises(ArithmeticError, match=r"build_hamiltonian\(dim=256, epsilon=1e\+305\): H has a non-finite"):
        diagonalize(build_hamiltonian(256, 1e305))
