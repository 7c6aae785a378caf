"""Truncated Fock-space linear algebra for the quartic-corrected oscillator.

Dense-matrix oracle used to validate every closed form in this package:
ladder matrices, Hamiltonian assembly H = (p^2 + x^2)/2 - eps*p^4/8,
spectral decomposition, and exact time evolution. Everything here is in
natural units (m = omega = hbar = 1) and brute force by design; no
normal-ordering shortcuts are taken anywhere. The arithmetic is real: with
p = i q for the real antisymmetric q, H is a real symmetric float64 matrix
with real eigenvectors, and states are complex only where a phase needs it.

H couples n only to n+-2 and n+-4, so it splits exactly into an even-n and
an odd-n block, and one parity solve serves both solvers: ``diagonalize``
slices the blocks from the dense ``build_hamiltonian`` matrix (after
checking that every even-odd entry is zero) and returns the full
eigenbasis; ``lowest_levels`` builds each block from the closed-form band
and keeps only the lowest levels. From ``MIN_FORK_DIM`` on two or more
CPUs the two blocks are solved in two processes: a forked child solves the
even block and sends back its kept eigenpairs as bytes while this process
solves the odd one, so the result is bit for bit that of the in-process
solve. Energy moments of a state are read off the eigenvalues by
``SpectralDecomposition.moments``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import forked
from .arrays import SOLVE_BUDGET_BYTES

MIN_DIM = 8
# Each process solves one (dim/2) x (dim/2) parity block at a time: the block,
# numpy's copy, its eigenvectors and the ?syevd workspace, about 10 * dim**2
# bytes plus the first block's kept vectors; at dim 4096, in one process, peak
# RSS above baseline measured 10.4 * dim**2 (count 11) and 11.4 * dim**2 (count
# dim/4 + 1, spectrum's most). A forked solve holds the two blocks at once, one
# in each process, so it needs twice this within the budget (see ``_forks``).
SOLVE_BYTES_PER_DIM2 = 12
# Its verification holds three dim x count arrays and a count x count Gram
# matrix: at dim 2048, 25.7 * dim * count at count = dim and at most 32.6 where
# that exceeds 12 * dim**2. A solve over budget by either term is refused.
_VERIFY_BYTES_PER_DIM_COUNT = 34
MAX_DIM = math.isqrt(SOLVE_BUDGET_BYTES // SOLVE_BYTES_PER_DIM2)
# From this dim, on two or more CPUs, a forked child solves the even block while
# this process solves the odd one (``_forks``). On 2 cores with OpenBLAS on 1
# thread, warm in one process (median of 21 alternating calls), the fork lost at
# dim 448 (diagonalize 10.0 -> 10.9 ms) and won from dim 512 (15.4 -> 14.7 ms).
# A cold `relqsl spectrum --nmax dim/4` job also pays the child's first touch of
# its workspace (median of 10): it lost at dim 512 (93.3 -> 94.3 ms), tied at
# 576 (95.7 -> 95.6 ms) and won from 640 (98.5 -> 97.5 ms; 130.3 -> 116.4 ms
# at dim 1024).
MIN_FORK_DIM = 640
# Stored diagonals of H, at offsets 0, 2 and 4: the quartic term couples n to
# n+-4, and parity zeroes the odd offsets.
BAND_ROWS = 3
EPSILON_WARN_THRESHOLD = 0.1
HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Operator on the lowest ``dim`` (at least MIN_DIM) Fock levels.

    ``entries`` is a dim x dim matrix, float64 from every builder here; the
    checked floor and shape are what ``diagonalize`` relies on.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        _check_min_dim(self.dim)
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries shape {self.entries.shape} does not match dim={self.dim}")

    def is_hermitian(self) -> bool:
        return bool(np.all(np.abs(self.entries - self.entries.conj().T) <= HERMITIAN_ATOL))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized state on the lowest ``dim`` Fock levels."""

    dim: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (self.dim,):
            raise ValueError(f"amps shape {self.amps.shape} does not match dim={self.dim}")
        norm = float(np.linalg.norm(self.amps))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(
                f"state norm {norm!r} deviates from 1 by more than {NORM_ATOL}; "
                "renormalize or increase the cutoff before constructing"
            )


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigen-decomposition of a Hermitian truncated operator.

    ``eigenvalues`` ascending, ``eigenvectors`` column-orthonormal, so that
    H = V diag(w) V^dagger.
    """

    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        if self.eigenvalues.shape != (self.dim,):
            raise ValueError("eigenvalue count does not match dim")
        if self.eigenvectors.shape != (self.dim, self.dim):
            raise ValueError("eigenvector matrix shape does not match dim")
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted ascending")

    def moments(self, bare: StateVector) -> tuple[float, float]:
        """Exact <H> and Var(H) of the bare amplitudes carried onto the eigenvectors.

        Bare level n goes onto the n-th lowest eigenvector, so with weights
        p_n = |c_n|^2 the moments are sum p_n E_n and sum p_n E_n^2 - <H>^2.
        The variance is clamped at zero within -1e-12.
        """
        if bare.dim != self.dim:
            raise ValueError(f"dimension mismatch: state {bare.dim} vs decomposition {self.dim}")
        weights = np.abs(bare.amps) ** 2
        mean = float(weights @ self.eigenvalues)
        var = float(weights @ self.eigenvalues**2) - mean * mean
        if var < 0.0:
            if var < -1e-12:
                raise ArithmeticError(f"variance {var!r} is negative beyond tolerance")
            var = 0.0
        return mean, var


def _check_min_dim(dim: int) -> None:
    if dim < MIN_DIM:
        raise ValueError(
            f"Fock cutoff dim={dim} is too small; the quartic term couples n to n+-4, "
            f"so at least dim={MIN_DIM} is required"
        )


def build_ladder(dim: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Return the real truncated annihilation and creation matrices (a0, a0dag).

    a0[n-1, n] = sqrt(n); a0dag is its transpose. On the truncated space
    [a0, a0dag] equals the identity everywhere except the last diagonal
    entry, which is a cutoff artifact.
    """
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return TruncatedOperator(dim, a), TruncatedOperator(dim, a.T)


def build_quadratures(dim: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Return the real x = (a0dag + a0)/sqrt2 (symmetric) and q = (a0dag - a0)/sqrt2; p = i q."""
    a, adag = build_ladder(dim)
    x = (adag.entries + a.entries) / np.sqrt(2.0)
    q = (adag.entries - a.entries) / np.sqrt(2.0)
    return TruncatedOperator(dim, x), TruncatedOperator(dim, q)


def _check_epsilon(epsilon: float) -> None:
    """Reject negative epsilon; warn above 0.1, where first order degrades.

    The warning points at the caller of the public function that checks.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if epsilon > EPSILON_WARN_THRESHOLD:
        warnings.warn(
            f"epsilon={epsilon} is large for a first-order correction; "
            "results beyond epsilon ~ 0.1 are exploratory",
            stacklevel=3,
        )


def build_hamiltonian(dim: int, epsilon: float) -> TruncatedOperator:
    """Assemble H = (p^2 + x^2)/2 - epsilon * p^4 / 8 on the truncated space.

    With p = i q, p^2 = -q q and p^4 = (q q)(q q) are the brute-force products
    ``matrix_power(p, 4)`` takes; H is real symmetric by construction. epsilon
    above 0.1 is allowed but warns, as first order degrades there.
    """
    _check_epsilon(epsilon)
    x, q = build_quadratures(dim)
    q2 = q.entries @ q.entries
    h = (x.entries @ x.entries - q2) / 2.0 - epsilon * (q2 @ q2) / 8.0
    return TruncatedOperator(dim, h)


def diagonalize(op: TruncatedOperator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator that conserves the parity of n.

    Raises if the input is not Hermitian or has a nonzero entry between an
    even and an odd level. The even and odd blocks go through the parity
    solve, and the result is verified against the full matrix: eigenpair
    residuals below 1e-9 * ||H||_F and column orthonormality below 1e-10.
    """
    h = op.entries
    if not op.is_hermitian():
        raise ValueError("diagonalize requires a Hermitian operator")
    if np.any(h[0::2, 1::2]) or np.any(h[1::2, 0::2]):
        raise ValueError("diagonalize requires an operator that conserves the parity of n")
    w, v = _parity_solve(op.dim, op.dim, lambda parity: h[parity::2, parity::2])
    _check_eigenpairs(h @ v, v, w, float(np.linalg.norm(h)))
    return SpectralDecomposition(op.dim, w, v)


def _parity_solve(dim: int, count: int,
                  block: Callable[[int], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``count`` eigenpairs of a parity-conserving H, ascending, as full-length vectors.

    ``block(parity)`` returns H on the levels n = parity (mod 2), of which
    ``eigh`` reads the lower triangle. Each block is built and solved, and
    the lowest ``count`` pairs of each are kept: where ``_forks(dim)``, the
    even block in a forked child (``forked.run_beside``) that sends them back
    as bytes while this process solves the odd one, and otherwise both in
    this process, one after the other. The two sets are merged in ascending
    order (even first on a tie) and scattered back to full-length vectors.
    """
    if _forks(dim):
        data, (w_odd, v_odd) = forked.run_beside(
            lambda: b"".join(a.tobytes() for a in _solve_block(block(0), count)),
            lambda: _solve_block(block(1), count))
        size = (dim + 1) // 2
        keep = min(count, size)
        w_even = np.frombuffer(data, w_odd.dtype, keep)
        v_even = np.frombuffer(data, v_odd.dtype, offset=w_even.nbytes).reshape(size, keep)
    else:
        w_even, v_even = _solve_block(block(0), count)
        w_odd, v_odd = _solve_block(block(1), count)
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")[:count]
    odd = order >= w_even.size
    v = np.zeros((dim, count), dtype=np.result_type(v_even, v_odd))
    v[0::2, ~odd] = v_even[:, order[~odd]]
    v[1::2, odd] = v_odd[:, order[odd] - w_even.size]
    return w[order], v


def _forks(dim: int) -> bool:
    """Whether the even block is solved in a forked child while this process solves the odd.

    Only from ``MIN_FORK_DIM``, while two blocks' workspace fits the budget
    (dim <= 11,585), where ``forked.can_fork()``, and while BLAS runs one
    thread: two processes that each run BLAS threads on the same cores
    oversubscribe them (at dim 1024 on 2 cores, with OpenBLAS on 2 threads,
    ``lowest_levels`` took 3.9 s forked against 40 ms in one process).
    """
    return (MIN_FORK_DIM <= dim and 2 * SOLVE_BYTES_PER_DIM2 * dim * dim <= SOLVE_BUDGET_BYTES
            and forked.can_fork() and _blas_threads() == 1)


# (restype, argtypes) of the OpenBLAS functions looked up by ``_openblas``
_OPENBLAS_SIGNATURES = {
    "get_num_threads": (ctypes.c_int, []),
    "set_num_threads": (None, [ctypes.c_int]),
}


@functools.cache
def _openblas(name: str) -> Any:
    """The function ``name`` of the OpenBLAS that numpy's wheel bundles, or None where
    there is none; numpy 2 bundles scipy-openblas, numpy 1 OpenBLAS with 64-bit ints."""
    import glob  # only a solve that may fork looks for the library

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)  # the copy numpy loaded: dlopen finds it by its file
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, symbol):
                function = getattr(lib, symbol)
                function.restype, function.argtypes = _OPENBLAS_SIGNATURES[name]
                return function
    return None


def _blas_threads() -> int | None:
    """Threads that numpy's BLAS runs now, or None where that cannot be read."""
    get = _openblas("get_num_threads")
    return None if get is None else get()


def _solve_block(h: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``count`` (at most all) eigenpairs of one block, the vectors C-ordered."""
    w, v = np.linalg.eigh(h)
    keep = min(count, w.size)
    return w[:keep], v[:, :keep].copy()  # a copy frees the block's other vectors


def _check_eigenpairs(hv: np.ndarray, v: np.ndarray, w: np.ndarray, scale: float) -> None:
    """Raise ArithmeticError unless the eigenpairs (w, v) of H pass verification.

    ``hv`` is H @ v, overwritten with the residual. Each residual column must
    stay below 1e-9 * ``scale`` (||H||_F), and v orthonormal within 1e-10.
    """
    hv -= v * w
    resid = np.linalg.norm(hv, axis=0)
    if scale > 0 and float(resid.max()) > 1e-9 * scale:
        raise ArithmeticError(
            f"eigenpair residual {resid.max():.3e} exceeds 1e-9 * ||H|| = {1e-9*scale:.3e}"
        )
    defect = v.conj().T @ v
    defect[np.diag_indices_from(defect)] -= 1.0
    ortho = np.abs(defect, out=defect).max()
    if float(ortho) > 1e-10:
        raise ArithmeticError(f"eigenvector orthonormality defect {ortho:.3e} exceeds 1e-10")


def _lower_band(dim: int, epsilon: float, count: int) -> np.ndarray:
    """Lower band of the truncated H of ``build_hamiltonian``, for a solve of ``count`` levels.

    Row k holds the subdiagonal at offset 2k, ``band[k, j] = H[j + 2k, j]``;
    the odd offsets are zero by parity and not stored. The diagonals are
    closed-form products of the truncated quadratures x and q, where p = i q,
    so p^2 = -q^2 and p^4 = q^2 q^2 keep the truncation edge of the dense
    build. epsilon is checked by the caller, so that the large-epsilon
    warning points at the code that called it. A solve whose block or
    verification would exceed ``SOLVE_BUDGET_BYTES`` is refused here,
    before anything is allocated.
    """
    _check_min_dim(dim)
    need = max(SOLVE_BYTES_PER_DIM2 * dim * dim, _VERIFY_BYTES_PER_DIM_COUNT * dim * count)
    if need > SOLVE_BUDGET_BYTES:
        most = SOLVE_BUDGET_BYTES // (_VERIFY_BYTES_PER_DIM_COUNT * dim)
        raise ValueError(
            f"dim={dim} with count={count} needs about {need} bytes ({need / 1024**3:.1f} GiB) "
            f"to solve and verify, over the {SOLVE_BUDGET_BYTES / 1024**3:.0f} GiB budget; "
            f"use dim <= {MAX_DIM} and count <= {most}"
        )
    # Squared ladder couplings o_n = n/2 of x and q, zero-padded at both ends.
    o = np.zeros(dim + 2)
    o[1:dim] = np.arange(1, dim) / 2.0
    d = -(o[:dim] + o[1 : dim + 1])  # (q^2)[n, n]
    s = np.sqrt(o[1 : dim + 1] * o[2:])  # (q^2)[n + 2, n]
    zero = np.zeros(2)
    s_prev, s_next = np.concatenate([zero, s[:-2]]), np.concatenate([s[2:], zero])
    d_next = np.concatenate([d[2:], zero])
    # x^2 - q^2 is diagonal, -2d; q^4 = q^2 q^2 reaches the fourth off-diagonal.
    band = np.zeros((BAND_ROWS, dim))
    band[0] = -d - epsilon * (d * d + s_prev * s_prev + s * s) / 8.0
    band[1] = -epsilon * s * (d + d_next) / 8.0
    band[2] = -epsilon * s * s_next / 8.0
    return band


def _band_matvec(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return H @ v for the symmetric H whose lower band is ``band``."""
    out = band[0][:, None] * v
    for k in range(2, 2 * band.shape[0], 2):
        diag = band[k // 2, :-k, None]
        out[k:] += diag * v[:-k]
        out[:-k] += diag * v[k:]
    return out


def _band_block(band: np.ndarray, parity: int) -> np.ndarray:
    """H on the levels n = parity (mod 2), filled from the band rows on its lower triangle."""
    rows = band[:, parity::2]
    size = rows.shape[1]
    block = np.zeros((size, size))
    for k, row in enumerate(rows):
        idx = np.arange(size - k)
        block[idx + k, idx] = row[: size - k]
    return block


def lowest_levels(dim: int, epsilon: float, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues, ascending, of the truncated H on ``dim`` levels.

    The even-n and odd-n blocks are built from the band and go through the
    parity solve, and the result through the eigenpair check against the
    full band with a banded mat-vec, so no dim x dim matrix is formed.
    """
    if not 1 <= count <= dim:
        raise ValueError(f"count={count} must lie in 1..dim={dim}")
    _check_epsilon(epsilon)
    band = _lower_band(dim, epsilon, count)
    w, v = _parity_solve(dim, count, lambda parity: _band_block(band, parity))
    scale = math.sqrt(float(np.sum(band[0] ** 2) + 2.0 * np.sum(band[1:] ** 2)))
    _check_eigenpairs(_band_matvec(band, v), v, w, scale)
    return w


def evolve(state: StateVector, spec: SpectralDecomposition, t: float) -> StateVector:
    """Apply exp(-i H t) through the spectral decomposition of H."""
    if state.dim != spec.dim:
        raise ValueError(f"dimension mismatch: state {state.dim} vs decomposition {spec.dim}")
    coeffs = spec.eigenvectors.conj().T @ state.amps
    out = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * coeffs)
    return StateVector(state.dim, out)


def default_cutoff(alpha0: float = 0.0, r: float = 0.0) -> int:
    """Fock cutoff policy: large enough that Poisson and squeezed tails sit below 1e-12."""
    return max(256, int(np.ceil(8.0 * (alpha0 * alpha0 + 1.0))), int(np.ceil(32.0 * np.exp(2.0 * r))))
