"""Truncated Fock-space linear algebra for the quartic-corrected oscillator.

Dense-matrix oracle used to validate every closed form in this package:
ladder matrices, Hamiltonian assembly H = (p^2 + x^2)/2 - eps*p^4/8,
spectral decomposition, and exact time evolution. Everything here is in
natural units (m = omega = hbar = 1) and brute force by design; no
normal-ordering shortcuts are taken anywhere.

The dense pair ``build_hamiltonian``/``diagonalize`` stays the reference
for every oracle that needs the full eigenbasis (evolution, moments,
overlaps). When only the lowest levels are wanted, ``lowest_levels`` solves
the same truncated H with numpy alone: H is real and couples n only to n+-2
and n+-4, so it splits exactly into an even-n and an odd-n block, each a
real pentadiagonal matrix of size dim/2. Solving the two blocks costs about
a quarter of the flops of one dim x dim solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

MIN_DIM = 8
# lowest_levels solves one (dim/2) x (dim/2) parity block at a time: the block,
# numpy's copy of it, its eigenvectors and the ?syevd workspace come to about
# 10 * dim**2 bytes, plus the kept vectors of the first block. Peak RSS
# above the interpreter's baseline measured 10.4 * dim**2 (count 11) and
# 11.4 * dim**2 (count dim/4 + 1, the most `spectrum` asks for) at dim 4096.
# Dims whose solve would exceed the budget are refused up front.
SOLVE_BYTES_PER_DIM2 = 12
SOLVE_BUDGET_BYTES = 3 * 1024**3
MAX_DIM = math.isqrt(SOLVE_BUDGET_BYTES // SOLVE_BYTES_PER_DIM2)
# Lower band rows of H: the quartic term couples n to n+-4.
BAND_ROWS = 5
EPSILON_WARN_THRESHOLD = 0.1
HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Operator restricted to the lowest ``dim`` Fock levels.

    Parameters
    ----------
    dim : int
        Fock cutoff, at least 8.
    entries : ndarray
        Complex dim x dim matrix.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if self.dim < MIN_DIM:
            raise ValueError(
                f"Fock cutoff dim={self.dim} is too small; the quartic term "
                f"couples n to n+-4, so at least dim={MIN_DIM} is required"
            )
        if self.entries.shape != (self.dim, self.dim):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match dim={self.dim}"
            )

    def is_hermitian(self, atol: float = HERMITIAN_ATOL) -> bool:
        return bool(np.all(np.abs(self.entries - self.entries.conj().T) <= atol))


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


def _check_min_dim(dim: int) -> None:
    if dim < MIN_DIM:
        raise ValueError(
            f"Fock cutoff dim={dim} is too small; at least {MIN_DIM} levels are needed"
        )


def build_ladder(dim: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Return the truncated annihilation and creation matrices (a0, a0dag).

    a0[n-1, n] = sqrt(n); a0dag is the conjugate transpose. On the truncated
    space [a0, a0dag] equals the identity everywhere except the last diagonal
    entry, which is a cutoff artifact.
    """
    _check_min_dim(dim)
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return TruncatedOperator(dim, a), TruncatedOperator(dim, a.conj().T)


def build_quadratures(dim: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Return position and momentum matrices x = (a0dag + a0)/sqrt2, p = i(a0dag - a0)/sqrt2."""
    a, adag = build_ladder(dim)
    x = (adag.entries + a.entries) / np.sqrt(2.0)
    p = 1j * (adag.entries - a.entries) / np.sqrt(2.0)
    return TruncatedOperator(dim, x), TruncatedOperator(dim, p)


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

    p^4 is the exact fourth matrix power of the truncated p; the operator is
    Hermitian by construction. epsilon above 0.1 is allowed but triggers a
    warning since the first-order treatment downstream degrades there.
    """
    _check_epsilon(epsilon)
    x, p = build_quadratures(dim)
    p4 = np.linalg.matrix_power(p.entries, 4)
    h = (p.entries @ p.entries + x.entries @ x.entries) / 2.0 - epsilon * p4 / 8.0
    return TruncatedOperator(dim, h)


def diagonalize(op: TruncatedOperator) -> SpectralDecomposition:
    """Dense eigendecomposition of a Hermitian operator.

    Raises if the input is not Hermitian. The result is verified: eigenpair
    residuals below 1e-9 * ||H||_F and column orthonormality below 1e-10.
    """
    if not op.is_hermitian():
        raise ValueError("diagonalize requires a Hermitian operator")
    w, v = np.linalg.eigh(op.entries)
    scale = float(np.linalg.norm(op.entries))
    resid = np.linalg.norm(op.entries @ v - v * w, axis=0)
    if scale > 0 and float(resid.max()) > 1e-9 * scale:
        raise ArithmeticError(
            f"eigenpair residual {resid.max():.3e} exceeds 1e-9 * ||H|| = {1e-9*scale:.3e}"
        )
    ortho = np.abs(v.conj().T @ v - np.eye(op.dim)).max()
    if float(ortho) > 1e-10:
        raise ArithmeticError(f"eigenvector orthonormality defect {ortho:.3e} exceeds 1e-10")
    return SpectralDecomposition(op.dim, w, v)


def hamiltonian_band(dim: int, epsilon: float) -> np.ndarray:
    """Lower band of the truncated H of ``build_hamiltonian``, as a real array.

    Row k holds the k-th subdiagonal, ``band[k, j] = H[j + k, j]`` (LAPACK
    lower band storage; rows 1 and 3 are zero by parity). The diagonals are
    closed-form products of the truncated quadratures x and q, where p = i q,
    so p^2 = -q^2 and p^4 = q^2 q^2 keep the truncation edge of the dense
    ``matrix_power(p, 4)``; H is symmetric by construction. Same epsilon and
    dim checks as the dense build, plus ``dim <= MAX_DIM``, checked before
    anything is allocated.
    """
    _check_epsilon(epsilon)
    return _lower_band(dim, epsilon)


def _lower_band(dim: int, epsilon: float) -> np.ndarray:
    """``hamiltonian_band`` without the epsilon check.

    Each public caller checks epsilon itself, so that the large-epsilon
    warning points at the code that called it.
    """
    _check_min_dim(dim)
    if dim > MAX_DIM:
        need = SOLVE_BYTES_PER_DIM2 * dim * dim
        raise ValueError(
            f"dim={dim} needs about {SOLVE_BYTES_PER_DIM2} * dim**2 = {need} bytes "
            f"({need / 1024**3:.1f} GiB) for its parity-block solve, over the "
            f"{SOLVE_BUDGET_BYTES / 1024**3:.0f} GiB budget; use dim <= {MAX_DIM}"
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
    band[2] = -epsilon * s * (d + d_next) / 8.0
    band[4] = -epsilon * s * s_next / 8.0
    return band


def _band_matvec(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return H @ v for the symmetric H whose lower band is ``band``."""
    out = band[0][:, None] * v
    for k in range(1, band.shape[0]):
        diag = band[k, :-k, None]
        out[k:] += diag * v[:-k]
        out[:-k] += diag * v[k:]
    return out


def _parity_block_levels(band: np.ndarray, parity: int,
                         count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``min(count, size)`` eigenpairs of H on the levels n = parity (mod 2).

    The block is dense, filled from band rows 0, 2 and 4 on its lower
    triangle only, which is all ``eigh`` reads.
    """
    rows = band[::2, parity::2]
    size = rows.shape[1]
    block = np.zeros((size, size))
    for k, row in enumerate(rows):
        idx = np.arange(size - k)
        block[idx + k, idx] = row[: size - k]
    w, v = np.linalg.eigh(block)
    keep = min(count, size)
    return w[:keep], v[:, :keep].copy()  # a copy frees the block's other vectors


def lowest_levels(dim: int, epsilon: float, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues, ascending, of the truncated H on ``dim`` levels.

    H couples n only to n+-2 and n+-4, so it splits into an even-n and an
    odd-n block. Each block is solved in turn with ``np.linalg.eigh``, the
    lowest ``count`` pairs of each are scattered back to full-length
    vectors, and the two sets are merged in ascending order. The result is
    verified as ``diagonalize`` verifies its own: eigenpair residuals below
    1e-9 * ||H||_F and orthonormality of the returned vectors below 1e-10,
    both measured against the full band with a banded mat-vec.
    """
    if not 1 <= count <= dim:
        raise ValueError(f"count={count} must lie in 1..dim={dim}")
    _check_epsilon(epsilon)
    band = _lower_band(dim, epsilon)
    (w_even, v_even), (w_odd, v_odd) = (
        _parity_block_levels(band, parity, count) for parity in (0, 1)
    )
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")[:count]
    odd = order >= w_even.size
    v = np.zeros((dim, count))
    v[0::2, ~odd] = v_even[:, order[~odd]]
    v[1::2, odd] = v_odd[:, order[odd] - w_even.size]
    w = w[order]
    if w.shape != (count,) or np.any(np.diff(w) < 0):
        raise ArithmeticError(f"parity solve returned {w.size} eigenvalues, not {count} ascending")
    scale = math.sqrt(float(np.sum(band[0] ** 2) + 2.0 * np.sum(band[1:] ** 2)))
    resid = np.linalg.norm(_band_matvec(band, v) - v * w, axis=0)
    if scale > 0 and float(resid.max()) > 1e-9 * scale:
        raise ArithmeticError(
            f"eigenpair residual {resid.max():.3e} exceeds 1e-9 * ||H|| = {1e-9*scale:.3e}"
        )
    ortho = np.abs(v.T @ v - np.eye(count)).max()
    if float(ortho) > 1e-10:
        raise ArithmeticError(f"eigenvector orthonormality defect {ortho:.3e} exceeds 1e-10")
    return w


def evolve(state: StateVector, spec: SpectralDecomposition, t: float) -> StateVector:
    """Apply exp(-i H t) through the spectral decomposition of H."""
    if state.dim != spec.dim:
        raise ValueError(f"dimension mismatch: state {state.dim} vs decomposition {spec.dim}")
    coeffs = spec.eigenvectors.conj().T @ state.amps
    out = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * coeffs)
    return StateVector(state.dim, out)


def expectation(op: TruncatedOperator, state: StateVector) -> complex:
    """Return <psi|O|psi>."""
    if op.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim} vs state {state.dim}")
    return complex(np.vdot(state.amps, op.entries @ state.amps))


def variance(op: TruncatedOperator, state: StateVector) -> float:
    """Return <O^2> - <O>^2 for a Hermitian O, clamped at zero within -1e-12."""
    if op.dim != state.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim} vs state {state.dim}")
    if not op.is_hermitian():
        raise ValueError("variance requires a Hermitian operator")
    ovec = op.entries @ state.amps
    second = float(np.real(np.vdot(ovec, ovec)))
    mean = float(np.real(np.vdot(state.amps, ovec)))
    var = second - mean * mean
    if var < 0.0:
        if var < -1e-12:
            raise ArithmeticError(f"variance {var!r} is negative beyond tolerance")
        var = 0.0
    return var


def default_cutoff(alpha0: float = 0.0, r: float = 0.0) -> int:
    """Fock cutoff policy: large enough that Poisson and squeezed tails sit below 1e-12."""
    return max(256, int(np.ceil(8.0 * (alpha0 * alpha0 + 1.0))), int(np.ceil(32.0 * np.exp(2.0 * r))))
