"""Truncated Fock-space linear algebra for the quartic-corrected oscillator.

Exact-diagonalization oracle used to validate every closed form in this
package: H = (p^2 + x^2)/2 - eps*p^4/8 on the lowest ``dim`` Fock levels and
its spectral decomposition, in natural units (m = omega = hbar = 1). H is
defined once, by ``_lower_band``: its diagonals in closed form, as the
products of the truncated quadratures x and q (p = i q) give them. So H is a
real symmetric float64 band with real eigenvectors, and no dim x dim matrix
of it is formed here. The brute force that this band is checked against, H
from ladder matrices and ``matrix_power(p, 4)``, lives in the tests.

H couples n only to n+-2 and n+-4, so it splits exactly into an even-n and
an odd-n block, and one parity solve serves both solvers: it builds each
block from the band, solves the even block and then the odd one, and
verifies the merged eigenpairs against the band. ``diagonalize`` asks it
for every level of ``build_hamiltonian``'s band and returns the full
eigenbasis; ``lowest_levels`` asks for the lowest levels only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .arrays import SOLVE_BUDGET_BYTES

MIN_DIM = 8
# The solve holds one (dim/2) x (dim/2) parity block at a time: the block,
# numpy's copy, its eigenvectors and the ?syevd workspace, about 10 * dim**2
# bytes plus the first block's kept vectors; at dim 4096 peak RSS above
# baseline measured 10.4 * dim**2 (count 11) and 11.4 * dim**2 (count
# dim/4 + 1, spectrum's most).
SOLVE_BYTES_PER_DIM2 = 12
# Its verification holds three dim x count arrays and a count x count Gram
# matrix: at dim 2048, 25.7 * dim * count at count = dim and at most 32.6 where
# that exceeds 12 * dim**2. A solve over budget by either term is refused.
_VERIFY_BYTES_PER_DIM_COUNT = 34
MAX_DIM = math.isqrt(SOLVE_BUDGET_BYTES // SOLVE_BYTES_PER_DIM2)
# Stored diagonals of H, at offsets 0, 2 and 4: the quartic term couples n to
# n+-4, and parity zeroes the odd offsets.
BAND_ROWS = 3
EPSILON_WARN_THRESHOLD = 0.1


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """A parity-conserving real symmetric operator on the lowest ``dim`` (at least MIN_DIM) Fock levels.

    ``band`` is its lower band, of shape (BAND_ROWS, dim), laid out as
    ``_lower_band`` returns it; the checked floor and shape are what
    ``diagonalize`` relies on.
    """

    dim: int
    band: np.ndarray

    def __post_init__(self):
        _check_min_dim(self.dim)
        if self.band.shape != (BAND_ROWS, self.dim):
            raise ValueError(f"band shape {self.band.shape} does not match ({BAND_ROWS}, dim={self.dim})")


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
            f"Fock cutoff dim={dim} is too small; the quartic term couples n to n+-4, "
            f"so at least dim={MIN_DIM} is required"
        )


def _check_epsilon(epsilon: float) -> None:
    """Reject negative epsilon; warn above 0.1, where first order degrades.

    The warning points at the caller of the public function that checks.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if epsilon > EPSILON_WARN_THRESHOLD:
        warnings.warn(
            f"epsilon={epsilon} is large for a first-order correction; "
            "results beyond epsilon ~ 0.1 are exploratory",
            stacklevel=3,
        )


def build_hamiltonian(dim: int, epsilon: float) -> TruncatedOperator:
    """The truncated H = (p^2 + x^2)/2 - epsilon * p^4 / 8, held as its lower band.

    epsilon above 0.1 is allowed but warns, as first order degrades there. A
    dim whose full solve and verification by ``diagonalize`` would exceed the
    memory budget is refused before the band is allocated, and an epsilon so
    large that an entry of H overflows raises ArithmeticError.
    """
    _check_epsilon(epsilon)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        band = _lower_band(dim, epsilon, dim)
    if not np.isfinite(band).all():
        raise ArithmeticError(
            f"build_hamiltonian(dim={dim}, epsilon={epsilon!r}): H has a non-finite entry; lower epsilon"
        )
    return TruncatedOperator(dim, band)


def diagonalize(op: TruncatedOperator) -> SpectralDecomposition:
    """Every eigenpair of ``op``, through the verified parity solve of its band."""
    return SpectralDecomposition(op.dim, *_parity_solve(op.band, op.dim, f"diagonalize(dim={op.dim})"))


def _parity_solve(band: np.ndarray, count: int, solve: str) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``count`` eigenpairs of the H whose lower band is ``band``, ascending, verified.

    The even-n block and then the odd-n one are built from the band and
    solved, and the lowest ``count`` pairs of each are kept; a block that
    ``eigh`` cannot solve raises ArithmeticError naming ``solve``. The two
    sets are merged in ascending order (even first on a tie), scattered back
    to full-length vectors and checked against the full band with a banded
    mat-vec, so an H that overflows fails the check.
    """
    dim = band.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            w_even, v_even = _solve_block(_band_block(band, 0), count)
            w_odd, v_odd = _solve_block(_band_block(band, 1), count)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"{solve}: eigh failed on a parity block: {exc}") from exc
        w = np.concatenate([w_even, w_odd])
        order = np.argsort(w, kind="stable")[:count]
        odd = order >= w_even.size
        v = np.zeros((dim, count))
        v[0::2, ~odd] = v_even[:, order[~odd]]
        v[1::2, odd] = v_odd[:, order[odd] - w_even.size]
        del v_even, v_odd  # released before the check holds its own dim x count arrays
        w = w[order]
        # ||H||_F, each off-diagonal band row standing for two diagonals
        _check_eigenpairs(_band_matvec(band, v), v, w, _norm(np.vstack([band, band[1:]])))
    return w, v


def _solve_block(h: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``count`` (at most all) eigenpairs of one block, the vectors C-ordered."""
    w, v = np.linalg.eigh(h)
    keep = min(count, w.size)
    return w[:keep], v[:, :keep].copy()  # a copy frees the block's other vectors


def _norm(a: np.ndarray, axis: int | None = None) -> Any:
    """``np.linalg.norm(a, axis=axis)``, of ``a`` over its largest |entry| so no square overflows."""
    big = np.abs(a).max(axis=axis, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # nan where a holds inf or nan
        return np.linalg.norm(a / np.maximum(big, np.finfo(a.dtype).tiny), axis=axis) * big.squeeze(axis)


def _check_eigenpairs(hv: np.ndarray, v: np.ndarray, w: np.ndarray, scale: float) -> None:
    """Raise ArithmeticError unless the eigenpairs (w, v) of H pass verification.

    ``hv`` is H @ v, overwritten with the residual. Each residual column must
    stay within 1e-9 * ``scale`` (||H||_F), a finite bound, and v orthonormal within 1e-10.
    """
    hv -= v * w
    resid, bound = float(_norm(hv, axis=0).max()), 1e-9 * float(scale)
    if not resid <= bound < math.inf:  # a nan fails
        raise ArithmeticError(f"eigenpair residual {resid:.3e} is not within 1e-9 * ||H|| = {bound:.3e}")
    defect = v.T @ v
    defect[np.diag_indices_from(defect)] -= 1.0
    ortho = np.abs(defect, out=defect).max()
    if float(ortho) > 1e-10:
        raise ArithmeticError(f"eigenvector orthonormality defect {ortho:.3e} exceeds 1e-10")


def _lower_band(dim: int, epsilon: float, count: int) -> np.ndarray:
    """Lower band of the truncated H, for a solve of ``count`` levels.

    Row k holds the subdiagonal at offset 2k, ``band[k, j] = H[j + 2k, j]``;
    the odd offsets are zero by parity and not stored. The diagonals are
    closed-form products of the truncated quadratures x and q, where p = i q,
    so p^2 = -q^2 and p^4 = q^2 q^2 keep the truncation edge of the
    brute-force matrix products. epsilon is checked by the caller, so that
    the large-epsilon warning points at the code that called it. A solve
    whose block or verification would exceed ``SOLVE_BUDGET_BYTES`` is
    refused here, before anything is allocated.
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

    The band goes through the parity solve, so no dim x dim matrix is formed.
    """
    if not 1 <= count <= dim:
        raise ValueError(f"count={count} must lie in 1..dim={dim}")
    _check_epsilon(epsilon)
    with np.errstate(over="ignore", invalid="ignore"):  # an H that overflows fails the check
        band = _lower_band(dim, epsilon, count)
    return _parity_solve(band, count, f"lowest_levels(dim={dim}, epsilon={epsilon!r}, count={count})")[0]


def default_cutoff(alpha0: float = 0.0, r: float = 0.0) -> int:
    """Fock cutoff policy: large enough that Poisson and squeezed tails sit below 1e-12."""
    return max(256, int(np.ceil(8.0 * (alpha0 * alpha0 + 1.0))), int(np.ceil(32.0 * np.exp(2.0 * r))))
