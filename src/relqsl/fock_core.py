"""Truncated Fock-space linear algebra for the quartic-corrected oscillator.

Exact-diagonalization oracle used to validate every closed form in this
package: H = (p^2 + x^2)/2 - eps*p^4/8 on the lowest ``dim`` Fock levels and
its spectrum, in natural units (m = omega = hbar = 1). H is defined once, by
``_lower_band``: its diagonals in closed form, as the products of the
truncated quadratures x and q (p = i q) give them. So H is a real symmetric
float64 band, and no dim x dim matrix of it is formed here. The brute force
that this band is checked against, H from ladder matrices and
``matrix_power(p, 4)``, lives in the tests.

H couples n only to n+-2 and n+-4, so it splits exactly into an even-n and
an odd-n block, and one parity solve serves both solvers: it builds each
block from the band, asks LAPACK for the block's eigenvalues only, and
certifies every kept level by an inertia count (Sylvester's law) of the
block's LDL^T factorization, so no eigenvector is formed. ``diagonalize``
asks it for every level of ``build_hamiltonian``'s band; ``lowest_levels``
asks for the lowest levels only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .arrays import SOLVE_BUDGET_BYTES

MIN_DIM = 8
# The solve holds one (dim/2) x (dim/2) parity block at a time: the block
# and numpy's copy of it, which the eigenvalue-only ?syevd reduces in place;
# at dim 4096 peak RSS above baseline measured 4.09 * dim**2 bytes both at
# count 11 and at count dim/4 + 1 (spectrum's most). The bound stays at the
# 12 * dim**2 that the eigenvector solve (11.4 measured) needed, so MAX_DIM
# and the refusal above it are unchanged.
SOLVE_BYTES_PER_DIM2 = 12
MAX_DIM = math.isqrt(SOLVE_BUDGET_BYTES // SOLVE_BYTES_PER_DIM2)
# Stored diagonals of H, at offsets 0, 2 and 4: the quartic term couples n to
# n+-4, and parity zeroes the odd offsets.
BAND_ROWS = 3
# pivots held at once by the inertia count, per shift
_PIVOT_ROWS = 64
EPSILON_WARN_THRESHOLD = 0.1
_PARITIES = ("even", "odd")


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
    """The spectrum of a truncated operator: its ``dim`` eigenvalues, ascending."""

    dim: int
    eigenvalues: np.ndarray

    def __post_init__(self):
        if self.eigenvalues.shape != (self.dim,):
            raise ValueError("eigenvalue count does not match dim")
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
    dim whose solve by ``diagonalize`` would exceed the memory budget is
    refused before the band is allocated, and an epsilon so large that an
    entry of H overflows raises ArithmeticError.
    """
    _check_epsilon(epsilon)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        band = _lower_band(dim, epsilon)
    _require_finite_band(band, f"build_hamiltonian(dim={dim}, epsilon={epsilon!r})")
    return TruncatedOperator(dim, band)


def diagonalize(op: TruncatedOperator) -> SpectralDecomposition:
    """Every eigenvalue of ``op``, through the certified parity solve of its band."""
    return SpectralDecomposition(op.dim, _parity_solve(op.band, op.dim, f"diagonalize(dim={op.dim})"))


def _require_finite_band(band: np.ndarray, solve: str) -> None:
    if not np.isfinite(band).all():
        raise ArithmeticError(f"{solve}: H has a non-finite entry; lower epsilon")


def _parity_solve(band: np.ndarray, count: int, solve: str) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the H whose lower band is ``band``, ascending, certified.

    A band with an entry that is not finite is refused before LAPACK sees
    it. The even-n block and then the odd-n one are built from the band and
    solved by ``eigvalsh``, the lowest ``count`` levels of each are kept, and
    ``_certify`` checks both sets in one pass; a block that ``eigvalsh``
    cannot solve, or a level that fails its certificate, raises
    ArithmeticError naming ``solve``. The two sets are merged in ascending
    order.
    """
    _require_finite_band(band, solve)
    kept = []
    for parity, name in enumerate(_PARITIES):
        try:
            kept.append(np.linalg.eigvalsh(_band_block(band[:, parity::2]))[:count])
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"{solve}: eigvalsh failed on the {name} block: {exc}") from exc
    _certify(band, kept, solve)
    return np.sort(np.concatenate(kept))[:count]


def _certify(band: np.ndarray, kept: list[np.ndarray], solve: str) -> None:
    """Raise ArithmeticError unless ``kept[p]`` holds the parity-p block's lowest levels, each within delta.

    delta is 1e-9 ||H||_F. Level k (0-based) of a block B passes when
    B - sigma I has at most k negative pivots at sigma = level - delta and at
    least k + 1 at sigma = level + delta: by Sylvester's law of inertia the
    block's true k-th level then lies within delta of it, so a wrong level
    fails, and so does a skipped one. The at-most/at-least form, not
    equality, passes an exact degenerate pair. A pivot that is not finite
    fails.
    """
    # 1e-9 * ||H||_F, each off-diagonal band row standing for two diagonals
    delta = 1e-9 * _norm(np.vstack([band, band[1:]]))
    levels = np.array([np.resize(w, kept[0].size) for w in kept])  # the odd block may keep one fewer
    below, above = np.split(_negative_pivots(band, np.hstack([levels - delta, levels + delta])), 2, axis=1)
    for parity, w in enumerate(kept):
        index = np.arange(w.size)
        passed = (below[parity, : w.size] <= index) & (above[parity, : w.size] >= index + 1)
        failed = np.flatnonzero(~passed)  # a nan count fails
        if failed.size:
            k = int(failed[0])
            raise ArithmeticError(
                f"{solve}: {_PARITIES[parity]} block level {k} = {float(w[k])!r} is not certified: "
                f"B - sigma I has {below[parity, k]:g} and {above[parity, k]:g} negative pivots at "
                f"sigma = level -+ {delta:.3e} (1e-9 * ||H||_F), where at most {k} and at least {k + 1} "
                "are needed"
            )


def _negative_pivots(band: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The number of negative pivots of the LDL^T factorization of B_p - sigma I, for sigma = shifts[p, i].

    B_p is the parity-p block of the H whose lower band is ``band``, and
    entries past the edge of H are read as zero. Both blocks are factorized
    in one pass, without pivoting and for every shift at once: row j of the
    loop is row j of each block (n = 2j and 2j + 1), and the loop keeps the
    leading 2 x 2 window of each Schur complement, as its entries S[j, j],
    S[j + 1, j] and S[j + 1, j + 1]. The even block of an odd dim has one row
    more, whose pivot is the one the loop leaves. Pivots are counted
    ``_PIVOT_ROWS`` rows at a time, since numpy's per-call cost, not
    arithmetic, sets the loop's time. A shift at which some pivot is not
    finite counts nan.
    """
    dim = band.shape[1]
    rows = dim // 2
    padded = np.zeros((BAND_ROWS, dim + 4))
    for k, row in enumerate(band):
        padded[k, : dim - 2 * k] = row[: dim - 2 * k]
    # row j of the loop reads B_p[j + 2, j], B_p[j + 2, j + 1] and B_p[j + 2, j + 2],
    # which are H[n + 4, n], H[n + 4, n + 2] and H[n + 4, n + 4] at n = 2j + p
    coefficients = np.stack([padded[2, : 2 * rows], padded[1, 2 : 2 * rows + 2], padded[0, 4 : 2 * rows + 4]])
    negative = np.zeros(shifts.shape)
    finite = np.ones(shifts.shape, dtype=bool)
    pivots = []
    d0, d1 = padded[0, 0:2, None] - shifts, padded[0, 2:4, None] - shifts
    e0 = np.broadcast_to(padded[1, 0:2, None], shifts.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # counted as nan below
        for j, (f, g, h) in enumerate(coefficients.reshape(3, rows, 2, 1).transpose(1, 0, 2, 3)):
            pivots.append(d0)
            if len(pivots) == _PIVOT_ROWS or j == rows - 1:
                held = np.array(pivots)
                negative += (held < 0).sum(axis=0)
                finite &= np.isfinite(held).all(axis=0)
                pivots.clear()
            t, u = e0 / d0, f / d0  # the pivot column of L below row j
            d0, e0, d1 = d1 - e0 * t, g - f * t, (h - shifts) - f * u
    if dim % 2:
        negative[0] += d0[0] < 0
        finite[0] &= np.isfinite(d0[0])
    negative[~finite] = math.nan
    return negative


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` of a finite ``a``, of ``a`` over its largest |entry| so no square overflows."""
    big = np.abs(a).max()
    with np.errstate(over="ignore"):  # a norm past the largest float is inf, and no level certifies
        return float(np.linalg.norm(a / np.maximum(big, np.finfo(a.dtype).tiny)) * big)


def _lower_band(dim: int, epsilon: float) -> np.ndarray:
    """Lower band of the truncated H.

    Row k holds the subdiagonal at offset 2k, ``band[k, j] = H[j + 2k, j]``;
    the odd offsets are zero by parity and not stored. The diagonals are
    closed-form products of the truncated quadratures x and q, where p = i q,
    so p^2 = -q^2 and p^4 = q^2 q^2 keep the truncation edge of the
    brute-force matrix products. epsilon is checked by the caller, so that
    the large-epsilon warning points at the code that called it. A dim whose
    solve would exceed ``SOLVE_BUDGET_BYTES`` is refused here, before
    anything is allocated.
    """
    _check_min_dim(dim)
    need = SOLVE_BYTES_PER_DIM2 * dim * dim
    if need > SOLVE_BUDGET_BYTES:
        raise ValueError(
            f"dim={dim} needs about {need} bytes ({need / 1024**3:.1f} GiB) to solve, "
            f"over the {SOLVE_BUDGET_BYTES / 1024**3:.0f} GiB budget; use dim <= {MAX_DIM}"
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


def _band_block(rows: np.ndarray) -> np.ndarray:
    """The block whose lower band is ``rows``, filled on its lower triangle."""
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
    with np.errstate(over="ignore", invalid="ignore"):  # an H that overflows is refused by the solve
        band = _lower_band(dim, epsilon)
    return _parity_solve(band, count, f"lowest_levels(dim={dim}, epsilon={epsilon!r}, count={count})")


def default_cutoff(alpha0: float = 0.0, r: float = 0.0) -> int:
    """Fock cutoff policy: large enough that Poisson and squeezed tails sit below 1e-12."""
    return max(256, int(np.ceil(8.0 * (alpha0 * alpha0 + 1.0))), int(np.ceil(32.0 * np.exp(2.0 * r))))
