"""Truncated Fock-space linear algebra for the quartic-corrected oscillator.

Dense-matrix oracle used to validate every closed form in this package:
ladder matrices, Hamiltonian assembly H = (p^2 + x^2)/2 - eps*p^4/8,
spectral decomposition, and exact time evolution. Everything here is in
natural units (m = omega = hbar = 1) and brute force by design; no
normal-ordering shortcuts are taken anywhere.

The dense pair ``build_hamiltonian``/``diagonalize`` stays the reference
for every oracle that needs the full eigenbasis (evolution, moments,
overlaps). When only the lowest levels are wanted, ``lowest_levels`` solves
the same truncated H in banded form: H is real and couples n only to n+-2
and n+-4, so its lower band has five rows and a selected-eigenvalue banded
solver needs O(d) memory for H instead of a complex d x d matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

MIN_DIM = 8
# The banded solver (LAPACK ?sbevx) keeps a dim x dim float64 matrix for the
# band reduction; dims whose matrix exceeds this budget are refused up front.
BANDED_WORKSPACE_BYTES = 2 * 1024**3
MAX_DIM = math.isqrt(BANDED_WORKSPACE_BYTES // 8)
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


def build_number(dim: int) -> TruncatedOperator:
    """Return the number operator a0dag a0 (diagonal 0..dim-1)."""
    return TruncatedOperator(dim, np.diag(np.arange(dim, dtype=np.complex128)))


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
    lower band storage; rows 1 and 3 are zero by parity). H is assembled
    from sparse products of the truncated quadratures x and q, where
    p = i q, so p^2 = -q^2 and p^4 = q^4 keep the truncation edge of the
    dense ``matrix_power(p, 4)``. Same epsilon and dim checks as the dense
    build, plus ``dim <= MAX_DIM``, checked before anything is allocated.
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
        need = 8 * dim * dim
        raise ValueError(
            f"dim={dim} needs a {dim} x {dim} float64 workspace in the banded solver, "
            f"{need} bytes ({need / 1024**3:.1f} GiB), over the "
            f"{BANDED_WORKSPACE_BYTES / 1024**3:.0f} GiB budget; use dim <= {MAX_DIM}"
        )
    import scipy.sparse

    off = np.sqrt(np.arange(1, dim) / 2.0)
    x = scipy.sparse.diags([off, off], offsets=[-1, 1], format="csr")
    q = scipy.sparse.diags([off, -off], offsets=[-1, 1], format="csr")
    q2 = q @ q
    h = (x @ x - q2) / 2.0 - epsilon * (q2 @ q2) / 8.0
    if abs(h - h.T).max() > HERMITIAN_ATOL:
        raise ArithmeticError("assembled Hamiltonian is not symmetric")
    band = np.zeros((BAND_ROWS, dim))
    for k in range(BAND_ROWS):
        band[k, : dim - k] = h.diagonal(-k)
    return band


def _band_matvec(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return H @ v for the symmetric H whose lower band is ``band``."""
    out = band[0][:, None] * v
    for k in range(1, band.shape[0]):
        diag = band[k, :-k, None]
        out[k:] += diag * v[:-k]
        out[:-k] += diag * v[k:]
    return out


def lowest_levels(dim: int, epsilon: float, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues, ascending, of the truncated H on ``dim`` levels.

    Solves the band of ``hamiltonian_band`` with LAPACK ?sbevx for the
    selected index range only. The result is verified as ``diagonalize``
    verifies its own: eigenpair residuals below 1e-9 * ||H||_F and
    orthonormality of the returned vectors below 1e-10, both measured
    against the band with a sparse mat-vec.
    """
    if not 1 <= count <= dim:
        raise ValueError(f"count={count} must lie in 1..dim={dim}")
    _check_epsilon(epsilon)
    band = _lower_band(dim, epsilon)
    import scipy.linalg

    w, v = scipy.linalg.eig_banded(band, lower=True, select="i", select_range=(0, count - 1))
    if w.shape != (count,) or np.any(np.diff(w) < 0):
        raise ArithmeticError(f"banded solver returned {w.size} eigenvalues, not {count} ascending")
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
