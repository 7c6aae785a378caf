"""First-order perturbative spectrum and operators for the -eps*p^4/8 correction.

Closed forms for the shifted levels, the eigenstate mixing across n+-2 and
n+-4, and the corrected ladder and quadrature operators. All of it is
validated elsewhere against the dense matrices in fock_core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_core import SpectralDecomposition, StateVector, TruncatedOperator, build_ladder, build_number


@dataclass(frozen=True)
class MixingCoefficients:
    """First-order mixing amplitudes of level n into n+4, n+2, n-2, n-4.

    Entries whose target index would be negative are exactly zero.
    """

    n: int
    b4: float
    b2: float
    bm2: float
    bm4: float


def energy(n: int, epsilon: float) -> float:
    """First-order level energy n + 1/2 - epsilon*(6n^2 + 6n + 3)/32."""
    return n + 0.5 - epsilon * (6 * n * n + 6 * n + 3) / 32.0


def mixing_coefficients(n: int) -> MixingCoefficients:
    if n < 0:
        raise ValueError("level index must be non-negative")
    b4 = -math.sqrt((n + 1) * (n + 2) * (n + 3) * (n + 4)) / 4.0
    b2 = (2 * n + 3) * math.sqrt((n + 1) * (n + 2))
    bm2 = -(2 * n - 1) * math.sqrt(n * (n - 1)) if n >= 2 else 0.0
    bm4 = math.sqrt((n - 3) * (n - 2) * (n - 1) * n) / 4.0 if n >= 4 else 0.0
    return MixingCoefficients(n=n, b4=b4, b2=b2, bm2=bm2, bm4=bm4)


def perturbed_eigenstate(n: int, epsilon: float, dim: int) -> StateVector:
    """First-order eigenvector in the bare number basis, renormalized.

    |n> = |n0> - (eps/32) [B4 |n+4> + B2 |n+2> + Bm2 |n-2> + Bm4 |n-4>].
    The explicit renormalization only touches O(eps^2).
    """
    if n + 4 >= dim:
        raise ValueError(
            f"cutoff violation: level n={n} mixes into n+4={n + 4}, needs dim > {n + 4}"
        )
    coef = mixing_coefficients(n)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    amps[n + 4] -= epsilon / 32.0 * coef.b4
    amps[n + 2] -= epsilon / 32.0 * coef.b2
    if n >= 2:
        amps[n - 2] -= epsilon / 32.0 * coef.bm2
    if n >= 4:
        amps[n - 4] -= epsilon / 32.0 * coef.bm4
    amps /= np.linalg.norm(amps)
    return StateVector(dim, amps)


def corrected_operators(
    epsilon: float, dim: int
) -> tuple[TruncatedOperator, TruncatedOperator, TruncatedOperator, TruncatedOperator]:
    """Corrected (a, adag, x, p) expressed through the bare ladder matrices.

    a  = a0 + (eps/32)(-2 a0^3 + 6 N0 a0dag - a0dag^3)
    x  = (a0dag + a0)/sqrt2 + (3 eps/(32 sqrt2)) (a0^3 + a0dag^3 - 2[a0 N0 + N0 a0dag])
    p  = i (a0dag - a0)/sqrt2 - (3i eps/(32 sqrt2)) (a0^3 - a0dag^3)

    adag is the conjugate transpose of a; x and p are Hermitian by
    construction. Note that x and p here are independent first-order
    expressions, not the quadrature recombination of a and adag.
    """
    if dim < 16:
        raise ValueError(f"dim={dim} too small; corrected operators need at least 16 levels")
    a0_op, adag0_op = build_ladder(dim)
    a0 = a0_op.entries
    ad0 = adag0_op.entries
    n0 = build_number(dim).entries
    a03 = np.linalg.matrix_power(a0, 3)
    ad03 = np.linalg.matrix_power(ad0, 3)

    a = a0 + epsilon / 32.0 * (-2.0 * a03 + 6.0 * n0 @ ad0 - ad03)
    adag = a.conj().T
    s2 = math.sqrt(2.0)
    x = (ad0 + a0) / s2 + 3.0 * epsilon / (32.0 * s2) * (a03 + ad03 - 2.0 * (a0 @ n0 + n0 @ ad0))
    p = 1j * (ad0 - a0) / s2 - 3j * epsilon / (32.0 * s2) * (a03 - ad03)
    return (
        TruncatedOperator(dim, a),
        TruncatedOperator(dim, adag),
        TruncatedOperator(dim, x),
        TruncatedOperator(dim, p),
    )


def level_spacing(n: int, epsilon: float) -> float:
    """energy(n) - energy(n-1) = 1 - (3/8) n epsilon, exact at first order."""
    if n < 1:
        raise ValueError("spacing needs n >= 1")
    return energy(n, epsilon) - energy(n - 1, epsilon)


def phase_aligned_column(spec: SpectralDecomposition, n: int) -> np.ndarray:
    """Exact eigenvector of level n, rotated so its overlap with |n0> is real positive.

    Eigen-solvers return columns with arbitrary phases; comparisons against
    perturbed_eigenstate need this fixed convention.
    """
    col = spec.eigenvectors[:, n]
    pivot = col[n]
    if abs(pivot) < 1e-6:
        raise ValueError(
            f"eigenvector {n} has negligible weight on |{n}0>; "
            "level ordering or cutoff is suspect"
        )
    return col * (pivot.conjugate() / abs(pivot))
