"""First-order perturbative spectrum and eigenstates for the -eps*p^4/8 correction.

Closed forms for the shifted levels, the level spacing and the eigenstate
mixing across n+-2 and n+-4. All of it is validated elsewhere against the
dense matrices in fock_core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_core import SpectralDecomposition, StateVector


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
