"""First-order perturbative spectrum for the -eps*p^4/8 correction.

Closed forms for the shifted levels and the level spacing, validated
elsewhere against the dense matrices in fock_core.
"""

from __future__ import annotations


def energy(n: int, epsilon: float) -> float:
    """First-order level energy n + 1/2 - epsilon*(6n^2 + 6n + 3)/32."""
    return n + 0.5 - epsilon * (6 * n * n + 6 * n + 3) / 32.0


def level_spacing(n: int, epsilon: float) -> float:
    """energy(n) - energy(n-1) = 1 - (3/8) n epsilon, exact at first order."""
    if n < 1:
        raise ValueError("spacing needs n >= 1")
    return energy(n, epsilon) - energy(n - 1, epsilon)
