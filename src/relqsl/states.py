"""Coherent and squeezed oscillator states and their semi-analytic overlaps.

Amplitude constructors work in log-space so large displacements do not
overflow, and the overlap routines propagate with the first-order corrected
spectrum. These overlaps are the oracles against which the closed-form
fidelities in qsl_bounds are tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock_core import StateVector
from .perturbation import energy

TAIL_LIMIT = 1e-12
ALPHA0_FOCK_CAP = 30.0
_EPSILON = np.finfo(float).eps


@dataclass(frozen=True)
class CoherentSpec:
    """Coherent state with real amplitude alpha = alpha0 >= 0."""

    alpha0: float

    def __post_init__(self):
        if not self.alpha0 >= 0:
            raise ValueError(f"alpha0 must be non-negative, got {self.alpha0}")


@dataclass(frozen=True)
class SqueezeSpec:
    """Squeezed vacuum with real squeeze parameter r >= 0."""

    r: float

    def __post_init__(self):
        if not self.r >= 0:
            raise ValueError(f"r must be non-negative, got {self.r}")


def _log_factorial(n):
    """ln(n!) of an int or of each entry of an int array, from math.lgamma.

    For n < 16384 it is within 1 ulp of scipy's gammaln.
    """
    if np.ndim(n) == 0:
        return math.lgamma(n + 1.0)
    return np.array([math.lgamma(k + 1.0) for k in n.tolist()])


def coherent_tail(alpha0: float, dim: int) -> float:
    """Poisson weight beyond the cutoff, P(N >= dim) for mean alpha0^2.

    This is the regularized lower incomplete gamma P(dim, alpha0^2). At or
    below the mean it is one minus the dim Poisson terms n < dim; above it,
    the series of terms n >= dim, which stops once they fall below the last
    bit of the total (a non-finite mean never does, so one is refused). Each
    term is formed in log space, so neither alpha0^(2n) nor n! overflows.
    """
    mean = alpha0 * alpha0
    if not mean < math.inf:
        raise ValueError(f"coherent_tail needs a finite mean alpha0^2, got alpha0={alpha0!r}")
    if mean == 0.0:  # alpha0 = 0, or alpha0^2 underflows
        return 0.0
    log_mean = math.log(mean)
    if dim <= mean:
        head = sum(math.exp(n * log_mean - mean - _log_factorial(n)) for n in range(dim))
        return max(0.0, 1.0 - head)
    total = 0.0
    n = dim
    while True:
        term = math.exp(n * log_mean - mean - _log_factorial(n))
        total += term
        n += 1
        if term <= total * _EPSILON:
            return min(total, 1.0)


def coherent_amplitudes(spec: CoherentSpec, dim: int) -> StateVector:
    """Poissonian amplitude vector amps[n] = e^{-a0^2/2} a0^n / sqrt(n!)."""
    if spec.alpha0 > ALPHA0_FOCK_CAP:
        raise ValueError(
            f"alpha0={spec.alpha0} exceeds the Fock-construction cap {ALPHA0_FOCK_CAP}; "
            "amplitudes this large are served by closed forms only"
        )
    tail = coherent_tail(spec.alpha0, dim)
    if tail > TAIL_LIMIT:
        need = dim
        while coherent_tail(spec.alpha0, need) > TAIL_LIMIT:
            need *= 2
        raise ValueError(
            f"truncation tail {tail:.3e} at dim={dim} exceeds {TAIL_LIMIT}; "
            f"use dim >= {need}"
        )
    amps = np.zeros(dim)
    if spec.alpha0 == 0.0:
        amps[0] = 1.0
        return StateVector(dim, amps)
    ns = np.arange(dim)
    logmag = (
        -spec.alpha0 * spec.alpha0 / 2.0 + ns * math.log(spec.alpha0) - _log_factorial(ns) / 2.0
    )
    return StateVector(dim, np.exp(logmag))


def _level_phase_sum(amps: np.ndarray, t: float, epsilon: float) -> complex:
    """sum_k |amps_k|^2 e^{-i E_k t}, with E_k the k-th first-order corrected level energy."""
    phases = np.exp(-1j * energy(np.arange(amps.size), epsilon) * t)
    return complex(np.sum(np.abs(amps) ** 2 * phases))


def coherent_overlap_numeric(spec: CoherentSpec, t: float, epsilon: float, dim: int) -> complex:
    """Overlap <state(0)|state(t)> summed over the Poisson weights.

    Each number component advances with the first-order corrected level
    energy. Semi-analytic oracle for the closed-form coherent fidelity.
    """
    return _level_phase_sum(coherent_amplitudes(spec, dim).amps, t, epsilon)


def squeezed_coeffs(spec: SqueezeSpec, n_pairs: int) -> np.ndarray:
    """Even-component amplitudes f(2k) for k = 0..n_pairs-1 via the two-term recursion.

    f(0) = sqrt(sech r); f(2k) = -tanh(r) sqrt((2k-1)/(2k)) f(2k-2).
    """
    if spec.r >= 5.0:
        raise ValueError(f"r={spec.r} is beyond the supported tail-controlled range (r < 5)")
    if n_pairs < 1:
        raise ValueError("need at least one pair coefficient")
    coeffs = np.zeros(n_pairs)
    coeffs[0] = 1.0 / math.sqrt(math.cosh(spec.r))
    factor = -math.tanh(spec.r)
    for k in range(1, n_pairs):
        coeffs[k] = factor * math.sqrt((2 * k - 1) / (2 * k)) * coeffs[k - 1]
    return coeffs


def _pair_tail(coeffs: np.ndarray) -> float:
    """Probability weight left above the last retained pair of ``coeffs``."""
    return max(0.0, 1.0 - float(np.sum(coeffs**2)))


def _checked_pairs(spec: SqueezeSpec, dim: int) -> np.ndarray:
    """The dim // 2 pair amplitudes f(2k), refused if their tail passes TAIL_LIMIT."""
    coeffs = squeezed_coeffs(spec, dim // 2)
    tail = _pair_tail(coeffs)
    if tail > TAIL_LIMIT:
        raise ValueError(
            f"squeezed tail {tail:.3e} at dim={dim} exceeds {TAIL_LIMIT}; increase the cutoff"
        )
    return coeffs


def squeezed_state(spec: SqueezeSpec, dim: int) -> StateVector:
    """StateVector with f(2k) at the even indices and zeros elsewhere."""
    amps = np.zeros(dim)
    amps[0 : 2 * (dim // 2) : 2] = _checked_pairs(spec, dim)
    return StateVector(dim, amps)


def squeezed_overlap_numeric(spec: SqueezeSpec, t: float, epsilon: float, dim: int) -> complex:
    """Overlap <state(0)|state(t)> for the squeezed vacuum.

    The k-th pair component |2k> advances with the k-th corrected level
    energy. This pair-index rule keeps the overlap 2*pi periodic in t at
    epsilon = 0 and is the convention under which the closed-form squeezed
    fidelity in qsl_bounds reproduces this sum to O(eps^2).
    """
    return _level_phase_sum(_checked_pairs(spec, dim), t, epsilon)
