import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqsl.qsl_bounds import coherent_fidelity_closed, squeezed_fidelity_closed
from relqsl.states import (
    TAIL_LIMIT,
    CoherentSpec,
    SqueezeSpec,
    StateVector,
    coherent_amplitudes,
    coherent_overlap_numeric,
    coherent_tail,
    squeezed_coeffs,
    squeezed_overlap_numeric,
    squeezed_state,
)
from relqsl.states import _log_factorial, _pair_tail

DIM = 256

# overlap moduli pinned against the pair-index Fock propagation
EXPECTED_OVERLAPS = {
    ("coherent", 1.0, 1.0, 0.0): 0.6314745151064698,
    ("squeezed", 0.3, 1.0, 0.0): 0.9779770365590911,
    ("squeezed", 0.3, 1.0, 1e-4): 0.9779785574400698,
}


def squeezed_coeffs_closed(spec: SqueezeSpec, n_pairs: int) -> np.ndarray:
    """Closed form f(2n) = sqrt((2n)!) (-tanh r)^n / (2^n n! sqrt(cosh r)).

    The independent reference the recursion in ``squeezed_coeffs`` is held
    to; assembled in log-space so large n does not overflow.
    """
    if spec.r >= 5.0:
        raise ValueError(f"r={spec.r} is beyond the supported range (r < 5)")
    ns = np.arange(n_pairs)
    th = math.tanh(spec.r)
    if th == 0.0:
        out = np.zeros(n_pairs)
        out[0] = 1.0
        return out
    logmag = (
        _log_factorial(2 * ns) / 2.0
        - ns * math.log(2.0)
        - _log_factorial(ns)
        + ns * math.log(th)
        - math.log(math.cosh(spec.r)) / 2.0
    )
    return np.exp(logmag) * (-1.0) ** ns


def test_spec_validation():
    with pytest.raises(ValueError):
        CoherentSpec(-0.1)
    with pytest.raises(ValueError):
        SqueezeSpec(-0.5)


def test_specs_refuse_nan():
    with pytest.raises(ValueError, match="alpha0 must be non-negative, got nan"):
        CoherentSpec(math.nan)
    with pytest.raises(ValueError, match="r must be non-negative, got nan"):
        SqueezeSpec(math.nan)


def _stdout_within_30_s(code: str) -> str:
    """What ``code`` prints in a fresh interpreter, which fails the test after 30 s."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30, check=True).stdout


@pytest.mark.parametrize("alpha0", ["nan", "inf", "1e200"])
def test_coherent_tail_refuses_a_non_finite_mean_in_finite_time(alpha0):
    """Its stop test never holds for such a mean, so a fresh interpreter, bounded
    by a timeout, shows a hang as a failure instead of stalling the suite."""
    code = (
        "from relqsl.states import coherent_tail\n"
        "try:\n"
        f"    coherent_tail(float({alpha0!r}), 256)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    assert _stdout_within_30_s(code) == (
        f"coherent_tail needs a finite mean alpha0^2, got alpha0={float(alpha0)!r}\n"
    )


def test_coherent_amplitudes_poissonian():
    state = coherent_amplitudes(CoherentSpec(1.0), DIM)
    assert state.amps[0] == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert state.amps[2] == pytest.approx(math.exp(-0.5) / math.sqrt(2.0), rel=1e-14)
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_coherent_phase_convention():
    # alpha = alpha0 is real: every amplitude is real and non-negative
    state = coherent_amplitudes(CoherentSpec(1.2), DIM)
    assert np.all(state.amps.imag == 0.0)
    assert np.all(state.amps.real >= 0.0)


def test_coherent_vacuum():
    state = coherent_amplitudes(CoherentSpec(0.0), DIM)
    assert state.amps[0] == 1.0
    assert np.all(state.amps[1:] == 0)
    assert coherent_tail(0.0, DIM) == 0.0


def test_coherent_cutoff_guards():
    with pytest.raises(ValueError, match="use dim >="):
        coherent_amplitudes(CoherentSpec(2.0), 8)
    with pytest.raises(ValueError, match="cap"):
        coherent_amplitudes(CoherentSpec(31.0), 16384)


def test_squeezed_coeff_recursion_vs_closed_form():
    for r in (0.1, 0.5, 1.2):
        rec = squeezed_coeffs(SqueezeSpec(r), 64)
        closed = squeezed_coeffs_closed(SqueezeSpec(r), 64)
        assert np.allclose(rec, closed, rtol=1e-13, atol=1e-300)


def test_squeezed_coeffs_closed_at_r_zero_is_the_vacuum():
    closed = squeezed_coeffs_closed(SqueezeSpec(0.0), 8)
    assert closed.dtype == np.float64
    assert closed.tolist() == squeezed_coeffs(SqueezeSpec(0.0), 8).tolist() == [1.0] + [0.0] * 7


def test_state_vector_norm_check():
    amps = np.zeros(DIM, dtype=complex)
    amps[0] = 0.9
    with pytest.raises(ValueError):
        StateVector(DIM, amps)


def test_state_vector_refuses_nan_amplitudes():
    amps = np.zeros(DIM)
    amps[0] = math.nan
    with pytest.raises(ValueError, match="state norm nan deviates from 1"):
        StateVector(DIM, amps)


def test_amplitudes_are_float64():
    pairs = squeezed_coeffs(SqueezeSpec(0.5), 8), squeezed_coeffs_closed(SqueezeSpec(0.5), 8)
    vectors = coherent_amplitudes(CoherentSpec(1.0), DIM), squeezed_state(SqueezeSpec(0.5), DIM)
    assert [a.dtype for a in pairs + tuple(v.amps for v in vectors)] == [np.float64] * 4


def test_squeezed_coeffs_validation():
    with pytest.raises(ValueError):
        squeezed_coeffs(SqueezeSpec(5.0), 32)
    with pytest.raises(ValueError):
        squeezed_coeffs(SqueezeSpec(0.5), 0)
    with pytest.raises(ValueError):
        squeezed_coeffs_closed(SqueezeSpec(5.0), 32)


def test_squeezed_state_structure():
    state = squeezed_state(SqueezeSpec(0.5), DIM)
    assert np.all(state.amps[1::2] == 0)
    assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)
    assert state.amps[0] == pytest.approx(1.0 / math.sqrt(math.cosh(0.5)), rel=1e-14)


def test_squeezed_tail_control():
    assert _pair_tail(squeezed_coeffs(SqueezeSpec(0.5), DIM // 2)) <= 1e-12
    with pytest.raises(ValueError, match="tail"):
        squeezed_state(SqueezeSpec(2.5), 16)


def test_overlap_frozen_points():
    for (kind, par, t, eps), expected in EXPECTED_OVERLAPS.items():
        if kind == "coherent":
            got = abs(coherent_overlap_numeric(CoherentSpec(par), t, eps, DIM))
        else:
            got = abs(squeezed_overlap_numeric(SqueezeSpec(par), t, eps, DIM))
        assert got == pytest.approx(expected, rel=1e-12)


def test_overlap_is_one_at_t_zero():
    assert coherent_overlap_numeric(CoherentSpec(1.5), 0.0, 1e-3, DIM) == pytest.approx(1.0)
    assert squeezed_overlap_numeric(SqueezeSpec(0.8), 0.0, 1e-3, DIM) == pytest.approx(1.0)


def test_coherent_overlap_matches_closed_form_at_zero_epsilon():
    """Uncorrected Poisson overlap equals exp(a0^2 (cos t - 1)) pointwise."""
    for alpha0 in (0.5, 1.0, 2.0):
        for t in (0.3, 1.0, 2.7, 5.5):
            got = abs(coherent_overlap_numeric(CoherentSpec(alpha0), t, 0.0, DIM))
            assert got == pytest.approx(coherent_fidelity_closed(alpha0, t, 0.0), abs=1e-13)


def test_squeezed_overlap_matches_closed_form_at_zero_epsilon():
    for r in (0.2, 0.5, 1.0):
        for t in (0.3, 1.0, 2.7):
            got = abs(squeezed_overlap_numeric(SqueezeSpec(r), t, 0.0, DIM))
            assert got == pytest.approx(squeezed_fidelity_closed(r, t, 0.0), abs=1e-13)


def test_overlap_periodicity_at_zero_epsilon():
    # the 1/2 ground-state energy contributes a global e^{-i t / 2}: a 2 pi
    # shift flips the sign of the overlap and leaves its modulus unchanged
    t = 1.3
    a = coherent_overlap_numeric(CoherentSpec(1.0), t, 0.0, DIM)
    b = coherent_overlap_numeric(CoherentSpec(1.0), t + 2.0 * math.pi, 0.0, DIM)
    assert a == pytest.approx(-b, abs=1e-10)
    assert abs(a) == pytest.approx(abs(b), abs=1e-12)
    c = squeezed_overlap_numeric(SqueezeSpec(0.5), t, 0.0, DIM)
    d = squeezed_overlap_numeric(SqueezeSpec(0.5), t + 2.0 * math.pi, 0.0, DIM)
    assert c == pytest.approx(-d, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    alpha0=st.floats(0.0, 2.0),
    t=st.floats(0.0, 10.0),
    epsilon=st.floats(0.0, 1e-3),
)
def test_overlap_modulus_never_exceeds_one(alpha0, t, epsilon):
    got = abs(coherent_overlap_numeric(CoherentSpec(alpha0), t, epsilon, DIM))
    assert got <= 1.0 + 1e-12


def test_log_factorial_matches_gammaln():
    from scipy.special import gammaln

    ns = np.arange(16384)
    expected = gammaln(ns + 1.0)
    got = _log_factorial(ns)
    assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))
    assert all(_log_factorial(n) == got[n] for n in (0, 1, 2, 255, 16383))


def test_coherent_tail_matches_gammainc():
    from scipy.special import gammainc

    rng = np.random.default_rng(8)
    pairs = list(zip(rng.uniform(0.0, 30.0, 2000), rng.integers(1, 2048, 2000).tolist()))
    # deep tails down to ~1e-286, a mean far beyond the cutoff, and a tail of 1
    pairs += [(1.0, 150), (1.0, 160), (2.0, 180), (30.0, 1800), (30.0, 8), (1e-3, 40)]
    # the dims on both sides of where the tail crosses TAIL_LIMIT
    for alpha0 in np.linspace(0.05, 30.0, 200):
        crossing = int(np.argmax(gammainc(np.arange(1, 2048), alpha0 * alpha0) <= TAIL_LIMIT))
        pairs += [(alpha0, dim) for dim in range(crossing, crossing + 3)]
    # both sides of the mean, where one minus the head gives way to the upward series
    for alpha0 in (0.5, 1.0, 1.5, 3.3, 10.0, 30.0, 60.0):
        mean = int(alpha0 * alpha0)
        pairs += [(alpha0, dim) for dim in (1, max(1, mean // 2), *range(max(1, mean - 2), mean + 4))]
    compared = 0
    for alpha0, dim in pairs:
        expected = float(gammainc(dim, alpha0 * alpha0))
        got = coherent_tail(alpha0, dim)
        assert (got > TAIL_LIMIT) == (expected > TAIL_LIMIT), (alpha0, dim)
        if expected >= 1e-300:
            assert got == pytest.approx(expected, rel=1e-10, abs=0.0), (alpha0, dim)
            compared += 1
    assert compared > 1000


def test_coherent_tail_far_below_a_large_mean_is_one_in_finite_time():
    """The upward series alone would step once per unit of the mean, 1e8 steps,
    so a fresh interpreter bounded by a timeout shows a hang as a failure."""
    code = "from relqsl.states import coherent_tail\nprint(repr(coherent_tail(1e4, 256)))\n"
    assert _stdout_within_30_s(code) == "1.0\n"


def test_coherent_tail_of_an_underflowing_mean_is_zero():
    # alpha0^2 underflows to 0 although alpha0 > 0
    assert coherent_tail(5e-324, DIM) == 0.0
    assert abs(coherent_overlap_numeric(CoherentSpec(5e-324), 1.0, 1e-4, DIM)) <= 1.0
