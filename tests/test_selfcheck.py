"""The cross-validation battery: verdicts, determinism, and failure wiring."""

import math
import os

import numpy as np
import pytest

from relqsl import fock_core, homodyne_trap, perturbation, selfcheck
from relqsl.report import render_json
from relqsl.selfcheck import (
    AMPLITUDES,
    EPS_PAIR,
    FIDELITY_TIMES,
    ORACLE_DIM,
    _halving,
    fidelity_residuals,
    moment_residuals,
    run_selfcheck,
)

EXPECTED_CHECK_NAMES = {
    "energy_order",
    "coherent_fidelity_oracle",
    "squeezed_fidelity_oracle",
    "coherent_moment_oracle",
    "squeezed_moment_oracle",
    "squeezed_bound_gap_monotone",
    "squeeze_factor_lift",
    "qkd_noise_monotonicity",
    "qkd_predictor_dominance",
    "qkd_zero_epsilon_addendum",
    "trap_crossover_synthetic",
    "bhd_error_propagation_identity",
    "homodyne_counting_mc",
    "qkd_rotation_mc",
}

EXPECTED_DISCREPANCY_NAMES = {
    "level_spacing_rules",
    "shot_noise_reference_value",
    "crossover_closed_vs_numeric",
    "ml_normalization_variants",
    "squeezed_short_time_identity",
}


# every test here fails if it leaves a child process unreaped
pytestmark = pytest.mark.usefixtures("no_child_left")


@pytest.fixture(scope="module")
def report():
    return run_selfcheck(42)


def test_battery_passes(report):
    failing = [c.name for c in report.checks if not c.passed]
    assert failing == []
    assert report.passed
    assert report.seed == 42


def test_check_roster(report):
    assert {c.name for c in report.checks} == EXPECTED_CHECK_NAMES
    mc = {c.name for c in report.checks if c.monte_carlo}
    assert mc == {"homodyne_counting_mc", "qkd_rotation_mc"}


def test_discrepancies_carry_numbers_on_both_sides(report):
    by_name = {d.name: d for d in report.discrepancies}
    assert set(by_name) == EXPECTED_DISCREPANCY_NAMES

    spacing = by_name["level_spacing_rules"].values
    assert spacing["first_order"] == pytest.approx(0.999625, rel=1e-12)
    assert spacing["quoted_rule"] == pytest.approx(0.988, rel=1e-12)
    assert spacing["slope_ratio"] == 32.0

    shot = by_name["shot_noise_reference_value"].values
    assert shot["computed_1s"] == pytest.approx(1.6781277400152137e-22, rel=1e-12, abs=0)
    assert shot["reference_1s"] == 5.3e-22
    assert shot["ratio"] == pytest.approx(shot["reference_1s"] / shot["computed_1s"], rel=1e-12)

    crossover = by_name["crossover_closed_vs_numeric"].values
    assert crossover["closed_s"] == pytest.approx(865.0455666694274, rel=1e-12)
    assert crossover["ratio"] == pytest.approx(crossover["two_nu_factor"], rel=1e-9, abs=0)

    ml = by_name["ml_normalization_variants"].values
    assert ml["angle"] == pytest.approx(math.acos(math.exp(-2.0)), rel=1e-12)
    assert ml["mean_energy"] == 1.5
    assert ml["adopted"] == pytest.approx(0.8740164088960273, rel=1e-12)
    assert ml["adopted"] != ml["variant_half"]
    assert ml["variant_pi"] == pytest.approx(4.0 * ml["variant_pi_half"] / 2.0, rel=1e-12)

    # the closed squeezed fidelity runs on half the clock of the short-time identity
    identity = by_name["squeezed_short_time_identity"].values
    assert len(identity) == 9
    for r in (0.2, 0.5, 1.0):
        assert identity[f"var_over_curvature_r{r}"] == pytest.approx(4.0, rel=1e-5, abs=0)
        assert identity[f"mt_zeroth_over_t_r{r}"] == pytest.approx(0.5, rel=1e-5, abs=0)
        assert identity[f"half_clock_diff_r{r}"] <= 1e-15


def test_config_echo_carries_defaults(report):
    assert report.config["spectrum"]["dim"] == 256
    assert report.config["qkd"]["beta"] == 0.95
    assert "selfcheck" in report.config


def test_deterministic_outside_monte_carlo(report):
    other = run_selfcheck(7)
    got = {c.name: c for c in other.checks}
    for check in report.checks:
        if check.monte_carlo:
            continue
        assert got[check.name].measured == check.measured, check.name
    assert other.passed


def test_monte_carlo_uses_the_seed(report):
    other = run_selfcheck(7)
    ours = {c.name: c.measured for c in report.checks if c.monte_carlo}
    theirs = {c.name: c.measured for c in other.checks if c.monte_carlo}
    assert any(ours[name] != theirs[name] for name in ours)


def test_broken_spectrum_is_caught(monkeypatch):
    true_energy = perturbation.energy

    def flipped(n, epsilon):
        return true_energy(n, epsilon) + 64.0 * epsilon * np.square(n)

    monkeypatch.setattr(perturbation, "energy", flipped)
    report = run_selfcheck(42)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["energy_order"].passed
    assert not report.passed
    # the oracle comparisons bind the unpatched closed forms at import time
    assert by_name["coherent_fidelity_oracle"].passed


def test_one_dense_decomposition_per_epsilon(monkeypatch):
    calls = []
    diagonalize = fock_core.diagonalize

    def counted(op):
        calls.append(op.dim)
        return diagonalize(op)

    monkeypatch.setattr(fock_core, "diagonalize", counted)
    assert run_selfcheck(42).passed
    assert calls == [256, 256]


@pytest.mark.parametrize("pair", [(1e-3, 5e-4), (5e-4, 1e-3)])
def test_halving_reads_the_pair_from_its_keys(pair):
    # ratios 4 and 4.5 sit in the window; 5.4e-6 exceeds 5 eps^2 at eps = 1e-3 only
    residuals = {1e-3: np.array([4.8e-6, 5.4e-6]), 5e-4: np.array([1.2e-6, 1.2e-6])}
    ratios, passed = _halving({eps: residuals[eps] for eps in pair}, cap=False)
    assert ratios == pytest.approx([4.0, 4.5], rel=1e-12)
    assert passed
    _, capped = _halving({eps: residuals[eps] for eps in pair}, cap=True)
    assert not capped


def test_shared_residuals_reproduce_the_report(report):
    measured = {c.name: c.measured for c in report.checks}
    spectra = {
        eps: fock_core.diagonalize(fock_core.build_hamiltonian(ORACLE_DIM, eps))
        for eps in EPS_PAIR
    }
    for kind, par in AMPLITUDES.items():
        fidelity = fidelity_residuals(kind, par, FIDELITY_TIMES, EPS_PAIR)[EPS_PAIR[0]]
        got = measured[f"{kind}_fidelity_oracle"]
        assert fidelity.tolist() == [got[f"diff_t{t}"] for t in FIDELITY_TIMES]
        moments = moment_residuals(spectra, kind, par)[EPS_PAIR[0]]
        got = measured[f"{kind}_moment_oracle"]
        assert moments.tolist() == [got["diff_mean"], got["diff_var"]]


def _texts(report) -> tuple[str, str]:
    return report.render_text(), render_json(report.to_json_obj())


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_homodyne_draws_fork_once_on_two_or_more_cpus(cpus, report, monkeypatch, set_cpus):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    set_cpus(cpus)
    assert _texts(run_selfcheck(42)) == _texts(report)
    assert len(forks) == (cpus > 1)


def test_failed_fork_runs_the_draws_in_process(report, monkeypatch, set_cpus):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    set_cpus(2)
    assert _texts(run_selfcheck(42)) == _texts(report)


def test_failed_child_is_reaped_and_its_draws_run_in_process(report, monkeypatch, set_cpus):
    parent, zscores = os.getpid(), selfcheck._homodyne_zscores

    def fails_in_a_child(rng):
        if os.getpid() != parent:
            raise RuntimeError("draws fail in the child")
        return zscores(rng)

    statuses = []
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda *a: statuses.append(waitpid(*a)) or statuses[-1])
    monkeypatch.setattr(selfcheck, "_homodyne_zscores", fails_in_a_child)
    set_cpus(2)
    assert _texts(run_selfcheck(42)) == _texts(report)
    assert [os.waitstatus_to_exitcode(status) for _, status in statuses] == [1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_out_of_range_counts_reach_the_caller(cpus, monkeypatch, set_cpus):
    def overflows(cfg, shots, rng):
        raise ArithmeticError("photocount of 40000 at port mean 6.5")

    monkeypatch.setattr(homodyne_trap, "simulate_i_diff", overflows)
    set_cpus(cpus)
    with pytest.raises(ArithmeticError, match="photocount of 40000"):
        run_selfcheck(42)


# A selfcheck that prints its child's pid, then stalls in its own share of the checks
STALLED_SELFCHECK = """
import os, time
from relqsl import selfcheck
os.sched_getaffinity = lambda pid: {0, 1}
fork = os.fork

def printing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

def stalls_in_the_parent(seed):
    print("stalled", flush=True)
    time.sleep(600)

os.fork, selfcheck._in_process_checks = printing_fork, stalls_in_the_parent
selfcheck.run_selfcheck(42)
"""


def test_child_of_a_killed_selfcheck_exits(children_of_killed_parent):
    children, left = children_of_killed_parent(STALLED_SELFCHECK)
    assert len(children) == 1
    assert left == []
