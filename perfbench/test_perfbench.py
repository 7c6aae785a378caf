"""Tests of the benchmark itself: seeded inputs and the output checks.

    python3 -m pytest perfbench -q

A corrupted row, a wrong digest, an out-of-envelope residual and a selfcheck
report that contradicts its exit code must each be reported as a problem,
which the benchmark counts as a failed job.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import outputs  # noqa: E402
import workloads  # noqa: E402
from relqsl import cli, config, presets  # noqa: E402

SMALL_AXES = [("t", 0.07, 0.05, 5), ("alpha0_sq", 0.13, 0.1, 4), ("epsilon", 0.001, 0.003, 3)]


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_subcommand(argv)


def _grid_job(tmp_path, fmt: str) -> workloads.Job:
    config_path = tmp_path / "grid.ini"
    config_path.write_text(workloads.grid_config_text(SMALL_AXES))
    out = str(tmp_path / f"grid.{fmt}")
    assert _run(["sweep", "--config", str(config_path), "--format", fmt, "--out", out]) == 0
    return workloads.Job("grid", "grid", (), out,
                         {"axes": SMALL_AXES, "format": fmt, "sample_seed": 7})


def _corrupt_t_qsl(job: workloads.Job, fmt: str) -> None:
    with open(job.out, encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "json":
        rows = json.loads(text)
        rows[17]["t_qsl"] *= 1.0 + 1e-9
        text = json.dumps(rows)
    else:
        lines = text.splitlines()
        cells = lines[18].split(",")
        cells[5] = repr(float(cells[5]) * (1.0 + 1e-9))
        lines[18] = ",".join(cells)
        text = "\n".join(lines) + "\n"
    with open(job.out, "w", encoding="utf-8") as handle:
        handle.write(text)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_corrupted_grid_row_fails(tmp_path, fmt):
    job = _grid_job(tmp_path, fmt)
    assert outputs.check(job, 0) == ([], 60)
    _corrupt_t_qsl(job, fmt)
    problems, _ = outputs.check(job, 0)
    assert len(problems) == 1 and "row 17 t_qsl" in problems[0]


def test_wrong_digest_fails(tmp_path):
    out = str(tmp_path / "fig2.csv")
    assert _run(["sweep", "--preset", "fig2", "--format", "csv", "--out", out]) == 0
    golden = workloads.load_golden()["sha256"]["fig2.csv"]
    good = workloads.Job("fig2", "preset", (), out, {"sha256": golden})
    assert outputs.check(good, 0) == ([], 240)
    bad = workloads.Job("fig2", "preset", (), out, {"sha256": "0" * 64})
    problems, _ = outputs.check(bad, 0)
    assert problems and "differs from golden" in problems[0]


def test_spectrum_residual_outside_envelope_fails(tmp_path):
    out = str(tmp_path / "spectrum.csv")
    eps = 2e-3
    assert _run(["spectrum", "--dim", "256", "--nmax", "64", "--epsilon", repr(eps), "--out", out]) == 0
    job = workloads.Job("spectrum", "spectrum", (), out, {"dim": 256, "nmax": 64, "epsilon": eps})
    assert outputs.check(job, 0) == ([], 65)
    # the labelling defect past the cutoff turnover trips the envelope
    assert _run(["spectrum", "--dim", "1024", "--nmax", "256", "--epsilon", repr(eps), "--out", out]) == 0
    job = workloads.Job("spectrum", "spectrum", (), out, {"dim": 1024, "nmax": 256, "epsilon": eps})
    problems, _ = outputs.check(job, 0)
    assert any("exceeds" in p for p in problems)


def test_selfcheck_report_must_agree_with_exit_code(tmp_path):
    out = tmp_path / "selfcheck.json"
    report = {"seed": 3, "passed": True,
              "checks": [{"name": name, "passed": True} for name in outputs.SELFCHECK_NAMES]}
    out.write_text(json.dumps(report))
    job = workloads.Job("selfcheck", "selfcheck", (), str(out), {"seed": 3})
    assert outputs.check(job, 0) == ([], 14)
    problems, _ = outputs.check(job, 1)
    assert "exit code 1" in problems and any("'passed' is True" in p for p in problems)
    report["checks"].pop()
    out.write_text(json.dumps(report))
    assert any("missing ['" in p for p in outputs.check(job, 0)[0])


def test_missing_output_fails(tmp_path):
    job = workloads.Job("fig2", "preset", (), str(tmp_path / "absent.csv"), {"sha256": "0" * 64})
    problems, rows = outputs.check(job, 0)
    assert rows == 0 and problems[0].startswith("output unreadable")


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_seeded_grid_has_fixed_row_count(tmp_path, seed):
    jobs = workloads.make_jobs("sweep-grid", seed, str(tmp_path))
    assert jobs == workloads.make_jobs("sweep-grid", seed, str(tmp_path))
    section = config.parse_config_text((tmp_path / "grid.ini").read_text())["sweep"]
    spec = presets.sweep_from_config(section)
    assert math.prod(len(axis.values()) for axis in spec.axes) == 126 * 30 * 30


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_spectrum_epsilon_stays_in_domain(tmp_path, seed):
    for job in workloads.make_jobs("oracle-spectrum", seed, str(tmp_path)):
        eps, dim = job.expect["epsilon"], job.expect["dim"]
        assert workloads.SPECTRUM_EPS_MIN <= eps and eps * dim <= workloads.SPECTRUM_EPS_DIM_MAX


def test_selfcheck_seeds_come_from_the_pool(tmp_path):
    pool = set(workloads.load_golden()["selfcheck_seeds"])
    seeds = [job.expect["seed"] for job in workloads.make_jobs("selfcheck", 5, str(tmp_path))]
    assert len(set(seeds)) == workloads.SELFCHECK_JOBS and set(seeds) <= pool


def test_reported_metrics_match_benchmark_json():
    import layers
    import run

    setup = [1.0]
    passes = [[{"wall": 1.0, "rss": 1.0, "rows": 1}]]
    assert set(run.untraced_metrics(passes, setup)[0]) == set(run.declared_units("end_to_end"))
    traced = set(layers.pass_metrics(layers.Tracer(), 0.0)) | {
        "fock_core.diagonalize_first_s", "trace.overhead_ratio", "src.lines",
        "import.relqsl_s", "import.scipy_s", "import.mpmath_s",
    }
    assert traced == set(run.declared_units("per_layer"))
