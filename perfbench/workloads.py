"""Seeded job lists for the benchmark workloads.

A job is one `relqsl` CLI invocation plus what its output check needs to
know. Every drawn value comes from ``random.Random(seed)``, so one seed
always yields the same jobs and inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))

PRESET_NAMES = ("fig1", "fig2", "fig4")
FORMATS = ("csv", "json")

# Seeded qsl_coherent grid: 126 x 30 x 30 = 113,400 rows whatever the seed.
GRID_COUNTS = {"t": 126, "alpha0_sq": 30, "epsilon": 30}
GRID_COLUMNS = ("t", "alpha0_sq", "epsilon", "t_mt", "t_ml", "t_qsl", "near_revival")

SPECTRUM_DIMS = (256, 512, 1024)
SPECTRUM_EPS_MIN = 1e-4
# epsilon * dim stays at or below this, below the cutoff turnover 8/(3 eps)
SPECTRUM_EPS_DIM_MAX = 1.5

SELFCHECK_JOBS = 4

WORKLOADS = ("sweep-grid", "oracle-spectrum", "selfcheck")


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` follows ``relqsl``; ``out`` is the file it writes."""

    name: str
    kind: str
    argv: tuple[str, ...]
    out: str
    expect: dict[str, Any] = field(default_factory=dict)


def load_golden() -> dict[str, Any]:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        return json.load(handle)


def grid_axes(rng: random.Random) -> list[tuple[str, float, float, int]]:
    """(name, start, step, count) of the seeded grid; the seed moves origins and epsilon."""
    return [
        ("t", rng.uniform(0.02, 0.1), 0.05, GRID_COUNTS["t"]),
        ("alpha0_sq", rng.uniform(0.05, 0.15), 0.1, GRID_COUNTS["alpha0_sq"]),
        ("epsilon", rng.uniform(0.0, 0.002), rng.uniform(0.002, 0.003), GRID_COUNTS["epsilon"]),
    ]


def grid_config_text(axes: list[tuple[str, float, float, int]]) -> str:
    lines = ["[sweep]", "target = qsl_coherent"]
    for i, (name, start, step, count) in enumerate(axes, start=1):
        lines += [
            f"axis{i}_name = {name}",
            f"axis{i}_start = {start!r}",
            f"axis{i}_stop = {start + (count - 1) * step!r}",
            f"axis{i}_step = {step!r}",
        ]
    return "\n".join(lines) + "\n"


def _sweep_grid(rng: random.Random, workdir: str) -> list[Job]:
    golden = load_golden()["sha256"]
    jobs = []
    for preset in PRESET_NAMES:
        for fmt in FORMATS:
            out = os.path.join(workdir, f"{preset}.{fmt}")
            jobs.append(Job(
                name=f"sweep {preset} {fmt}",
                kind="preset",
                argv=("sweep", "--preset", preset, "--format", fmt, "--out", out),
                out=out,
                expect={"sha256": golden[f"{preset}.{fmt}"]},
            ))
    axes = grid_axes(rng)
    config_path = os.path.join(workdir, "grid.ini")
    with open(config_path, "w", encoding="utf-8") as handle:
        handle.write(grid_config_text(axes))
    sample_seed = rng.randrange(2**32)
    for fmt in FORMATS:
        out = os.path.join(workdir, f"grid.{fmt}")
        jobs.append(Job(
            name=f"sweep grid {fmt}",
            kind="grid",
            argv=("sweep", "--config", config_path, "--format", fmt, "--out", out),
            out=out,
            expect={"axes": axes, "format": fmt, "sample_seed": sample_seed},
        ))
    return jobs


def _oracle_spectrum(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for dim in SPECTRUM_DIMS:
        for nmax in (10, dim // 4):
            lo, hi = math.log(SPECTRUM_EPS_MIN), math.log(SPECTRUM_EPS_DIM_MAX / dim)
            eps = math.exp(rng.uniform(lo, hi))
            out = os.path.join(workdir, f"spectrum_{dim}_{nmax}.csv")
            jobs.append(Job(
                name=f"spectrum d{dim} n{nmax}",
                kind="spectrum",
                argv=("spectrum", "--dim", str(dim), "--nmax", str(nmax),
                      "--epsilon", repr(eps), "--out", out),
                out=out,
                expect={"dim": dim, "nmax": nmax, "epsilon": eps},
            ))
    return jobs


def _selfcheck(rng: random.Random, workdir: str) -> list[Job]:
    # Seeds come from a pool on which every Monte-Carlo verdict passes: the
    # checks use a 3-sigma limit, so about 2% of arbitrary seeds fail by
    # chance, and a chance failure would read as a regression.
    pool = load_golden()["selfcheck_seeds"]
    jobs = []
    for i, seed in enumerate(rng.sample(pool, SELFCHECK_JOBS)):
        out = os.path.join(workdir, f"selfcheck_{i}.json")
        jobs.append(Job(
            name=f"selfcheck seed {seed}",
            kind="selfcheck",
            argv=("selfcheck", "--seed", str(seed), "--out", out),
            out=out,
            expect={"seed": seed},
        ))
    return jobs


_BUILDERS = {
    "sweep-grid": _sweep_grid,
    "oracle-spectrum": _oracle_spectrum,
    "selfcheck": _selfcheck,
}


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Build the job list and write its input files into ``workdir``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


# Known defects, run outside the timed jobs and outside the failure count.
PROBES = (
    ("spectrum", "--epsilon", "0.08", "--dim", "256"),
    ("spectrum", "--epsilon", "2e-3", "--dim", "1024", "--nmax", "256"),
)
