"""Output checks: a job whose output is wrong counts as failed, however fast.

``check(job, returncode)`` returns the problems found (none when the output
is correct) and the number of rows the output holds. The checks recompute through the library's public scalar
functions, so ``relqsl`` must be importable (``src`` on ``sys.path``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import warnings
from typing import Any

import numpy as np

from relqsl import perturbation, qsl_bounds

from workloads import GRID_COLUMNS, Job

GRID_SAMPLE_ROWS = 64
# Recomputed cells must agree to this relative tolerance; the golden digests
# are the byte-identity gate, this catches answers that are simply wrong.
GRID_RTOL = 1e-12
# |residual| <= multiple * eps^2 (n + 1)^3 for levels n <= dim/4 with
# eps * dim <= 1.5; the largest ratio measured on that domain is 0.093.
SPECTRUM_RESIDUAL_MULTIPLE = 0.125
SELFCHECK_NAMES = frozenset({
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
})


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_table(path: str, fmt: str) -> tuple[list[str], list[list[str]] | list[dict[str, Any]]]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if fmt == "json":
        rows = json.loads(text)
        return (list(rows[0]) if rows else []), rows
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


def _cell(row: Any, header: list[str], name: str) -> Any:
    if isinstance(row, dict):
        return row[name]
    text = row[header.index(name)]
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=GRID_RTOL, abs_tol=1e-300)


def check_preset(job: Job) -> tuple[list[str], int]:
    got = sha256_file(job.out)
    want = job.expect["sha256"]
    _, rows = _read_table(job.out, job.out.rpartition(".")[2])
    return ([] if got == want else [f"sha256 {got[:12]} differs from golden {want[:12]}"]), len(rows)


def check_grid(job: Job) -> tuple[list[str], int]:
    """Row count, column set, and a seeded sample of rows recomputed in-process."""
    axes = job.expect["axes"]
    header, rows = _read_table(job.out, job.expect["format"])
    if tuple(header) != GRID_COLUMNS:
        return [f"columns {header} differ from {list(GRID_COLUMNS)}"], len(rows)
    counts = [count for _, _, _, count in axes]
    if len(rows) != math.prod(counts):
        return [f"{len(rows)} rows, expected {math.prod(counts)}"], len(rows)
    grids = [start + step * np.arange(count) for _, start, step, count in axes]
    problems = []
    rng = random.Random(job.expect["sample_seed"])
    for index in rng.sample(range(len(rows)), min(GRID_SAMPLE_ROWS, len(rows))):
        row = rows[index]
        i, rest = divmod(index, counts[1] * counts[2])
        j, k = divmod(rest, counts[2])
        t, a2, eps = (float(grids[0][i]), float(grids[1][j]), float(grids[2][k]))
        alpha0 = math.sqrt(a2)
        mt = qsl_bounds.mt_coherent(alpha0, t, eps)
        ml = qsl_bounds.ml_coherent(alpha0, t, eps)
        want = {
            "t": t, "alpha0_sq": a2, "epsilon": eps,
            "t_mt": mt.total, "t_ml": ml.total,
            "t_qsl": qsl_bounds.t_qsl(mt, ml).total, "near_revival": mt.near_revival,
        }
        for name, value in want.items():
            got = _cell(row, header, name)
            ok = got == value if isinstance(value, bool) else _close(got, value)
            if not ok:
                problems.append(f"row {index} {name}: got {got!r}, expected {value!r}")
    return problems, len(rows)


def check_spectrum(job: Job) -> tuple[list[str], int]:
    """Closed energies exact, residual = exact - closed, |residual| within the O(eps^2) envelope."""
    eps, nmax = job.expect["epsilon"], job.expect["nmax"]
    header, rows = _read_table(job.out, "csv")
    if header != ["n", "energy_closed", "energy_exact", "residual"]:
        return [f"unexpected header {header}"], len(rows)
    if [int(row[0]) for row in rows] != list(range(nmax + 1)):
        return [f"levels are not 0..{nmax}"], len(rows)
    problems = []
    limit = SPECTRUM_RESIDUAL_MULTIPLE * eps * eps
    for row in rows:
        n = int(row[0])
        closed, exact, residual = (float(x) for x in row[1:])
        if closed != perturbation.energy(n, eps):
            problems.append(f"n={n}: energy_closed {closed!r} != energy(n, eps)")
        if residual != exact - closed:
            problems.append(f"n={n}: residual is not energy_exact - energy_closed")
        if not abs(residual) <= limit * (n + 1) ** 3:
            problems.append(
                f"n={n}: |residual| {abs(residual):.3e} exceeds "
                f"{SPECTRUM_RESIDUAL_MULTIPLE} eps^2 (n+1)^3 = {limit * (n + 1) ** 3:.3e}"
            )
    return problems, len(rows)


def check_selfcheck(job: Job, returncode: int) -> tuple[list[str], int]:
    """The report parses, names all 14 checks, echoes the seed, and agrees with the exit code."""
    with open(job.out, encoding="utf-8") as handle:
        report = json.load(handle)
    problems = []
    names = {entry["name"] for entry in report.get("checks", [])}
    if names != SELFCHECK_NAMES:
        problems.append(f"check names differ: missing {sorted(SELFCHECK_NAMES - names)}, "
                        f"extra {sorted(names - SELFCHECK_NAMES)}")
    if report.get("seed") != job.expect["seed"]:
        problems.append(f"seed echo {report.get('seed')} != {job.expect['seed']}")
    passed = report.get("passed")
    if passed != all(entry["passed"] for entry in report.get("checks", [])):
        problems.append("'passed' disagrees with the individual verdicts")
    if passed != (returncode == 0):
        problems.append(f"'passed' is {passed} but the exit code is {returncode}")
    return problems, len(names)


def check(job: Job, returncode: int) -> tuple[list[str], int]:
    """Problems with one finished job, and the rows (or checks) its output holds.

    A non-zero exit is itself a problem.
    """
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    try:
        with warnings.catch_warnings():
            # recomputing grid points repeats the library's first-order
            # validity warnings, which the job itself already reported
            warnings.simplefilter("ignore")
            if job.kind == "preset":
                found, rows = check_preset(job)
            elif job.kind == "grid":
                found, rows = check_grid(job)
            elif job.kind == "spectrum":
                found, rows = check_spectrum(job)
            else:
                found, rows = check_selfcheck(job, returncode)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError, StopIteration) as exc:
        found, rows = [f"output unreadable: {type(exc).__name__}: {exc}"], 0
    return problems + found, rows
