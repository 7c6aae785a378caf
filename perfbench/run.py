"""relqsl benchmark: cold CLI start plus seeded batch workloads.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

Workloads: sweep-grid, oracle-spectrum, selfcheck (see workloads.py);
``--workload all`` runs each in turn and ends with a table of every metric
per workload.

With ``--trace 0`` one client runs a closed loop: each job is a fresh
``python -m relqsl.cli ...`` process, started when the previous one has
ended, because a batch user pays the cold import on every call. The job list
repeats while another pass fits in ``--seconds``. Every output is checked
(outputs.py); a wrong output counts as a failed job. With ``--trace 1`` the
workload runs in-process with each layer's public functions timed
(layers.py), and import costs come from ``-X importtime``.

BLAS and OpenMP threads are pinned to 1 in the children's environment only.
Before any result, stdout carries a readable report: the environment, every
metric with its unit and sample count, failed_ratio, and two known-defect
probes that run outside the timed jobs and the failure count. The last line
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# Every process this benchmark starts is killed once the run has lasted
# this long, so a hung job cannot keep the run from ending.
RUN_DEADLINE_S = 165.0

_START = time.perf_counter()


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _remaining() -> float:
    return max(1.0, RUN_DEADLINE_S - (time.perf_counter() - _START))


def child_env() -> dict[str, str]:
    """The caller's environment with src importable, threads pinned, bytecode cached.

    Bytecode goes to __pycache__ beside the sources, as for an installed
    package, so only the untimed first call compiles.
    """
    env = dict(os.environ)
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_cli(argv: list[str] | tuple[str, ...], stderr_path: str) -> tuple[int, float, float]:
    """Run ``relqsl <argv>`` as a fresh process; returns (exit code, wall s, max RSS MB).

    Max RSS is read for this child alone through wait4.
    """
    env = child_env()
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "relqsl.cli", *argv],
            cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(_remaining(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_times() -> list[float]:
    """Cold ``relqsl --version`` wall times; one untimed call first writes the bytecode cache."""
    err = os.path.join(WORKDIR, "setup.err")
    times = []
    for i in range(SETUP_REPEATS + 1):
        code, wall, _ = run_cli(["--version"], err)
        if code != 0:
            raise RuntimeError(f"relqsl --version exited {code}")
        if i:
            times.append(wall)
    return times


def run_jobs(workload: str, seed: int, seconds: float) -> list[list[dict[str, Any]]]:
    """Closed loop over the seeded job list; returns every job record, grouped by pass.

    Another pass starts only while it is expected to end within ``seconds``.
    """
    import outputs

    jobs = workloads.make_jobs(workload, seed, WORKDIR)
    err = os.path.join(WORKDIR, "job.err")
    passes: list[list[dict[str, Any]]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        records = []
        for job in jobs:
            if os.path.exists(job.out):
                os.remove(job.out)
            code, wall, rss = run_cli(job.argv, err)
            problems, rows = outputs.check(job, code)
            if code != 0:
                with open(err, encoding="utf-8", errors="replace") as handle:
                    problems += handle.read().strip().splitlines()[-2:]
            records.append({"job": job.name, "wall": wall, "rss": rss, "rows": rows,
                            "problems": problems})
        passes.append(records)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds or _remaining() < 2 * (now - pass_start):
            return passes


def untraced_metrics(passes: list[list[dict[str, Any]]], setup: list[float]) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics and their sample counts.

    Each job's wall time is its median over the passes; the job list's wall
    time sums those, and its slowest job is their maximum.
    """
    records = [r for records in passes for r in records]
    job_walls = [statistics.median(p[i]["wall"] for p in passes) for i in range(len(passes[0]))]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(job_walls),
        "job_p50_s": statistics.median(r["wall"] for r in records),
        "job_max_s": max(job_walls),
        "points_per_s": sum(r["rows"] for r in passes[0]) / sum(job_walls),
        "peak_rss_mb": max(r["rss"] for r in records),
    }
    samples = {
        "setup_s": len(setup),
        "wall_s": len(records),
        "job_p50_s": len(records),
        "job_max_s": len(passes),
        "points_per_s": len(records),
        "peak_rss_mb": len(records),
    }
    return metrics, samples


def import_times() -> dict[str, float]:
    """Median over fresh processes of ``-X importtime`` for ``import relqsl.cli``.

    import.relqsl_s is the cumulative time of the relqsl package plus
    relqsl.cli; the scipy and mpmath figures sum the self time of every
    module of theirs, wherever in the tree it was imported.
    """
    samples: dict[str, list[float]] = {"relqsl": [], "scipy": [], "mpmath": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import relqsl.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=_remaining(), check=True,
        )
        sums = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if not line.startswith("import time:") or len(fields) != 3 or "[us]" in line:
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
            if name in ("relqsl", "relqsl.cli"):
                sums["relqsl"] += cumulative_us / 1e6
            for package in ("scipy", "mpmath"):
                if name == package or name.startswith(package + "."):
                    sums[package] += self_us / 1e6
        for key, value in sums.items():
            samples[key].append(value)
    return {f"import.{key}_s": statistics.median(values) for key, values in samples.items()}


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "relqsl", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def run_traced(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    metrics = import_times()
    with open(os.path.join(WORKDIR, "layers.err"), "w", encoding="utf-8") as err:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "layers.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--workdir", WORKDIR],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err, text=True,
            timeout=_remaining(), check=False,
        )
    if proc.returncode != 0:
        with open(os.path.join(WORKDIR, "layers.err"), encoding="utf-8") as handle:
            raise RuntimeError(f"layers.py exited {proc.returncode}:\n{handle.read()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    metrics["src.lines"] = src_lines()
    result["metrics"] = metrics
    return result


def run_probes() -> list[dict[str, Any]]:
    """The two known-defect spectrum commands: exit code, E0 and max |residual|."""
    found = []
    for i, argv in enumerate(workloads.PROBES):
        out = os.path.join(WORKDIR, f"probe_{i}.csv")
        code, _, _ = run_cli([*argv, "--out", out], os.path.join(WORKDIR, "probe.err"))
        entry: dict[str, Any] = {"argv": " ".join(argv), "exit": code}
        if code == 0:
            with open(out, encoding="utf-8") as handle:
                rows = [line.split(",") for line in handle.read().splitlines()[1:]]
            entry["E0"] = float(rows[0][2])
            entry["max_abs_residual"] = max(abs(float(row[3])) for row in rows)
        found.append(entry)
    return found


def environment() -> dict[str, Any]:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_version,
        "thread_pin": {var: "1" for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _print_table(rows: list[tuple[str, float, str, Any]]) -> None:
    print(f"  {'metric':<44} {'value':>14}  {'unit':<6} samples")
    for name, value, unit, samples in rows:
        print(f"  {name:<44} {value:>14.6g}  {unit:<6} {samples}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, then one table of every metric per workload."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_DEADLINE_S + 15, check=True,
        )
        sys.stdout.write(proc.stdout + "\n")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    print(f"  {'metric':<44} {'unit':<6}" + "".join(f" {w:>16}" for w in results))
    for name in names:
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"  {name:<44} {unit:<6}"
              + "".join(f" {r['metrics'][name]['value']:>16.6g}" for r in results.values()))
    print(f"  {'failed_ratio':<44} {'':<6}"
          + "".join(f" {r['failed'] / r['attempted']:>16.4g}" for r in results.values()))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="relqsl benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "relqsl", "cli.py")):
        print(f"error: no relqsl sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, SRC)

    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        print(f"relqsl benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("environment: " + json.dumps(environment()))
        if args.trace:
            result = run_traced(args.workload, args.seed, args.seconds)
            metrics = result["metrics"]
            attempted, failed = result["attempted"], result["failed"]
            problems = result["problems"]
            walls = result["walls"]
            print("in-process pass wall times: "
                  + "; ".join(f"{mode} " + ", ".join(f"{w:.3f} s" for w in walls[mode])
                              for mode in ("traced", "untraced")))
            print("per-layer metrics (medians over traced passes):")
            units = declared_units("per_layer")
            _print_table([(k, v, units[k], len(walls["traced"])) for k, v in sorted(metrics.items())])
            layers = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
            print("layer self time, largest first: "
                  + ", ".join(f"{k.removesuffix('.self_s')} {v:.3f}s" for v, k in layers)
                  + f"; unattributed {metrics['trace.unattributed_s']:.3f}s")
        else:
            setup = setup_times()
            passes = run_jobs(args.workload, args.seed, args.seconds)
            metrics, samples = untraced_metrics(passes, setup)
            records = [r for p in passes for r in p]
            attempted = len(records)
            failed = sum(bool(r["problems"]) for r in records)
            problems = [(r["job"], r["problems"]) for r in records if r["problems"]]
            print(f"jobs: {len(passes[0])} per pass, {len(passes)} passes")
            for r in passes[0]:
                print(f"  {r['job']:<28} {r['wall']:8.3f} s  {r['rss']:7.1f} MB  {r['rows']} rows")
            print("end-to-end metrics:")
            units = declared_units("end_to_end")
            _print_table([(k, v, units[k], samples[k]) for k, v in metrics.items()])
        print(f"failed_ratio: {failed / attempted:.4g} ({failed} of {attempted} jobs)")
        for name, found in problems[:10]:
            print(f"  FAILED {name}: {'; '.join(found)[:500]}")
        print("known-defect probes (not timed, not counted as failures):")
        for probe in run_probes():
            print("  " + json.dumps(probe))

        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }))
        return 0
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
