"""Per-layer timings from an in-process run of one workload.

Run in a fresh process, so the first diagonalization is a cold one:

    python3 perfbench/layers.py --workload W --seed S --seconds T --workdir DIR

with ``src`` on PYTHONPATH. Jobs go through ``cli.run_subcommand(argv)``.
Passes alternate traced and untraced; the ratio of their wall times is the
tracing overhead. The last stdout line is one JSON object.

While a traced job runs, every public function of each relqsl module is
replaced by a timing wrapper at every module attribute that holds it, so a
name bound with ``from .x import y`` is wrapped where the caller looks it up
(``cli.emit``, ``states.energy``). A span is named after the module that
defines the function, which is its layer. The CLI handlers ``cli._cmd_*``
are wrapped too, to split argument parsing from the work. A sweep opens
about a million spans, so spans are folded into per-function totals as they
close instead of being stored: the open spans form a stack (each span's
parent is the one below it), and a span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict
from typing import Any, Callable

import outputs
import workloads
from relqsl import cli

LAYERS = (
    "cli", "config", "presets", "qsl_bounds", "metrology", "report",
    "fock_core", "perturbation", "states", "homodyne_trap", "qkd_model", "selfcheck",
)
# Called once per output cell; a span each would multiply the traced
# rendering time, so their time stays in the calling report function.
UNWRAPPED = frozenset({"report.plain", "report.format_cell"})
TARGETS = ("qsl_coherent", "qsl_squeezed", "squeeze_factor")
FOCK_DIMS = (256, 512, 1024)

# Work counts for the dense oracle, computed from array sizes, not measured.
# build_hamiltonian makes four complex d x d products (p@p, x@x and the two
# of matrix_power(p, 4)) and combines three results into H; diagonalize runs
# zheevd with vectors (~36 d^3 real flops; H in, vectors out), then two
# verifying complex products and the scaled-vector and identity arrays of
# its checks. A complex product costs 8 d^3 flops and touches three arrays;
# each array holds 16 d^2 bytes.
BUILD_FLOPS_PER_D3 = 4 * 8
DIAG_FLOPS_PER_D3 = 36 + 2 * 8
BUILD_ARRAYS = 4 * 3 + 3
DIAG_ARRAYS = 2 + 2 * 3 + 2


class Tracer:
    """Timing wrappers for the relqsl modules, with hooks that record counts."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.first_diagonalize: float | None = None
        self._patches: list[tuple[Any, str, Any]] = []
        self._hooks: dict[str, Callable[..., None]] = {
            "fock_core.build_hamiltonian": self._on_build,
            "fock_core.diagonalize": self._on_diagonalize,
            "presets.run_sweep": self._on_sweep,
            "report.write_text": self._on_write,
            "report.emit": self._on_emit,
            "homodyne_trap.simulate_i_diff": self._on_shots,
            "selfcheck.run_selfcheck": self._on_selfcheck,
        }

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self.calls.clear()

    # hooks get (duration, bound arguments by name, result)
    def _on_build(self, dur: float, args: dict, result: Any) -> None:
        self.calls[f"build.d{result.dim}"].append(dur)
        self.counts["flops"] += BUILD_FLOPS_PER_D3 * result.dim**3
        self.counts["bytes"] += BUILD_ARRAYS * 16 * result.dim**2

    def _on_diagonalize(self, dur: float, args: dict, result: Any) -> None:
        if self.first_diagonalize is None:
            self.first_diagonalize = dur
        else:
            self.calls[f"diagonalize.d{result.dim}"].append(dur)
        self.counts["flops"] += DIAG_FLOPS_PER_D3 * result.dim**3
        self.counts["bytes"] += DIAG_ARRAYS * 16 * result.dim**2
        self.counts["eigenpairs_computed"] += result.dim

    def _on_sweep(self, dur: float, args: dict, result: Any) -> None:
        points, target = len(result[1]), args["spec"].target
        self.counts["points"] += points
        self.counts[f"points.{target}"] += points
        self.counts[f"sweep_s.{target}"] += dur

    def _on_write(self, dur: float, args: dict, result: Any) -> None:
        self.counts["bytes_written"] += len(args["text"])

    def _on_emit(self, dur: float, args: dict, result: Any) -> None:
        self.counts["rows_emitted"] += len(args["rows"])

    def _on_shots(self, dur: float, args: dict, result: Any) -> None:
        self.counts["shots"] += args["shots"]

    def _on_selfcheck(self, dur: float, args: dict, result: Any) -> None:
        self.counts["checks_failed"] += sum(not c.passed for c in result.checks)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, stats, clock = self.stack, self.stats, time.perf_counter
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                entry = stats[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
            if hook is not None:
                hook(dur, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        names: dict[int, str] = {}
        for layer in LAYERS:
            module = sys.modules[f"relqsl.{layer}"]
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or (layer == "cli" and attr.startswith("_cmd_"))
                name = f"{layer}.{attr}"
                if (public and inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and name not in UNWRAPPED):
                    names[id(obj)] = name
        wrappers: dict[int, Callable] = {}
        for module_name, module in list(sys.modules.items()):
            if module_name != "relqsl" and not module_name.startswith("relqsl."):
                continue
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or id(obj) not in names:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(names[id(obj)], obj)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)


def pass_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose job wall times sum to ``wall``."""
    stats, counts = tracer.stats, tracer.counts

    def total(name: str) -> float:
        return stats[name][1] if name in stats else 0.0

    def calls(prefix: str) -> float:
        """Calls of every function whose span name starts with ``prefix``."""
        return sum(entry[0] for name, entry in stats.items() if name.startswith(prefix))

    def median_call(key: str) -> float:
        return statistics.median(tracer.calls[key]) if tracer.calls.get(key) else 0.0

    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, entry in stats.items():
        self_s[name.partition(".")[0]] += entry[2]
    handler = sum(entry[1] for name, entry in stats.items() if name.startswith("cli._cmd_"))
    m = {
        "cli.parse_s": total("cli.run_subcommand") - handler,
        "cli.handler_s": handler,
        "config.load_s": total("config.load_config"),
        "presets.points": counts["points"],
        "presets.run_sweep_s": total("presets.run_sweep"),
    }
    for target in TARGETS:
        points = counts[f"points.{target}"]
        m[f"presets.us_per_point.{target}"] = (
            1e6 * counts[f"sweep_s.{target}"] / points if points else 0.0
        )
    m.update({
        "qsl_bounds.calls": calls("qsl_bounds."),
        "metrology.calls": calls("metrology."),
        "report.render_csv_s": total("report.render_csv"),
        "report.render_json_s": total("report.render_json"),
        "report.write_s": total("report.write_text"),
        "report.bytes": counts["bytes_written"],
    })
    for dim in FOCK_DIMS:
        m[f"fock_core.build_s.d{dim}"] = median_call(f"build.d{dim}")
        m[f"fock_core.diagonalize_s.d{dim}"] = median_call(f"diagonalize.d{dim}")
    computed = counts["spectrum_eigenpairs_computed"]
    m.update({
        "fock_core.flops_computed": counts["flops"],
        "fock_core.bytes_computed": counts["bytes"],
        "fock_core.eigenpairs_used_ratio": (
            counts["spectrum_rows"] / computed if computed else 0.0
        ),
        "homodyne_trap.simulate_i_diff_s": total("homodyne_trap.simulate_i_diff"),
        "homodyne_trap.shots": counts["shots"],
        "qkd_model.key_rate_calls": calls("qkd_model.key_rate"),
        "qkd_model.key_rate_s": total("qkd_model.key_rate"),
        "qkd_model.simulate_rotation_penalty_s": total("qkd_model.simulate_rotation_penalty"),
        "selfcheck.run_s": total("selfcheck.run_selfcheck"),
        "selfcheck.checks_failed": counts["checks_failed"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.unattributed_s"] = wall - sum(self_s.values())
    return m


def run_pass(jobs: list[workloads.Job], tracer: Tracer | None) -> tuple[float, list[tuple[str, list[str]]]]:
    """Run the job list once in-process; returns summed job wall time and problems per job."""
    wall, results = 0.0, []
    for job in jobs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.out)
        problems: list[str] = []
        if tracer is not None:
            tracer.install()
            before = (tracer.counts["rows_emitted"], tracer.counts["eigenpairs_computed"])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_subcommand(list(job.argv))
        except Exception:
            code = -1
            problems.append(traceback.format_exc(limit=-2))
        wall += time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            if job.kind == "spectrum":
                counts = tracer.counts
                counts["spectrum_rows"] += counts["rows_emitted"] - before[0]
                counts["spectrum_eigenpairs_computed"] += counts["eigenpairs_computed"] - before[1]
        found, _ = outputs.check(job, code)
        results.append((job.name, problems + found))
    return wall, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    jobs = workloads.make_jobs(args.workload, args.seed, args.workdir)
    tracer = Tracer()
    walls: dict[str, list[float]] = {"traced": [], "untraced": []}
    per_pass: list[dict[str, float]] = []
    attempted, problems = 0, []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for traced in (True, False):
            tracer.reset()
            wall, results = run_pass(jobs, tracer if traced else None)
            walls["traced" if traced else "untraced"].append(wall)
            if traced:
                per_pass.append(pass_metrics(tracer, wall))
            attempted += len(results)
            problems += [(name, found) for name, found in results if found]
        now = time.perf_counter()
        if now - start + (now - pair_start) > args.seconds:
            break

    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["fock_core.diagonalize_first_s"] = tracer.first_diagonalize or 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["untraced"])
    )
    print(json.dumps({
        "metrics": metrics,
        "walls": walls,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:10],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
