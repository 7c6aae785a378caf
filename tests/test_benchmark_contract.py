"""What the benchmark relies on: the preset goldens and the traced call signatures.

``perfbench/golden.json`` holds the sha256 of every preset sweep in both
formats; the benchmark fails a job whose output differs, so the same check
runs here. The traced benchmark binds ``presets.run_sweep(spec)``,
``report.emit(..., rows)`` and ``homodyne_trap.simulate_i_diff(..., shots,
...)`` by parameter name, counts points and rows with ``len`` of the table,
and counts failed checks from ``run_selfcheck(...).checks``. It fails every
selfcheck job whose check names differ from its ``SELFCHECK_NAMES``.
"""

import ast
import dataclasses
import hashlib
import inspect
import json
import os
import typing

import pytest

from relqsl import homodyne_trap, presets, report, selfcheck
from relqsl.cli import run_subcommand

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
GOLDEN = os.path.join(PERFBENCH, "golden.json")


def _golden_sha256() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["sha256"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("preset", ["fig1", "fig2", "fig4"])
def test_preset_sweep_matches_golden_digest(preset, fmt, tmp_path):
    out = tmp_path / f"{preset}.{fmt}"
    assert run_subcommand(["sweep", "--preset", preset, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _golden_sha256()[f"{preset}.{fmt}"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_traced_names_and_table_length():
    assert len(presets.run_sweep(presets.PRESETS["fig2"])[1]) == 240
    assert "spec" in inspect.signature(presets.run_sweep).parameters
    assert "rows" in inspect.signature(report.emit).parameters
    # the selfcheck workload's hooks: shots by name, and the report's checks
    assert "shots" in inspect.signature(homodyne_trap.simulate_i_diff).parameters
    assert typing.get_type_hints(selfcheck.run_selfcheck)["return"] is report.RunReport
    assert {"checks"} <= {f.name for f in dataclasses.fields(report.RunReport)}
    assert {"passed"} <= {f.name for f in dataclasses.fields(report.CheckEntry)}


def _benchmark_selfcheck_names() -> set[str]:
    """``SELFCHECK_NAMES`` of perfbench/outputs.py, read from its syntax tree."""
    with open(os.path.join(PERFBENCH, "outputs.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SELFCHECK_NAMES"]:
            assert isinstance(node.value, ast.Call) and node.value.func.id == "frozenset"
            return ast.literal_eval(node.value.args[0])
    raise AssertionError("perfbench/outputs.py defines no SELFCHECK_NAMES")


def test_selfcheck_check_names_match_the_benchmark():
    """A new or renamed check needs the benchmark's list changed first."""
    names = [check.name for check in selfcheck.run_selfcheck(42).checks]
    assert len(names) == len(set(names))
    assert set(names) == _benchmark_selfcheck_names()
