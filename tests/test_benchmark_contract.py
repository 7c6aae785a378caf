"""What the benchmark relies on: the preset goldens and the traced call signatures.

``perfbench/golden.json`` holds the sha256 of every preset sweep in both
formats; the benchmark fails a job whose output differs, so the same check
runs here. The traced benchmark binds ``presets.run_sweep(spec)``,
``report.emit(..., rows)`` and ``homodyne_trap.simulate_i_diff(..., shots,
...)`` by parameter name, counts points and rows with ``len`` of the table,
and counts failed checks from ``run_selfcheck(...).checks``. It fails every
selfcheck job whose check names differ from its ``SELFCHECK_NAMES``. After
``from relqsl import cli`` it reads ``vars()`` of ``sys.modules["relqsl.<layer>"]``
for each of its ``LAYERS`` to find the functions it wraps, and its
``Tracer._hooks`` name the wrapped functions whose calls it counts.
"""

import ast
import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
import typing

import pytest

from relqsl import homodyne_trap, presets, report, selfcheck
from relqsl.cli import run_subcommand

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
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


def _perfbench_constant(filename: str, name: str) -> ast.expr:
    """The value expression of the top-level assignment to ``name`` in a perfbench file."""
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return node.value
    raise AssertionError(f"perfbench/{filename} defines no {name}")


def _benchmark_selfcheck_names() -> set[str]:
    """``SELFCHECK_NAMES`` of perfbench/outputs.py, read from its syntax tree."""
    value = _perfbench_constant("outputs.py", "SELFCHECK_NAMES")
    assert isinstance(value, ast.Call) and value.func.id == "frozenset"
    return ast.literal_eval(value.args[0])


def _public_functions(layer: str) -> list[str]:
    """Public top-level functions defined in ``src/relqsl/<layer>.py``, by its syntax tree."""
    with open(os.path.join(SRC, "relqsl", f"{layer}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return sorted(
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    )


def test_traced_layers_are_registered_after_the_cli_import():
    """In a fresh interpreter, ``from relqsl import cli`` leaves every traced
    layer in sys.modules, and ``vars()`` of each holds its public functions."""
    layers = ast.literal_eval(_perfbench_constant("layers.py", "LAYERS"))
    code = (
        "import inspect, json, sys\n"
        "from relqsl import cli\n"
        "found = {}\n"
        f"for layer in {layers!r}:\n"
        "    module = sys.modules[f'relqsl.{layer}']\n"
        "    found[layer] = sorted(\n"
        "        name for name, obj in vars(module).items()\n"
        "        if not name.startswith('_') and inspect.isfunction(obj)\n"
        "        and obj.__module__ == module.__name__)\n"
        "print(json.dumps(found))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    found = json.loads(done.stdout.splitlines()[-1])
    assert found == {layer: _public_functions(layer) for layer in layers}
    assert all(found.values())


def _tracer_hook_names() -> list[str]:
    """The keys of ``Tracer._hooks`` in perfbench/layers.py, read from its syntax tree."""
    with open(os.path.join(PERFBENCH, "layers.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Attribute)
                and node.target.attr == "_hooks"):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/layers.py assigns no self._hooks")


def test_every_tracer_hook_names_a_public_function():
    """A hooked function that is renamed or deleted would read 0 in its traced
    count without failing a job, so each hook must name a public function of
    its layer."""
    names = _tracer_hook_names()
    assert names
    for name in names:
        layer, _, function = name.partition(".")
        assert function in _public_functions(layer), name


def test_selfcheck_check_names_match_the_benchmark():
    """A new or renamed check needs the benchmark's list changed first."""
    names = [check.name for check in selfcheck.run_selfcheck(42).checks]
    assert len(names) == len(set(names))
    assert set(names) == _benchmark_selfcheck_names()
