"""Deterministic table emission and the selfcheck report container."""

import errno
import json
import math
import os
import random
import signal
import stat
import sys

from typing import Sequence

import numpy as np
import pytest

from relqsl import report
from relqsl.arrays import native
from relqsl.presets import PRESETS, Axis, SweepSpec, run_sweep
from relqsl.report import (
    MIN_ROWS_PER_PROCESS,
    CheckEntry,
    DiscrepancyEntry,
    OutputError,
    RunReport,
    emit,
    format_cell,
    render_csv,
    render_json,
    write_text,
)

# every test here fails if it leaves a child process unreaped
pytestmark = pytest.mark.usefixtures("no_child_left")


def test_native_unwraps_numpy_scalars():
    assert native(np.float64(1.5)) == 1.5
    assert type(native(np.float64(1.5))) is float
    assert type(native(np.int32(7))) is int
    # np.bool_ must come out as bool, not as an int
    assert native(np.bool_(True)) is True
    assert native("text") == "text"


def test_format_cell_round_trips_floats():
    assert format_cell(0.1) == "0.1"
    assert format_cell(1.4350444756099092) == "1.4350444756099092"
    assert float(format_cell(2.0 / 3.0)) == 2.0 / 3.0
    assert format_cell(True) == "true"
    assert format_cell(np.bool_(False)) == "false"
    assert format_cell(3) == "3"
    assert format_cell("plain") == "plain"


def test_render_csv_layout():
    text = render_csv(("a", "b"), np.rec.fromarrays([[1.0, 0.5], [True, False]], names="a,b"))
    assert text == "a,b\n1.0,true\n0.5,false\n"


def test_render_json_handles_numpy_and_rejects_junk():
    text = render_json({"x": np.float64(0.25), "flag": np.bool_(True)})
    assert json.loads(text) == {"x": 0.25, "flag": True}
    with pytest.raises(TypeError, match="not JSON serializable"):
        render_json({"bad": object()})


def test_write_text_is_atomic(tmp_path):
    target = tmp_path / "out.csv"
    write_text(str(target), "payload\n")
    assert target.read_text(encoding="utf-8") == "payload\n"
    assert _partial_siblings(tmp_path) == []


def test_write_text_gives_new_files_the_umask_mode_and_keeps_existing_modes(tmp_path):
    previous = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.csv"
        write_text(str(fresh), "a\n")
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        os.umask(0o077)
        existing = tmp_path / "existing.csv"
        existing.write_text("old\n", encoding="utf-8")
        existing.chmod(0o664)
        write_text(str(existing), "new\n")
        assert existing.read_text(encoding="utf-8") == "new\n"
        assert stat.S_IMODE(existing.stat().st_mode) == 0o664
    finally:
        os.umask(previous)


def test_write_text_stdout(capsys):
    write_text(None, "to console\n")
    assert capsys.readouterr().out == "to console\n"


def test_emit_both_formats(tmp_path):
    header = ("n", "value")
    rows = np.rec.fromarrays([[0, 1], [0.5, np.float64(1.5)]], names=header)
    csv_path = tmp_path / "table.csv"
    emit(str(csv_path), "csv", header, rows)
    assert csv_path.read_text(encoding="utf-8") == "n,value\n0,0.5\n1,1.5\n"
    json_path = tmp_path / "table.json"
    emit(str(json_path), "json", header, rows)
    assert json.loads(json_path.read_text(encoding="utf-8")) == [
        {"n": 0, "value": 0.5},
        {"n": 1, "value": 1.5},
    ]


# every cell kind a table may carry; the column-wise renderers must spell each
# exactly as the row-by-row reference does
MIXED_CELLS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 7, True,
    np.float64(0.1), np.bool_(False), np.int64(-3), 'quote " and unicode \u00e9',
]
# nan with two more payloads (another mantissa, the sign bit) beside the default one
NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
FLOAT_CELLS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, np.float64(-2.5),
    *NAN_PAYLOADS.view(np.float64).tolist(),
]
# one field per column of the test table; the mixed-type column is an object field
TABLE_DTYPES = (object, float, float, bool, np.int64, str)


def _reference_tables(header, rows):
    csv_text = "\n".join([",".join(header)] + [",".join(map(format_cell, row)) for row in rows])
    objs = [{name: native(cell) for name, cell in zip(header, row)} for row in rows]
    return csv_text + "\n", json.dumps(objs, indent=2) + "\n"


@pytest.mark.parametrize("size", [0, 1, len(MIXED_CELLS)])
def test_column_wise_rendering_matches_row_wise_reference(size, tmp_path):
    header = ("mixed", "float", "float_again", "flag", "count", "label")
    rows = [
        [
            MIXED_CELLS[i],
            FLOAT_CELLS[i % len(FLOAT_CELLS)],
            # the same bit patterns again, in another column and other rows
            FLOAT_CELLS[(i + 3) % len(FLOAT_CELLS)],
            (True, np.bool_(False), np.bool_(True))[i % 3],
            (np.int64(4), 5)[i % 2],
            f"row {i}",
        ]
        for i in range(size)
    ]
    table = np.rec.fromarrays(
        [np.array([row[j] for row in rows], dtype=dtype) for j, dtype in enumerate(TABLE_DTYPES)],
        names=header,
    )
    want_csv, want_json = _reference_tables(header, rows)
    assert render_csv(header, table) == want_csv
    emit(str(tmp_path / "t.csv"), "csv", header, table)
    emit(str(tmp_path / "t.json"), "json", header, table)
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == want_csv
    assert (tmp_path / "t.json").read_text(encoding="utf-8") == want_json
    if size == len(MIXED_CELLS):
        assert "-0.0" in want_csv and "NaN" in want_json and "-Infinity" in want_json
        # the three nan payloads reach the table as distinct bit patterns
        float_bits = set(table["float"].view(np.uint64).tolist())
        assert set(NAN_PAYLOADS.tolist()) < float_bits
        assert np.float64(math.nan).view(np.uint64) in float_bits


@pytest.mark.filterwarnings("ignore:mt_coherent", "ignore:ml_coherent")
@pytest.mark.parametrize("seed", [3, 29])
def test_seeded_sweep_table_matches_row_wise_reference(seed, tmp_path):
    rng = random.Random(seed)
    spec = SweepSpec(
        target="qsl_coherent",
        axes=(
            Axis("t", rng.uniform(0.0, 0.1), 6.0, rng.uniform(0.3, 0.7)),
            Axis("alpha0_sq", rng.uniform(0.05, 0.15), 3.0, rng.uniform(0.2, 0.5)),
            Axis("epsilon", 0.0, rng.uniform(0.01, 0.1), rng.uniform(0.005, 0.02)),
        ),
        columns=PRESETS["fig1"].columns,
    )
    header, table = run_sweep(spec)
    want_csv, want_json = _reference_tables(header, table.tolist())
    emit(str(tmp_path / "grid.csv"), "csv", header, table)
    emit(str(tmp_path / "grid.json"), "json", header, table)
    assert (tmp_path / "grid.csv").read_text(encoding="utf-8") == want_csv
    assert (tmp_path / "grid.json").read_text(encoding="utf-8") == want_json


# small tables, the split threshold's neighbours, and a larger split table
SPLIT_SIZES = [0, 1, MIN_ROWS_PER_PROCESS - 1, MIN_ROWS_PER_PROCESS,
               2 * MIN_ROWS_PER_PROCESS - 1, 2 * MIN_ROWS_PER_PROCESS,
               2 * MIN_ROWS_PER_PROCESS + 1, 3 * MIN_ROWS_PER_PROCESS]
SPLIT_HEADER = ("n", "x", "y", "z", "flag")
# JSON keys that need escaping, and a '%' that a printf-style row template would have to double
ESCAPED_HEADER = ("n %d", 'say "x"', "back\\slash", "50% y", "caf\u00e9 z")


def _boundary_table(size: int, names: Sequence[str] = SPLIT_HEADER) -> np.ndarray:
    """Seeded floats, with -0.0/0.0, two nan payloads and -inf/inf on the two
    rows beside the boundary between the halves; fields named by names."""
    values = np.random.default_rng(size).standard_normal((3, size))
    before = (-0.0, *NAN_PAYLOADS.view(np.float64)[:1].tolist(), math.inf)
    after = (0.0, *NAN_PAYLOADS.view(np.float64)[1:].tolist(), -math.inf)
    for row, specials in ((size // 2 - 1, before), (size // 2, after)):
        if 0 <= row < size:
            values[:, row] = specials
    return np.rec.fromarrays([np.arange(size), *values, values[0] > 0], names=list(names))


def _set_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _set_stdout(monkeypatch, stream) -> None:
    """Make stream the interpreter's own stdout, which emit streams into."""
    monkeypatch.setattr(sys, "stdout", stream)
    monkeypatch.setattr(sys, "__stdout__", stream)


def _partial_siblings(directory) -> list[str]:
    return [name for name in os.listdir(directory) if name.startswith(".partial-")]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", SPLIT_SIZES)
def test_split_table_matches_one_process_output(size, fmt, monkeypatch, tmp_path):
    table = _boundary_table(size)
    want = _reference_tables(SPLIT_HEADER, table.tolist())[fmt == "json"].encode("utf-8")
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        forks.clear()
        emit(str(tmp_path / str(cpus)), fmt, SPLIT_HEADER, table)
        with open(tmp_path / f"stdout{cpus}", "w", encoding="utf-8", newline="\n") as stdout:
            _set_stdout(monkeypatch, stdout)
            emit(None, fmt, SPLIT_HEADER, table)
        _assert_no_child_left()
        assert len(forks) == 2 * (cpus > 1 and size >= 2 * MIN_ROWS_PER_PROCESS)
        assert (tmp_path / str(cpus)).read_bytes() == want
        assert (tmp_path / f"stdout{cpus}").read_bytes() == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", [1, 2 * MIN_ROWS_PER_PROCESS + 1])
def test_header_that_needs_escaping(size, fmt, monkeypatch, tmp_path):
    table = _boundary_table(size, ESCAPED_HEADER)
    want = _reference_tables(ESCAPED_HEADER, table.tolist())[fmt == "json"].encode("utf-8")
    if fmt == "json":
        assert b'"say \\"x\\""' in want and b'"back\\\\slash"' in want and b'"caf\\u00e9 z"' in want
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        emit(str(tmp_path / "table"), fmt, ESCAPED_HEADER, table)
        assert (tmp_path / "table").read_bytes() == want


def _one_process_and_split(monkeypatch, fmt: str) -> tuple[str, str]:
    """A table over the split threshold rendered with one CPU, then with two."""
    table = _boundary_table(2 * MIN_ROWS_PER_PROCESS + 1)
    render = render_csv if fmt == "csv" else report._render_json_table
    _set_cpus(monkeypatch, 1)
    want = render(SPLIT_HEADER, table)
    _set_cpus(monkeypatch, 2)
    return want, render(SPLIT_HEADER, table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_child_is_reaped_and_its_range_formatted_in_process(fmt, monkeypatch):
    parent, column_texts = os.getpid(), report._column_texts

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("formatter fails in the child")
        return column_texts(*args)

    statuses = []
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda *a: statuses.append(waitpid(*a)) or statuses[-1])
    monkeypatch.setattr(report, "_column_texts", fails_in_a_child)
    want, got = _one_process_and_split(monkeypatch, fmt)
    assert got == want
    assert [os.waitstatus_to_exitcode(status) for _, status in statuses] == [1]
    _assert_no_child_left()


def _fails_in_the_child_after_one_chunk(monkeypatch) -> None:
    """Make a child's first os.write write 4096 bytes and its second raise."""
    parent, write = os.getpid(), os.write
    written = []

    def write_once(fd, data):
        if os.getpid() == parent:
            return write(fd, data)
        if written:
            raise OSError(errno.ENOSPC, "device full after the first chunk")
        written.append(write(fd, data[:4096]))
        return written[0]

    monkeypatch.setattr(os, "write", write_once)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("fails_after_writing", [False, True])
def test_file_whose_child_fails_is_cut_back_and_finished_in_process(fails_after_writing, fmt,
                                                                   monkeypatch, tmp_path):
    table = _boundary_table(2 * MIN_ROWS_PER_PROCESS + 1)
    want = _reference_tables(SPLIT_HEADER, table.tolist())[fmt == "json"].encode("utf-8")
    parent, column_texts = os.getpid(), report._column_texts

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("formatter fails in the child")
        return column_texts(*args)

    if fails_after_writing:
        _fails_in_the_child_after_one_chunk(monkeypatch)
    else:
        monkeypatch.setattr(report, "_column_texts", fails_in_a_child)
    statuses = []
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda *a: statuses.append(waitpid(*a)) or statuses[-1])
    cuts, ftruncate = [], os.ftruncate

    def recorded_cut(fd, length):
        cuts.append(os.fstat(fd).st_size)
        ftruncate(fd, length)

    monkeypatch.setattr(os, "ftruncate", recorded_cut)
    _set_cpus(monkeypatch, 2)
    emit(str(tmp_path / "table"), fmt, SPLIT_HEADER, table)
    assert [os.waitstatus_to_exitcode(status) for _, status in statuses] == [1]
    # the file held the prefix, and also the child's first chunk when it failed after writing
    prefix = len(want.split(b"\n", 1)[0]) + 1 if fmt == "csv" else len("[\n  {\n")
    assert cuts == [prefix + 4096 * fails_after_writing]
    assert (tmp_path / "table").read_bytes() == want
    assert _partial_siblings(tmp_path) == []
    _assert_no_child_left()


def test_stdout_that_cannot_seek_refuses_a_failed_childs_partial_half(monkeypatch):
    read_fd, write_fd = os.pipe()
    _fails_in_the_child_after_one_chunk(monkeypatch)
    _set_cpus(monkeypatch, 2)
    with open(read_fd, "rb") as pipe, open(write_fd, "w", encoding="utf-8") as stdout:
        _set_stdout(monkeypatch, stdout)
        with pytest.raises(OutputError, match="cannot write stdout: .*cannot be taken back"):
            emit(None, "csv", SPLIT_HEADER, _boundary_table(2 * MIN_ROWS_PER_PROCESS))
        _assert_no_child_left()
        # the failed write pointed the descriptor at the null device
        assert os.fstat(write_fd).st_rdev == os.stat(os.devnull).st_rdev
        stdout.close()
        assert pipe.read().startswith(b"n,x,y,z,flag\n0,")


def _alarm(signum, frame):
    raise TimeoutError("the child was not reaped in time")


def test_failure_in_the_parent_reaps_every_child(monkeypatch):
    parent, column_texts = os.getpid(), report._column_texts

    def fails_in_the_parent(*args):
        if os.getpid() == parent:
            raise RuntimeError("formatter fails in the parent")
        return column_texts(*args)

    monkeypatch.setattr(report, "_column_texts", fails_in_the_parent)
    _set_cpus(monkeypatch, 2)
    table = _boundary_table(2 * MIN_ROWS_PER_PROCESS)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(20)
    try:
        with pytest.raises(RuntimeError, match="fails in the parent"):
            render_csv(SPLIT_HEADER, table)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()


# A parent that splits a table, prints its child's pid, then stalls in its own
# half; each half's text is far larger than a pipe's buffer
STALLED_PARENT = """
import os, time
import numpy as np
from relqsl import report
os.sched_getaffinity = lambda pid: {{0, 1}}
parent, fork, format_rows = os.getpid(), os.fork, report._format_rows

def printing_fork():
    pid = fork()
    if pid:
        print(pid, flush=True)
    return pid

def stalls_in_the_parent(*args):
    if os.getpid() == parent:
        print("stalled", flush=True)
        time.sleep(600)
    return format_rows(*args)

os.fork, report._format_rows = printing_fork, stalls_in_the_parent
report.render_csv(["x"], np.rec.fromarrays([np.linspace(0.0, 1.0, {rows})], names=["x"]))
"""


def test_children_of_a_killed_parent_exit(children_of_killed_parent):
    children, left = children_of_killed_parent(STALLED_PARENT.format(rows=4 * MIN_ROWS_PER_PROCESS))
    assert len(children) == 1
    assert left == []


def test_range_whose_fork_fails_is_formatted_in_process(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    want, got = _one_process_and_split(monkeypatch, "json")
    assert got == want


def _sample_report(ok: bool) -> RunReport:
    return RunReport(
        version="0.1.0",
        seed=42,
        config={"spectrum": {"nmax": 10}},
        checks=[
            CheckEntry(name="alpha", passed=True, measured={"residual": 1e-12}),
            CheckEntry(
                name="beta", passed=ok, measured={"z": 2.5},
                detail="within three sigma", monte_carlo=True,
            ),
        ],
        discrepancies=[
            DiscrepancyEntry(
                name="spacing", detail="closed form vs quoted rule",
                values={"lhs": 0.999625, "rhs": 0.988},
            )
        ],
    )


def test_report_passed_and_duplicate_guard():
    assert _sample_report(True).passed
    assert not _sample_report(False).passed
    with pytest.raises(ValueError, match="duplicate"):
        RunReport(
            version="0.1.0", seed=0, config={},
            checks=[
                CheckEntry(name="same", passed=True, measured={}),
                CheckEntry(name="same", passed=True, measured={}),
            ],
        )


def test_report_text_rendering():
    text = _sample_report(False).render_text()
    assert "alpha" in text and "pass" in text
    assert "beta" in text and "FAIL" in text
    assert "within three sigma" in text
    assert "spacing" in text
    assert "lhs = 0.999625" in text
    assert text.rstrip().endswith("overall: FAIL")
    ok_text = _sample_report(True).render_text()
    assert ok_text.rstrip().endswith("overall: pass")


def test_report_json_object():
    obj = _sample_report(True).to_json_obj()
    assert obj["passed"] is True
    assert obj["seed"] == 42
    assert obj["checks"][1]["monte_carlo"] is True
    assert obj["discrepancies"][0]["values"]["rhs"] == 0.988
    # numpy payloads must not leak into the JSON object
    report = RunReport(
        version="0.1.0", seed=1, config={},
        checks=[CheckEntry(name="np", passed=True, measured={"v": np.float64(2.0)})],
    )
    encoded = json.dumps(report.to_json_obj())
    assert '"v": 2.0' in encoded
