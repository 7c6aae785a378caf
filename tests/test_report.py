"""Deterministic table emission and the selfcheck report container."""

import json
import math
import os
import random

import numpy as np
import pytest

from relqsl.presets import PRESETS, Axis, SweepSpec, run_sweep
from relqsl.report import (
    CheckEntry,
    DiscrepancyEntry,
    RunReport,
    emit,
    format_cell,
    plain,
    render_csv,
    render_json,
    write_text,
)


def test_plain_unwraps_numpy_scalars():
    assert plain(np.float64(1.5)) == 1.5
    assert type(plain(np.float64(1.5))) is float
    assert type(plain(np.int32(7))) is int
    # np.bool_ must come out as bool, not as an int
    assert plain(np.bool_(True)) is True
    assert plain("text") == "text"


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
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".partial-")]
    assert leftovers == []


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
    objs = [{name: plain(cell) for name, cell in zip(header, row)} for row in rows]
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
