"""Output formatting: deterministic CSV/JSON emission and the selfcheck report.

CSV cells use the shortest decimal representation that round-trips the
float exactly (Python's repr), '.' as the decimal mark, comma delimiters,
Unix newlines, and true/false for booleans, so identical inputs always
produce byte-identical files. A table is a numpy structured array with one
field per column; it is formatted one column at a time, with one repr per
distinct float64 bit pattern in the table, and a JSON table is the same
text json.dumps(..., indent=2) gives for its list of row objects. Files
are written to a temporary sibling and atomically renamed into place; a
failed run never leaves a partial file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np


def plain(value: Any) -> Any:
    """Convert numpy scalars to native Python types for formatting and JSON."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def format_cell(value: Any) -> str:
    value = plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_BOOL_TEXT = {True: "true", False: "false"}
# json spells the non-finite floats differently from repr
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# a JSON table cell sits two levels deep, inside its row object
_JSON_CELL_INDENT = "\n    "


def _json_default(value: Any) -> Any:
    converted = plain(value)
    if converted is value:
        raise TypeError(f"not JSON serializable: {type(value).__name__}")
    return converted


def _json_cell(value: Any) -> str:
    return json.dumps(value, indent=2, default=_json_default).replace("\n", _JSON_CELL_INDENT)


def _column_texts(header: Sequence[str], rows: np.ndarray, json_cells: bool) -> list[list[str]]:
    """Every cell of each named field as CSV or JSON text, formatted column by column.

    The float64 fields are formatted together, one repr per distinct bit
    pattern (so -0.0 and 0.0, or two nan payloads, stay separate patterns).
    """
    floats = [name for name in header if rows.dtype[name] == np.float64]
    bits = np.concatenate([rows[name] for name in floats] or [np.empty(0)]).view(np.uint64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    values = patterns.view(np.float64)
    text = list(map(float.__repr__, values.tolist()))
    if json_cells:
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            text[i] = _JSON_NONFINITE[text[i]]
    cells = np.array(text, dtype=object)[inverse].reshape(len(floats), len(rows))
    columns = dict(zip(floats, map(np.ndarray.tolist, cells)))
    for name in header:
        if name not in columns:
            spell = _BOOL_TEXT.__getitem__ if rows.dtype[name] == bool else (
                _json_cell if json_cells else format_cell)
            columns[name] = list(map(spell, rows[name].tolist()))
    return [columns[name] for name in header]


def render_csv(header: Sequence[str], rows: np.ndarray) -> str:
    """CSV text of a table: a structured array with one field per header name."""
    columns = _column_texts(header, rows, json_cells=False)
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def _render_json_table(header: Sequence[str], rows: np.ndarray) -> str:
    """The bytes of ``render_json`` for the table's list of row objects, built per column."""
    if not len(rows):
        return "[]\n"
    columns = _column_texts(header, rows, json_cells=True)
    # each object is '    "key": value' lines joined by ",\n" between "  {" and "  }"
    keys = [json.dumps(name).replace("%", "%%") for name in header]
    template = ",\n".join(f"    {key}: %s" for key in keys)
    objects = map(template.__mod__, zip(*columns))
    return "[\n  {\n" + "\n  },\n  {\n".join(objects) + "\n  }\n]\n"


def render_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


class OutputError(Exception):
    """An output path that cannot be written; the message names the path as given."""


def write_text(path: str | None, text: str) -> None:
    """Write atomically to path, or to stdout when no path is given.

    An OSError (missing directory, a directory as path, no permission)
    becomes an OutputError that names path, not the temporary sibling.
    """
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".partial-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None


def emit(path: str | None, fmt: str, header: Sequence[str], rows: np.ndarray) -> None:
    """Write a table (a structured array, one field per header name) as CSV or JSON rows."""
    if fmt == "csv":
        write_text(path, render_csv(header, rows))
    else:
        write_text(path, _render_json_table(header, rows))


@dataclass(frozen=True)
class CheckEntry:
    """One pass/fail verdict with the residuals that back it."""

    name: str
    passed: bool
    measured: dict[str, float]
    detail: str = ""
    monte_carlo: bool = False


@dataclass(frozen=True)
class DiscrepancyEntry:
    """A documented inconsistency, reported with numbers on both sides."""

    name: str
    detail: str
    values: dict[str, float]


@dataclass(frozen=True)
class RunReport:
    """Selfcheck outcome: version, config echo, checks and known discrepancies."""

    version: str
    seed: int
    config: dict[str, Any]
    checks: list[CheckEntry] = field(default_factory=list)
    discrepancies: list[DiscrepancyEntry] = field(default_factory=list)

    def __post_init__(self):
        names = [check.name for check in self.checks]
        if len(names) != len(set(names)):
            raise ValueError("duplicate check names in report")

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "seed": self.seed,
            "passed": self.passed,
            "config": self.config,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "monte_carlo": c.monte_carlo,
                    "measured": {k: plain(v) for k, v in c.measured.items()},
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "discrepancies": [
                {
                    "name": d.name,
                    "detail": d.detail,
                    "values": {k: plain(v) for k, v in d.values.items()},
                }
                for d in self.discrepancies
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"selfcheck report (version {self.version}, seed {self.seed})",
            "",
        ]
        width = max(len(c.name) for c in self.checks) if self.checks else 0
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            measured = ", ".join(f"{k}={format_cell(v)}" for k, v in c.measured.items())
            suffix = f" [{measured}]" if measured else ""
            lines.append(f"  {c.name:<{width}}  {verdict}{suffix}")
            if c.detail and not c.passed:
                lines.append(f"  {'':<{width}}  {c.detail}")
        if self.discrepancies:
            lines.append("")
            lines.append("documented discrepancies (reported, not resolved):")
            for d in self.discrepancies:
                lines.append(f"  - {d.name}: {d.detail}")
                for k, v in d.values.items():
                    lines.append(f"      {k} = {format_cell(v)}")
        lines.append("")
        lines.append("overall: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"
