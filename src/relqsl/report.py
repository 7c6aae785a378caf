"""Output formatting: deterministic CSV/JSON emission and the selfcheck report.

CSV cells use the shortest decimal representation that round-trips the
float exactly (Python's repr), '.' as the decimal mark, comma delimiters,
Unix newlines, and true/false for booleans, so identical inputs always
produce byte-identical files. Tables are formatted one column at a time,
and a JSON table is the same text json.dumps(..., indent=2) gives for its
list of row objects. Files are written to a temporary sibling and
atomically renamed into place; a failed run never leaves a partial file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any

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


_FLOAT_TYPES = frozenset({float, np.float64})
_BOOL_TYPES = frozenset({bool, np.bool_})
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


def _column_text(column: tuple[Any, ...], json_cells: bool) -> list[str]:
    """Every cell of one column as CSV or JSON text, one formatting pass per column."""
    kinds = set(map(type, column))
    if kinds <= _FLOAT_TYPES:
        text = list(map(float.__repr__, column))
        return [_JSON_NONFINITE.get(cell, cell) for cell in text] if json_cells else text
    if kinds <= _BOOL_TYPES:
        return list(map(_BOOL_TEXT.__getitem__, column))
    return list(map(_json_cell if json_cells else format_cell, column))


def render_csv(header: tuple[str, ...] | list[str], rows: list[list[Any]]) -> str:
    """CSV text of a table, formatted column by column."""
    columns = [_column_text(column, json_cells=False) for column in zip(*rows)]
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def _render_json_table(header: tuple[str, ...] | list[str], rows: list[list[Any]]) -> str:
    """The bytes of ``render_json([dict(zip(header, row)) for row in rows])``, built per column."""
    if not rows:
        return "[]\n"
    named = list(zip(header, zip(*rows)))
    columns = [_column_text(column, json_cells=True) for _, column in named]
    # each object is '    "key": value' lines joined by ",\n" between "  {" and "  }"
    keys = [json.dumps(name).replace("%", "%%") for name, _ in named]
    template = ",\n".join(f"    {key}: %s" for key in keys)
    objects = map(template.__mod__, zip(*columns))
    return "[\n  {\n" + "\n  },\n  {\n".join(objects) + "\n  }\n]\n"


def render_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


def write_text(path: str | None, text: str) -> None:
    """Write atomically to path, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
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


def emit(path: str | None, fmt: str, header: tuple[str, ...] | list[str], rows: list[list[Any]]) -> None:
    """Write a table as CSV, or as a JSON list of row objects."""
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
