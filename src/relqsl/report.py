"""Output formatting: deterministic CSV/JSON emission and the selfcheck report.

CSV cells use the shortest decimal representation that round-trips the
float exactly (Python's repr), '.' as the decimal mark, comma delimiters,
Unix newlines, and true/false for booleans, so identical inputs always
produce byte-identical files. A table is a numpy structured array with one
field per column; it is formatted one column at a time, with one repr per
distinct float64 bit pattern, and a JSON table is the same text
json.dumps(..., indent=2) gives for its list of row objects. ``emit`` is
the one table writer. From 16,384 rows on two or more CPUs it writes a
table in two halves: a forked child writes the first straight into the
output while this process formats the second and appends it, so the bytes
do not depend on the number of processes. Smaller tables, and every table
for a replaced sys.stdout, are formatted whole in this process. Files are
written to a temporary sibling and atomically renamed into place; a failed
run never leaves a partial file.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence, TextIO

import numpy as np

from . import forked
from .arrays import native

# Fewest rows in each half of a split table. In a process that holds the
# 113,400-row grid (about 100 MB resident, 2 cores), a child costs at most 2-4
# ms to fork, write and reap, and a row 3-4 us to format, so two
# processes break even near 1,000-2,000 rows a half; a half this long takes
# about ten times that overhead, and every preset table (fig1: 7,560 rows)
# stays in one process.
MIN_ROWS_PER_PROCESS = 8192


def format_cell(value: Any) -> str:
    value = native(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_BOOL_TEXT = {True: "true", False: "false"}
# json spells the non-finite floats differently from repr
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_default(value: Any) -> Any:
    converted = native(value)
    if converted is value:
        raise TypeError(f"not JSON serializable: {type(value).__name__}")
    return converted


def _json_cell(value: Any) -> str:
    return json.dumps(value, default=_json_default)


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


# CSV rows are separated by a newline, JSON row objects by the close of one
# object and the open of the next
_ROW_SEPARATOR = {False: "\n", True: "\n  },\n  {\n"}


def _format_rows(header: Sequence[str], rows: np.ndarray, json_cells: bool) -> str:
    """The rows as CSV lines or as JSON object bodies, joined by their separator:
    one join over a list whose slots alternate the text before a cell (lead) and the cell."""
    columns = _column_texts(header, rows, json_cells)
    if json_cells:
        # each object is '    "key": value' lines joined by ",\n" between "  {" and "  }"
        lead = [f"    {json.dumps(name)}: " for name in header]
        lead[1:] = [",\n" + text for text in lead[1:]]
    else:
        lead = ["", *[","] * (len(header) - 1)]
    count, width = len(rows), 2 * len(header)
    # every row but the first starts with the row separator
    pieces = [_ROW_SEPARATOR[json_cells] + lead[0]] * (count * width)
    pieces[0] = lead[0]
    for j, column in enumerate(columns):
        pieces[2 * j + 1::width] = column
        if j:
            pieces[2 * j::width] = [lead[j]] * count
    return "".join(pieces)


def _frame(header: Sequence[str], json_cells: bool) -> tuple[str, str]:
    """The text before and after the rows of a table with one or more rows."""
    return ("[\n  {\n", "\n  }\n]\n") if json_cells else (",".join(header) + "\n", "\n")


def _table_text(header: Sequence[str], rows: np.ndarray, json_cells: bool) -> str:
    """The whole table as CSV text, or as the text ``render_json`` gives for its
    list of row objects, formatted in this process."""
    if not len(rows):
        return "[]\n" if json_cells else ",".join(header) + "\n"
    prefix, suffix = _frame(header, json_cells)
    return "".join([prefix, _format_rows(header, rows, json_cells), suffix])


def render_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, default=_json_default) + "\n"


class OutputError(Exception):
    """An output path that cannot be written; the message names the path as given."""


def _new_sibling(path: str) -> tuple[int, str]:
    """A new temporary file beside path, open for writing, made with mode
    0o666 so that the kernel applies the umask as for any new file."""
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp_path = os.path.join(directory, f".partial-{os.urandom(8).hex()}.tmp")
        try:
            return os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp_path
        except FileExistsError:
            continue


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """A UTF-8 text stream on a new temporary sibling of path, renamed into
    place when the block ends, or stdout. An OSError (missing directory, a
    directory as path, no permission, a full device) becomes an OutputError
    naming path or stdout, and the sibling is removed. A new file gets the
    umask's mode, a replaced file keeps its own. After a failed stdout
    write, stdout's descriptor points at the null device, so the bytes left
    in its buffer are dropped, not written again at the next write or exit.
    """
    try:
        if path is None:
            try:
                yield sys.stdout
                sys.stdout.flush()
            except OSError:
                with contextlib.suppress(OSError):
                    null = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(null, sys.stdout.fileno())
                    os.close(null)
                raise
            return
        fd, tmp_path = _new_sibling(path)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                yield handle
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp_path, os.stat(path).st_mode & 0o7777)
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {'stdout' if path is None else path}: {exc.strerror}") from None


def write_text(path: str | None, text: str) -> None:
    """Write text atomically to path, or to stdout when no path is given (``_output``)."""
    with _output(path) as out:
        out.write(text)


def emit(path: str | None, fmt: str, header: Sequence[str], rows: np.ndarray) -> None:
    """Write a table (a structured array, one field per header name) as CSV or JSON rows.

    A table of 2 * ``MIN_ROWS_PER_PROCESS`` rows or more, where
    ``forked.can_fork()``, is not joined: after the prefix, a forked child
    writes its first half through the output's descriptor
    (``forked.write_beside``) while this process formats the second and
    then writes the separator, its half and the suffix. Any other table is
    formatted whole in this process and written through ``write_text``, and
    so is every table for a replaced sys.stdout (a capture, a notebook),
    which gets all its bytes through its own write().
    """
    json_cells = fmt != "csv"
    if (len(rows) // 2 < MIN_ROWS_PER_PROCESS or not forked.can_fork()
            or path is None and sys.stdout is not sys.__stdout__):
        return write_text(path, _table_text(header, rows, json_cells))
    prefix, suffix = _frame(header, json_cells)
    half = len(rows) // 2
    with _output(path) as out:
        out.write(prefix)
        out.flush()
        tail = forked.write_beside(
            lambda: _format_rows(header, rows[:half], json_cells).encode(out.encoding, out.errors),
            lambda: _format_rows(header, rows[half:], json_cells), out.fileno())
        out.writelines([_ROW_SEPARATOR[json_cells], tail, suffix])


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
                    "measured": {k: native(v) for k, v in c.measured.items()},
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "discrepancies": [
                {
                    "name": d.name,
                    "detail": d.detail,
                    "values": {k: native(v) for k, v in d.values.items()},
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
