"""Deterministic table and report output.

Two formats, both reproducible byte for byte on every platform:

* CSV: comma separated, UTF-8, LF line endings.  Floats are printed with
  ``%.17g`` so any double round-trips exactly.  An optional header record
  is written first as a ``#``-prefixed JSON object with sorted keys.
* JSON: ``json.dump`` with ``indent=2, sort_keys=True``.  Floats go
  through Python's repr, the shortest string that round-trips, which is
  deterministic for a given value.

A CSV table is given and formatted as columns, one sequence of cells per
field.  Tables held as rows, mappings (a missing key is an empty cell) or
records read by attribute, become columns through ``columns_of``.  A cell
whose value is the same object as the cell above it (``is``, never ``==``:
``0.0 == -0.0``, yet they print as ``0`` and ``-0``) reuses that cell's
text; a sweep repeats its point's parameters on every level row.  A
string's text is also kept by value for its whole column, so the parity
column, which alternates two tags, quotes each tag once.

The writer owns its quoting rule instead of leaving it to ``csv.writer``:
numbers, booleans and None are never quoted; any other cell is quoted,
with ``"`` doubled, when its text contains ``,``, ``"``, ``\r`` or
``\n``; an empty cell that is the only cell of its row is written ``""``.
This is what ``csv.writer`` writes for every cell the CLI produces, and
it does not depend on the Python version: ``csv.writer`` leaves a lone
``\r`` bare before 3.13 and quotes it from 3.13 on, where this rule
always quotes it.
"""
from __future__ import annotations

import dataclasses
import io
import json
import operator
import re
from typing import Iterable, Mapping, Sequence


# field names and a getter of their values, per record class; filled on
# first use and never changed after
_FIELD_READERS: dict[type, tuple[tuple[str, ...], operator.attrgetter]] = {}


def record_dict(record) -> dict:
    """The fields of a dataclass record as a dict, in declaration order.

    dataclasses.asdict without its recursive deep copy: field values are
    passed through as they are, so a caller converts nested records
    itself.  Every record here holds two or more fields, which is what
    makes the attrgetter return a tuple.
    """
    try:
        names, values = _FIELD_READERS[type(record)]
    except KeyError:
        names = tuple(f.name for f in dataclasses.fields(record))
        values = operator.attrgetter(*names)
        _FIELD_READERS[type(record)] = names, values
    return dict(zip(names, values(record)))


def fmt(value) -> str:
    """Render one CSV cell. None is empty, bools are true/false, floats
    use %.17g."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')

# the "cell above" of a column's first row: no cell value is this object
_NO_CELL = object()


def _cell(value, lone: bool) -> str:
    """fmt(value), quoted as the CSV quoting rule of this module says."""
    text = fmt(value)
    if lone and not text:
        return '""'
    if value is None or isinstance(value, (int, float)):
        return text
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(values: Iterable, lone: bool) -> list[str]:
    """The cell texts of one column, formatting each new object once.

    A float or int (exactly that type, so never a bool) takes the text
    _cell gives it without going through the quoting rule: never empty,
    never quoted.  A str's text is kept by value for the whole column, so
    a column that alternates a few strings (the parity tags) quotes each
    once; numbers are not kept by value, since 0.0 == -0.0 yet they print
    differently, and str() of a new int is cheaper than the lookup.
    """
    texts = []
    append = texts.append
    above = _NO_CELL
    strings: dict[str, str] = {}
    for value in values:
        if value is not above:
            above = value
            kind = type(value)
            if kind is float:
                text = format(value, ".17g")
            elif kind is int:
                text = str(value)
            elif kind is str:
                text = strings.get(value)
                if text is None:
                    text = strings[value] = _cell(value, lone)
            else:
                text = _cell(value, lone)
        append(text)
    return texts


def columns_of(fieldnames: Sequence[str], rows: Iterable) -> list[list]:
    """The cells of rows as one list per field name.

    rows are mappings, where a missing key is None, or records with an
    attribute per field name.
    """
    rows = list(rows)
    if rows and isinstance(rows[0], Mapping):
        return [[row.get(name) for row in rows] for name in fieldnames]
    return [list(map(operator.attrgetter(name), rows)) for name in fieldnames]


def csv_text(
    fieldnames: Sequence[str],
    columns: Sequence[Sequence],
    header: Mapping | None = None,
) -> str:
    """Build the full CSV document as a string.

    columns holds one sequence of cells per field name, all of one length;
    row i of the table is the i-th cell of every column.
    """
    if not fieldnames:
        raise ValueError("a CSV table needs at least one column")
    if any(isinstance(c, Mapping) for c in columns):
        raise TypeError("csv_text takes columns; columns_of turns rows into columns")
    if len(columns) != len(fieldnames) or len({len(c) for c in columns}) > 1:
        raise ValueError(
            f"need {len(fieldnames)} columns of one length, got lengths "
            f"{[len(c) for c in columns]}"
        )
    lone = len(fieldnames) == 1
    lines = []
    if header is not None:
        lines.append("# " + json.dumps(dict(header), sort_keys=True))
    lines.append(",".join(_cell(name, lone) for name in fieldnames))
    lines.extend(map(",".join, zip(*[_column(c, lone) for c in columns])))
    lines.append("")
    return "\n".join(lines)


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def read_csv_text(text: str) -> tuple[dict | None, list[str], list[dict]]:
    """Parse a document produced by csv_text back into (header, fieldnames,
    rows); cell values stay strings."""
    # no command reads CSV back, so only a caller of this function loads csv
    import csv

    lines = text.splitlines()
    header = None
    start = 0
    if lines and lines[0].startswith("# "):
        header = json.loads(lines[0][2:])
        start = 1
    reader = csv.reader(io.StringIO("\n".join(lines[start:])))
    table = list(reader)
    if not table:
        return header, [], []
    fieldnames = table[0]
    rows = [dict(zip(fieldnames, row)) for row in table[1:]]
    return header, fieldnames, rows
