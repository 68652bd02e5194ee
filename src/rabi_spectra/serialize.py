"""Deterministic table and report output.

Two formats, both reproducible byte for byte on every platform:

* CSV: comma separated, UTF-8, LF line endings.  Floats are printed with
  ``%.17g`` so any double round-trips exactly.  An optional header record
  is written first as a ``#``-prefixed JSON object with sorted keys.
* JSON: ``json.dump`` with ``indent=2, sort_keys=True``, then a line
  break.  Floats go through Python's repr, the shortest string that
  round-trips, which is deterministic for a given value.

A CSV table is given as a sequence of row blocks, and a block as columns:
one sequence of cells per field, all of the block's length.  A plain row
table is one block; tables held as rows, mappings (a missing key is an
empty cell) or records read by attribute, become columns through
``columns_of``.  A cell that a block shares across its rows is an
explicit ``Repeat(value, n)``; a sweep's block is one grid point, whose
parameters repeat on every level row.

This module writes every document the CLI prints, to a text stream or to
a path, which it opens itself: the one place ``--out`` is opened.
``write_csv`` writes a table one block at a time, each block through one
``%``-template, once ``checked_blocks`` has passed every block;
``write_json`` encodes a payload straight into its stream.  So no
document's text is held whole; ``csv_text`` and ``json_text`` are the
same writers into a string.

Every cell follows one rule, a table from the exact type of its value to
its text: a float is ``%.17g`` (the bytes of ``format(x, ".17g")``), an
int ``%d``, a bool ``true`` or ``false``, None empty, and a str its
quoted text.  Any other type (numpy scalars,
subclasses) is ``fmt``'s text put through the quoting rule, which leaves
a number's text as it is.  A shared cell is literal text in the template;
a column of exact floats, of exact ints or of strings that need no
quoting is filled by ``%.17g``, ``%d`` or ``%s``, and any other column by
the texts the rule gives its cells.

The writer owns its quoting rule instead of leaving it to ``csv.writer``:
a str is quoted, with ``"`` doubled, when it contains ``,``, ``"``,
``\r`` or ``\n``; in a one-field table an empty cell is written ``""``.
This is what ``csv.writer`` writes for every cell the CLI produces, and
it does not depend on the Python version: ``csv.writer`` leaves a lone
``\r`` bare before 3.13 and quotes it from 3.13 on, where this rule
always quotes it.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import operator
import re
from collections.abc import Iterable, Mapping, Sequence


def record_dict(record) -> dict:
    """The fields of a dataclass record as a dict, in declaration order.

    dataclasses.asdict without its recursive deep copy: field values are
    passed through as they are, so a caller converts nested records
    itself.
    """
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def fmt(value) -> str:
    """The text of one CSV cell before quoting. None is empty, bools are
    true/false, floats use %.17g."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(text: str) -> str:
    """text as a CSV cell: quoted, with " doubled, if it holds , " \r or \n."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# the text of a cell, by the exact type of its value; see _texts
_TEXT = {
    float: "%.17g".__mod__,
    int: "%d".__mod__,
    bool: ("false", "true").__getitem__,
    type(None): lambda value: "",
    str: _quoted,
}


def _other(value) -> str:
    """The text of a value of a type _TEXT does not hold: numpy scalars and
    subclasses.  The quoting leaves a number's text as it is."""
    return _quoted(fmt(value))


def _texts(values: Iterable, lone: bool) -> list[str]:
    """The cell texts of values, by the one cell rule; lone says the table
    has one field, where an empty cell is written ""."""
    text = _TEXT.get
    texts = [text(type(value), _other)(value) for value in values]
    return [t or '""' for t in texts] if lone else texts


def columns_of(fieldnames: Sequence[str], rows: Iterable) -> list[list]:
    """The cells of rows as one list per field name.

    rows are mappings, where a missing key is None, or records with an
    attribute per field name.
    """
    rows = list(rows)
    if rows and isinstance(rows[0], Mapping):
        return [[row.get(name) for row in rows] for name in fieldnames]
    return [list(map(operator.attrgetter(name), rows)) for name in fieldnames]


class Repeat(Sequence):
    """A shared cell of a row block: a sized sequence that yields value, the
    one object, n times."""

    __slots__ = ("value", "n")

    def __init__(self, value, n: int):
        self.value = value
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int):
        if not -self.n <= index < self.n:
            raise IndexError(f"Repeat index {index} out of range")
        return self.value

    def __iter__(self):
        return itertools.repeat(self.value, self.n)

    def __eq__(self, other):
        if type(other) is not Repeat:
            return NotImplemented
        return (self.value, self.n) == (other.value, other.n)

    def __hash__(self) -> int:
        return hash((self.value, self.n))

    def __repr__(self) -> str:
        return f"Repeat({self.value!r}, {self.n})"


def _template_part(column: Sequence, lone: bool) -> tuple[str, Sequence | None]:
    """The template text of one column of a block, and the values that fill
    it row by row (None for a shared cell, whose text is in the template)."""
    if type(column) is Repeat:
        return _texts((column.value,), lone)[0].replace("%", "%%"), None
    if type(column) is range:
        return "%d", column
    kinds = set(map(type, column))
    if kinds == {float}:
        return "%.17g", column
    if kinds == {int}:
        return "%d", column
    if kinds == {str}:
        distinct = set(column)
        if not (lone and "" in distinct or any(map(_NEEDS_QUOTES.search, distinct))):
            return "%s", column
    return "%s", _texts(column, lone)


def _block_text(block: Sequence[Sequence], lone: bool) -> str:
    """The CSV lines of one row block, each ending in a line break: the
    row template, once per row, filled by one % over every row's values."""
    parts, values = [], []
    for column in block:
        text, cells = _template_part(column, lone)
        parts.append(text)
        if cells is not None:
            values.append(cells)
    rows = (",".join(parts) + "\n") * len(block[0])
    return rows % tuple(itertools.chain.from_iterable(zip(*values)))


def checked_blocks(fieldnames: Sequence[str],
                   blocks: Iterable[Sequence[Sequence]]) -> list[Sequence[Sequence]]:
    """blocks as a list, once each has passed the table checks.

    blocks is the table as row blocks, in order; a plain table is one
    block.  A block holds one sequence of cells per field name, all of one
    length; row i of the block is the i-th cell of every column, and a
    shared cell is a Repeat.
    """
    if not fieldnames:
        raise ValueError("a table needs at least one column")
    blocks = list(blocks)
    for block in blocks:
        if any(isinstance(c, (str, Mapping)) for c in block):
            raise TypeError("a table is blocks of columns; columns_of turns rows "
                            "into columns, and [columns] is a one-block table")
        if len(block) != len(fieldnames) or len({len(c) for c in block}) > 1:
            raise ValueError(
                f"need {len(fieldnames)} columns of one length, got lengths "
                f"{[len(c) for c in block]}"
            )
    return blocks


def _opened(stream):
    """stream, or the file at the path stream opened (and truncated)."""
    if isinstance(stream, str):
        return open(stream, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(stream)


def write_csv(
    stream,
    fieldnames: Sequence[str],
    blocks: Iterable[Sequence[Sequence]],
    header: Mapping | None = None,
) -> None:
    """Write the CSV document of the table blocks (see checked_blocks) to
    stream, one row block at a time.

    stream is a text stream, or a path, which is opened only once every
    block has passed its checks: a malformed table raises before anything
    is written.  Each block's lines are formatted just before they are
    written, so the whole document is never held at once.
    """
    blocks = checked_blocks(fieldnames, blocks)
    lone = len(fieldnames) == 1
    with _opened(stream) as f:
        if header is not None:
            f.write("# " + json.dumps(dict(header), sort_keys=True) + "\n")
        f.write(",".join(_texts(fieldnames, lone)) + "\n")
        for block in blocks:
            f.write(_block_text(block, lone))


def csv_text(
    fieldnames: Sequence[str],
    blocks: Iterable[Sequence[Sequence]],
    header: Mapping | None = None,
) -> str:
    """The full CSV document as a string: write_csv into a StringIO."""
    text = io.StringIO()
    write_csv(text, fieldnames, blocks, header)
    return text.getvalue()


def write_json(stream, payload) -> None:
    """Write payload as a JSON document to stream, a text stream or a path
    (opened and truncated first), encoded straight into it."""
    with _opened(stream) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def json_text(payload) -> str:
    """The JSON document as a string: write_json into a StringIO."""
    text = io.StringIO()
    write_json(text, payload)
    return text.getvalue()


def write_text(path: str, text: str) -> None:
    with _opened(path) as f:
        f.write(text)

