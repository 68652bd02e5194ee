"""Deterministic table and report output.

Two formats, both reproducible byte for byte on every platform:

* CSV: comma separated, UTF-8, LF line endings.  Floats are printed with
  ``%.17g`` so any double round-trips exactly.  An optional header record
  is written first as a ``#``-prefixed JSON object with sorted keys.
* JSON: ``json.dump`` with ``indent=2, sort_keys=True``.  Floats go
  through Python's repr, the shortest string that round-trips, which is
  deterministic for a given value.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import operator
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


def csv_text(
    fieldnames: Sequence[str],
    rows: Iterable[Mapping],
    header: Mapping | None = None,
) -> str:
    """Build the full CSV document as a string."""
    buf = io.StringIO()
    if header is not None:
        buf.write("# " + json.dumps(dict(header), sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([fmt(row.get(name)) for name in fieldnames])
    return buf.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def read_csv_text(text: str) -> tuple[dict | None, list[str], list[dict]]:
    """Parse a document produced by csv_text back into (header, fieldnames,
    rows); cell values stay strings."""
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
