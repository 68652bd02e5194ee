"""Read back the CSV documents that serialize.csv_text writes, with the
standard library's csv reader, so the tests hold the writer's quoting to an
independent parser."""

import csv
import io
import json


def read_csv(text: str) -> tuple[dict | None, list[str], list[dict]]:
    """(header, fieldnames, rows) of a CSV document; cells stay strings."""
    header = None
    if text.startswith("# "):
        first, _, text = text.partition("\n")
        header = json.loads(first[2:])
    table = list(csv.reader(io.StringIO(text, newline="")))
    fieldnames = table[0] if table else []
    return header, fieldnames, [dict(zip(fieldnames, row)) for row in table[1:]]
