"""Output-correctness gate: compare a CLI output with its recorded reference.

The references under ``reference/`` are the outputs of the commit that
defined the benchmark, one xz-compressed CSV per workload and input variant.
A pass matches when:

* the '#' header records agree on every key except ``version``, with
  numbers within TOLERANCE and everything else exactly;
* field names and row count are equal;
* every cell agrees: numbers within TOLERANCE, text (parity labels, error
  tokens, booleans, empty cells) exactly, so per-token error counts match;
* an oracle-compare header reports ``convergence.passed``.

TOLERANCE is the absolute eigenvalue tolerance of the repository's tests.
"""
from __future__ import annotations

import csv
import io
import json
import lzma
import math
from collections import Counter
from pathlib import Path

TOLERANCE = 1e-10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, variant: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{variant}.csv.xz"


def load_reference(workload: str, variant: str) -> str:
    return lzma.decompress(reference_path(workload, variant).read_bytes()).decode("utf-8")


def _split(text: str) -> tuple[dict, list[list[str]]]:
    lines = text.split("\n")
    header = {}
    if lines and lines[0].startswith("# "):
        header = json.loads(lines[0][2:])
        lines = lines[1:]
    return header, list(csv.reader(io.StringIO("\n".join(lines))))


def _number(cell: str) -> float | None:
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    numeric = (int, float)
    if (isinstance(a, numeric) and isinstance(b, numeric)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return abs(a - b) <= TOLERANCE
    return a == b


def error_counts(table: list[list[str]]) -> Counter:
    """Per-token counts of the 'error' column (empty when there is none)."""
    if not table or "error" not in table[0]:
        return Counter()
    col = table[0].index("error")
    return Counter(row[col] for row in table[1:] if row[col])


def check(text: str, reference: str) -> list[str]:
    """Every way `text` differs from `reference`; empty when it matches."""
    problems: list[str] = []
    head, table = _split(text)
    ref_head, ref_table = _split(reference)
    head.pop("version", None)
    ref_head.pop("version", None)
    if not _close(head, ref_head):
        keys = sorted(k for k in head.keys() | ref_head.keys()
                      if not _close(head.get(k), ref_head.get(k)))
        problems.append(f"header differs in {keys}")
    if ref_head.get("command") == "oracle-compare":
        if head.get("convergence", {}).get("passed") is not True:
            problems.append("oracle convergence.passed is not true")
    if error_counts(table) != error_counts(ref_table):
        problems.append(f"error counts {dict(error_counts(table))} "
                        f"!= {dict(error_counts(ref_table))}")
    if not table or not ref_table or table[0] != ref_table[0]:
        problems.append("field names differ")
        return problems
    if len(table) != len(ref_table):
        problems.append(f"{len(table) - 1} rows, reference has {len(ref_table) - 1}")
        return problems
    fields = table[0]
    for i, (row, ref) in enumerate(zip(table[1:], ref_table[1:]), start=1):
        if len(row) != len(ref):
            problems.append(f"row {i} has {len(row)} cells, reference {len(ref)}")
            continue
        for field, cell, ref_cell in zip(fields, row, ref):
            if cell == ref_cell:
                continue
            x, y = _number(cell), _number(ref_cell)
            if x is None or y is None or abs(x - y) > TOLERANCE:
                problems.append(f"row {i} {field}: {cell!r} != reference {ref_cell!r}")
                if len(problems) >= 10:
                    return problems
    return problems
