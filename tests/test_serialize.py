"""Deterministic text output: cell formatting, CSV documents, JSON."""

import csv
import dataclasses
import io
import json
import math

import pytest

from rabi_spectra.cli import _SCAN_FIELDS
from rabi_spectra.fockspace import SPECTRUM_FIELDS, spectrum_vs_g1
from rabi_spectra.model import CoefficientMode
from rabi_spectra.resonance import scan_delta1_window
from rabi_spectra.serialize import columns_of, csv_text, fmt, json_text, read_csv_text


def reference_csv_text(fieldnames, rows, header=None):
    """The csv.writer-based writer that csv_text replaced, kept as the
    reference its bytes are checked against.  rows are mappings."""
    buf = io.StringIO()
    if header is not None:
        buf.write("# " + json.dumps(dict(header), sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([fmt(row.get(name)) for name in fieldnames])
    return buf.getvalue()


def test_fmt_float_round_trips_at_full_precision():
    for x in (1.0 / 3.0, math.pi, 0.29797713043845475, -1.3570870471315373e-17):
        assert float(fmt(x)) == x
    assert fmt(0.1) == "0.10000000000000001"  # 17 significant digits


def test_fmt_special_values():
    assert fmt(None) == ""
    assert fmt(True) == "true"
    assert fmt(False) == "false"
    assert fmt(3) == "3"
    assert fmt("text") == "text"


def test_csv_document_layout_and_round_trip():
    header = {"command": "demo", "omega": 1.0}
    rows = [{"a": 0.5, "b": None}, {"a": 1.0 / 3.0, "b": "x"}]
    text = csv_text(("a", "b"), columns_of(("a", "b"), rows), header)
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    assert json.loads(lines[0][2:]) == header
    assert lines[1] == "a,b"

    back_header, fieldnames, back_rows = read_csv_text(text)
    assert back_header == header
    assert fieldnames == ["a", "b"]
    assert float(back_rows[1]["a"]) == 1.0 / 3.0
    assert back_rows[0]["b"] == ""


def test_csv_header_key_order_is_canonical():
    a = csv_text(("x",), [[]], {"b": 1, "a": 2})
    b = csv_text(("x",), [[]], {"a": 2, "b": 1})
    assert a == b


def test_json_text_is_canonical_and_newline_terminated():
    a = json_text({"b": 1, "a": [1, 2]})
    b = json_text({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1, 2], "b": 1}


@dataclasses.dataclass(frozen=True)
class Record:
    a: object
    b: object = None


_SHARED = float("0.30000000000000004")

# (fieldnames, rows as mappings)
CORPUS = {
    "zero then negative zero": (("x",), [{"x": 0.0}, {"x": float("-0.0")}, {"x": 0.0}]),
    "negative zero then zero": (("x", "y"), [{"x": -0.0, "y": 1}, {"x": float("0.0"), "y": 1}]),
    "special floats": (("x",), [{"x": v} for v in (math.nan, math.inf, -math.inf, 1e-17,
                                                   -1.3570870471315373e-17, 5e-324)]),
    "large ints": (("n", "m"), [{"n": 10**30, "m": -(2**63)}, {"n": 0, "m": 257}]),
    "bools and none": (("t", "f", "z"), [{"t": True, "f": False, "z": None}] * 3),
    "text needing quotes": (("s", "k"), [
        {"s": "a,b", "k": 1}, {"s": 'say "hi"', "k": 2}, {"s": "two\nlines", "k": 3},
        {"s": "crlf\r\nend", "k": 4}, {"s": '"', "k": 5}, {"s": ",", "k": 6},
    ]),
    "text left bare": (("s", "k"), [
        {"s": " leading space", "k": 1}, {"s": "tab\there", "k": 2}, {"s": "", "k": 3},
        {"s": "+", "k": 4}, {"s": "NoBracket", "k": 5},
    ]),
    "one column with empty cells": (("only",), [
        {"only": None}, {"only": ""}, {"only": 1.5}, {}, {"only": "x"},
    ]),
    "one empty column name": (("",), [{"": 2.0}]),
    "quoted column names": (('a,b', 'c"d', "e"), [{"a,b": 1, 'c"d': 2, "e": 3}]),
    "zero rows": (("a", "b"), []),
    "missing keys": (("a", "b", "c"), [{"a": 1.0}, {"c": "z"}, {}]),
    "shared float run": (("x", "y"), [{"x": _SHARED, "y": i} for i in range(50)]
                         + [{"x": float("0.30000000000000004"), "y": -1}]),
    # strings recur apart, as the parity tags do; each is a new object
    "alternating text": (("s", "k"), [
        {"s": "".join(("a,b", "+", 'q"', "", "+")[i % 5]), "k": i} for i in range(15)
    ]),
    "one column of alternating text": (("only",), [
        {"only": ("", "-", 'x"y')[i % 3]} for i in range(9)
    ]),
}


@pytest.mark.parametrize("case", sorted(CORPUS))
@pytest.mark.parametrize("header", [None, {"command": "demo", "g": [0.5, -0.0]}])
def test_csv_text_equals_the_csv_writer_reference(case, header):
    fieldnames, rows = CORPUS[case]
    columns = columns_of(fieldnames, rows)
    assert csv_text(fieldnames, columns, header) == reference_csv_text(fieldnames, rows, header)


def test_negative_zero_below_positive_zero_keeps_its_sign():
    # equal by ==, not the same object: the cell text must not be reused
    text = csv_text(("x",), [[0.0, float("-0.0")]])
    assert text == "x\n0\n-0\n"


def test_records_read_by_attribute_equal_their_dicts():
    records = [Record(1.5, "a,b"), Record(-0.0), Record(_SHARED, True), Record(_SHARED, None)]
    dicts = [dataclasses.asdict(r) for r in records]
    columns = columns_of(("b", "a"), records)
    assert columns == columns_of(("b", "a"), dicts)
    assert csv_text(("b", "a"), columns) == reference_csv_text(("b", "a"), dicts)


def test_lone_carriage_return_is_always_quoted():
    # csv.writer leaves this cell bare before Python 3.13 and quotes it from
    # 3.13 on; the writer's own rule quotes it on every version
    assert csv_text(("s", "k"), [["a\rb"], [1]]) == 's,k\n"a\rb",1\n'


def test_a_table_needs_a_column():
    with pytest.raises(ValueError):
        csv_text((), [])


@pytest.mark.parametrize("columns", [[[1]], [[1], [2], [3]], [[1, 2], [3]]])
def test_columns_must_match_the_fields_and_each_other(columns):
    with pytest.raises(ValueError, match="columns of one length"):
        csv_text(("a", "b"), columns)


def test_rows_given_as_columns_are_refused():
    # two mappings for two fields would otherwise pass the length check
    with pytest.raises(TypeError, match="columns_of"):
        csv_text(("a", "b"), [{"a": 1, "b": 2}, {"a": 3, "b": 4}])


def test_exact_spectrum_table_equals_the_reference():
    table = spectrum_vs_g1(1.0, 2.0, 0.7, [0.0, 0.45, 0.9], n_blocks=200,
                           mode=CoefficientMode.EXACT)
    assert any(r.error for r in table.rows)
    dicts = [r.to_dict() for r in table.rows]
    assert csv_text(SPECTRUM_FIELDS, table.columns) == reference_csv_text(SPECTRUM_FIELDS, dicts)


def test_window_scan_table_equals_the_reference():
    rows = scan_delta1_window([0.5, 1.0, 1.5], [1.0, 2.0, 2.5], 0.9,
                              [0.05, 0.3, 0.7, 1.0])
    assert {r.error for r in rows} > {None}
    dicts = [r.to_dict() for r in rows]
    assert (csv_text(_SCAN_FIELDS, columns_of(_SCAN_FIELDS, rows))
            == reference_csv_text(_SCAN_FIELDS, dicts))
