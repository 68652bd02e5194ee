"""Deterministic text output: cell formatting, CSV documents, JSON."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from rabi_spectra.cli import _SCAN_FIELDS
from rabi_spectra.fockspace import SPECTRUM_FIELDS, spectrum_vs_g1
from rabi_spectra.model import CoefficientMode
from rabi_spectra.resonance import scan_delta1_window
from rabi_spectra.serialize import Repeat, columns_of, csv_text, fmt, json_text, write_csv

from csvdoc import read_csv


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
    rows = [{"a": 0.5, "b": None}, {"a": 1.0 / 3.0, "b": "x"}, {"a": 'say "hi"', "b": "x,\ny"}]
    text = csv_text(("a", "b"), [columns_of(("a", "b"), rows)], header)
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    assert json.loads(lines[0][2:]) == header
    assert lines[1] == "a,b"

    back_header, fieldnames, back_rows = read_csv(text)
    assert back_header == header
    assert fieldnames == ["a", "b"]
    assert float(back_rows[1]["a"]) == 1.0 / 3.0
    assert back_rows[0]["b"] == ""
    assert back_rows[2] == rows[2]  # the quoting, read by the stdlib csv reader


def test_csv_header_key_order_is_canonical():
    a = csv_text(("x",), [[[]]], {"b": 1, "a": 2})
    b = csv_text(("x",), [[[]]], {"a": 2, "b": 1})
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
    assert csv_text(fieldnames, [columns], header) == reference_csv_text(fieldnames, rows, header)


def test_negative_zero_below_positive_zero_keeps_its_sign():
    # equal by ==, yet each prints with its own sign
    text = csv_text(("x",), [[[0.0, float("-0.0")]]])
    assert text == "x\n0\n-0\n"


def test_records_read_by_attribute_equal_their_dicts():
    records = [Record(1.5, "a,b"), Record(-0.0), Record(_SHARED, True), Record(_SHARED, None)]
    dicts = [dataclasses.asdict(r) for r in records]
    columns = columns_of(("b", "a"), records)
    assert columns == columns_of(("b", "a"), dicts)
    assert csv_text(("b", "a"), [columns]) == reference_csv_text(("b", "a"), dicts)


def test_lone_carriage_return_is_always_quoted():
    # csv.writer leaves this cell bare before Python 3.13 and quotes it from
    # 3.13 on; the writer's own rule quotes it on every version
    assert csv_text(("s", "k"), [[["a\rb"], [1]]]) == 's,k\n"a\rb",1\n'


def test_a_table_needs_a_column():
    with pytest.raises(ValueError):
        csv_text((), [[]])


@pytest.mark.parametrize("columns", [[[1]], [[1], [2], [3]], [[1, 2], [3]]])
def test_columns_must_match_the_fields_and_each_other(columns):
    with pytest.raises(ValueError, match="columns of one length"):
        csv_text(("a", "b"), [columns])


def test_rows_given_as_columns_are_refused():
    # two mappings for two fields would otherwise pass the length check
    with pytest.raises(TypeError, match="columns_of"):
        csv_text(("a", "b"), [[{"a": 1, "b": 2}, {"a": 3, "b": 4}]])


def test_exact_spectrum_table_equals_the_reference():
    table = spectrum_vs_g1(1.0, 2.0, 0.7, [0.0, 0.45, 0.9], n_blocks=200,
                           mode=CoefficientMode.EXACT)
    rows = [dict(zip(SPECTRUM_FIELDS, cells)) for block in table.blocks for cells in zip(*block)]
    assert any(r["error"] for r in rows)
    assert csv_text(SPECTRUM_FIELDS, table.blocks) == reference_csv_text(SPECTRUM_FIELDS, rows)


def test_window_scan_table_equals_the_reference():
    rows = scan_delta1_window([0.5, 1.0, 1.5], [1.0, 2.0, 2.5], 0.9,
                              [0.05, 0.3, 0.7, 1.0])
    assert {r.error for r in rows} > {None}
    dicts = [r.to_dict() for r in rows]
    assert (csv_text(_SCAN_FIELDS, [columns_of(_SCAN_FIELDS, rows)])
            == reference_csv_text(_SCAN_FIELDS, dicts))


def rows_of_blocks(fieldnames, blocks):
    """The rows of a table given as row blocks, as mappings."""
    return [dict(zip(fieldnames, cells)) for block in blocks for cells in zip(*block)]


_ZERO = float("0.0")
_NEG_ZERO = float("-0.0")


class _Text(str):
    """A str subclass: not a type of the writer's cell table."""


class _Count(int):
    """An int subclass: not a type of the writer's cell table."""


# (fieldnames, row blocks); Repeat marks a shared cell
BLOCK_CORPUS = {
    "signed zeros shared": (("x", "y"), [
        [Repeat(_ZERO, 2), [1, 2]], [Repeat(_NEG_ZERO, 2), [3, 4]], [Repeat(_ZERO, 1), [5]],
    ]),
    "signed zeros per row": (("x", "y"), [
        [[_ZERO, _NEG_ZERO, float("0.0")], Repeat(1.5, 3)],
        [[_NEG_ZERO, float("0.0")], Repeat(_NEG_ZERO, 2)],
    ]),
    # the same object down a per-row column, and a zero below an equal zero
    # of the other sign: every cell takes the text of its own value
    "same-object repeats per row": (("x", "y"), [
        [[_ZERO, _ZERO, _NEG_ZERO, _NEG_ZERO, _SHARED, _SHARED], ["a"] * 6],
        [[_NEG_ZERO, _ZERO, None], [1, 1, 1]],
    ]),
    "bools, None and numpy floats": (("t", "z", "f", "s"), [
        [Repeat(True, 2), Repeat(None, 2), [np.float64(0.1), np.float64(-0.0)], [False, None]],
        [[True, False], [None, None], Repeat(np.float64(2.5), 2), Repeat(False, 2)],
    ]),
    "nan and inf": (("x", "y"), [
        [Repeat(math.nan, 2), [math.inf, -math.inf]],
        [[math.nan, math.nan, 1.0], Repeat(-math.inf, 3)],
    ]),
    "percent and quotes": (("s", "k", "t"), [
        [Repeat("100%", 2), [1, 2], Repeat('a "%d" b', 2)],
        [["%s", "%%", "50% off"], Repeat("x,%y", 3), ["+", "-", "+"]],
        [["a,b", 'say "hi"', "two\nlines"], [10**30, -(2**63), 0], Repeat("%.17g", 3)],
    ]),
    "one field with an empty cell, shared": (("only",), [
        [Repeat("", 2)], [Repeat(None, 1)], [Repeat("%", 2)], [Repeat(1.5, 1)],
    ]),
    "one field with an empty cell, per row": (("only",), [
        [["x", "", "y"]], [["", None, 2.5]], [["+", "-"]],
    ]),
    "one-row blocks": (("a", "b", "c"), [
        [[0.5], [1], ["+"]],
        [Repeat(0.5, 1), Repeat(1, 1), Repeat("-", 1)],
        [(2.5,), range(1), ("",)],
    ]),
    # a failed sweep point between solved ones, as spectrum_vs_g1 builds them
    "failed-point blocks": (("g1", "parity", "level_index", "energy", "error"), [
        [(0.0,), ("",), (None,), (None,), ("DegenerateDesign",)],
        [Repeat(0.45, 3), ["+", "-", "+"], range(3), [-1.25, 0.5, 0.5], Repeat(None, 3)],
        [(0.9,), ("",), (None,), (None,), ("Singular",)],
    ]),
    # types outside the cell table, in mixed columns: fmt's text, then the
    # quoting rule
    "numpy scalars and subclasses": (("x", "y"), [
        [[np.int64(7), np.bool_(True), np.float64(-0.0), _Text('a,"b"'), _Count(3), None, 1.5],
         Repeat(np.int64(-2), 7)],
        [Repeat(np.bool_(False), 2), [_Text('say "x"'), _Count(-4)]],
        [Repeat(_Text("c,d"), 1), Repeat(_Count(5), 1)],
        [Repeat(np.float64(-0.0), 2), [np.bool_(True), None]],
    ]),
    "one field of numpy scalars and subclasses": (("only",), [
        [[np.int64(1), _Text(""), np.bool_(False), _Text('"'), _Count(0), np.float64(-0.0)]],
        [Repeat(_Text(""), 2)], [Repeat(np.bool_(True), 1)],
    ]),
    "empty blocks": (("a", "b"), [
        [[], Repeat(1.0, 0)], [[1.0], ["b"]], [range(0), ()],
    ]),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CORPUS))
@pytest.mark.parametrize("header", [None, {"command": "demo", "g": [0.5, -0.0]}])
def test_row_blocks_equal_the_csv_writer_reference(case, header):
    fieldnames, blocks = BLOCK_CORPUS[case]
    rows = rows_of_blocks(fieldnames, blocks)
    assert csv_text(fieldnames, blocks, header) == reference_csv_text(fieldnames, rows, header)
    # the same rows as one block of plain columns
    assert csv_text(fieldnames, [columns_of(fieldnames, rows)], header) == csv_text(
        fieldnames, blocks, header)


@pytest.mark.parametrize("case", sorted(BLOCK_CORPUS))
@pytest.mark.parametrize("header", [None, {"command": "demo", "g": [0.5, -0.0]}])
def test_write_csv_to_a_path_writes_the_bytes_of_csv_text(tmp_path, case, header):
    fieldnames, blocks = BLOCK_CORPUS[case]
    path = tmp_path / "table.csv"
    write_csv(str(path), fieldnames, blocks, header)
    assert path.read_bytes() == csv_text(fieldnames, blocks, header).encode("utf-8")


class _Writes(list):
    """A text stream that keeps each write apart."""

    write = list.append


def test_write_csv_writes_one_block_at_a_time():
    fieldnames, blocks = BLOCK_CORPUS["failed-point blocks"]
    writes = _Writes()
    write_csv(writes, fieldnames, blocks, {"command": "demo"})
    header, names, *texts = writes
    assert (header, names) == ('# {"command": "demo"}\n', "g1,parity,level_index,energy,error\n")
    assert texts == [csv_text(fieldnames, [block]).split("\n", 1)[1] for block in blocks]


@pytest.mark.parametrize("blocks, error", [
    ([[[1.0], ["a"]], [[2.0, 3.0], ["b"]]], ValueError),  # a ragged last block
    ([[[1.0], ["a"]], [{"a": 1}, {"a": 2}]], TypeError),  # rows after a block
])
def test_a_table_that_fails_a_check_writes_nothing(tmp_path, blocks, error):
    path = tmp_path / "table.csv"
    path.write_bytes(b"kept\n")
    stream = io.StringIO()
    for target in (str(path), stream):
        with pytest.raises(error):
            write_csv(target, ("a", "b"), blocks, {"command": "demo"})
    assert path.read_bytes() == b"kept\n"
    assert stream.getvalue() == ""


def test_negative_zero_below_the_same_zero_object_keeps_its_sign():
    # every cell is formatted from its own value, in a column of floats and
    # in a mixed column: -0.0 == 0.0, yet they print as -0 and 0
    assert csv_text(("x",), [[[_ZERO, _ZERO, _NEG_ZERO]]]) == "x\n0\n0\n-0\n"
    assert csv_text(("x",), [[[_ZERO, None, _NEG_ZERO, _NEG_ZERO]]]) == 'x\n0\n""\n-0\n-0\n'
    assert csv_text(("x",), [[[_ZERO, _NEG_ZERO, None, _NEG_ZERO, _ZERO]]]) == (
        'x\n0\n-0\n""\n-0\n0\n')


def test_repeat_is_a_sized_sequence_of_one_object():
    cell = [1.5]
    shared = Repeat(cell, 3)
    assert len(shared) == 3
    assert all(item is cell for item in shared)
    assert shared[0] is cell and shared[-3] is cell
    for index in (3, -4):
        with pytest.raises(IndexError):
            shared[index]
    assert Repeat(0.5, 2) == Repeat(0.5, 2) != Repeat(0.5, 3)
    assert len(Repeat("x", 0)) == 0 and list(Repeat("x", 0)) == []


@pytest.mark.parametrize("block", [
    [Repeat(1, 2), [1]],
    [Repeat(1, 2), Repeat(2, 3)],
    [[1, 2]],
    [[1], [2], [3]],
])
def test_a_block_needs_a_column_per_field_of_one_length(block):
    with pytest.raises(ValueError, match="columns of one length"):
        csv_text(("a", "b"), [[[1], [2]], block])


@pytest.mark.parametrize("blocks", [
    [["ab", "cd"]],  # a block of strings, each of two "cells"
    [[{"a": 1}, {"a": 2}]],
    [[1.0, 2.0], [3.0, 4.0]],  # columns without their block
])
def test_a_table_given_as_columns_or_rows_is_refused(blocks):
    with pytest.raises(TypeError):
        csv_text(("a", "b"), blocks)

