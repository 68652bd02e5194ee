"""Command-line surface: exit codes, formats, presets, determinism."""

import argparse
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from rabi_spectra import cli, fockspace
from rabi_spectra.cli import COMMANDS, PRESETS, build_parser, main, parse_grid
from rabi_spectra.model import ModelParams
from rabi_spectra.oracle import MIN_N_MAX, compare_trwa_exact
from rabi_spectra.reservoir import ReservoirParams
from rabi_spectra.resonance import DegenerateDesignError, design_resonant

from csvdoc import read_csv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse error paths
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_lambda_single_pair():
    code, out, _ = run(["lambda", "--omega", "1.0", "--delta2", "0", "--g2", "0.5"])
    assert code == 0
    header, fields, rows = read_csv(out)
    assert fields == ["qubit", "omega", "delta", "g", "lam", "residual", "in_window"]
    assert rows == [
        {
            "qubit": "2", "omega": "1", "delta": "0", "g": "0.5",
            "lam": "-0.5", "residual": "0", "in_window": "false",
        }
    ]
    assert header["command"] == "lambda"


def test_lambda_both_pairs():
    code, out, _ = run([
        "lambda", "--omega", "1.0",
        "--delta1", "2.0", "--g1", "0.3",
        "--delta2", "2.0", "--g2", "0.7",
    ])
    assert code == 0
    _, _, rows = read_csv(out)
    assert [r["qubit"] for r in rows] == ["1", "2"]
    assert float(rows[0]["lam"]) == pytest.approx(-0.060350412751367016, abs=1e-12)
    assert float(rows[1]["lam"]) == pytest.approx(0.29797713043845475, abs=1e-12)
    assert rows[0]["in_window"] == "true"
    assert rows[1]["in_window"] == "false"


def test_lambda_missing_pair_is_a_usage_error():
    code, out, _ = run(["lambda", "--omega", "1.0"])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "Value"


def test_lambda_half_pair_is_a_usage_error():
    code, out, _ = run(["lambda", "--omega", "1.0", "--g2", "0.5"])
    assert code == 1


def test_lambda_numerical_failure_exit_code():
    code, out, _ = run(["lambda", "--omega", "1.0", "--delta2", "0.4", "--g2", "0.95"])
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "NoBracket"


def test_design_documented_point(tmp_path):
    out_path = tmp_path / "design.json"
    code, out, _ = run([
        "design", "--omega", "1.0", "--delta2", "2.0", "--g2", "0.7",
        "--g1", "0.9", "--out", str(out_path),
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())  # .json extension implies JSON
    assert doc["header"]["command"] == "design"
    row = doc["rows"][0]
    assert row["delta1"] == pytest.approx(1.3570870471315373, abs=1e-11)
    assert abs(row["res_eq10"]) < 1e-10


def test_out_extension_picks_csv_otherwise(tmp_path):
    out_path = tmp_path / "design.csv"
    code, _, _ = run([
        "design", "--omega", "1.0", "--delta2", "2.0", "--g2", "0.7",
        "--g1", "0.9", "--out", str(out_path),
    ])
    assert code == 0
    header, fields, rows = read_csv(out_path.read_text())
    assert len(rows) == 1
    assert "delta1" in fields


def test_format_flag_beats_extension(tmp_path):
    out_path = tmp_path / "design.json"
    code, _, _ = run([
        "design", "--omega", "1.0", "--delta2", "2.0", "--g2", "0.7",
        "--g1", "0.9", "--out", str(out_path), "--format", "csv",
    ])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# {")  # CSV comment header, not JSON


def test_csv_floats_survive_round_trip():
    code, out, _ = run(["design", "--omega", "1.0", "--delta2", "2.0",
                        "--g2", "0.7", "--g1", "0.9"])
    assert code == 0
    _, _, rows = read_csv(out)
    assert float(rows[0]["lambda2"]) == 0.29797713043845475


def test_scan_window_fig_preset():
    code, out, _ = run(["scan-window", "--fig", "1a"])
    assert code == 0
    header, fields, rows = read_csv(out)
    assert len(rows) == 76  # 1 omega x 4 delta2 x 19 g2
    assert header["delta2_values"] == [1.0, 1.5, 2.0, 2.5]
    assert header["version"]
    assert "lambda2" in fields and "in_window" in fields
    # error rows appear past the solvable region but never abort the scan
    assert any(r["error"] for r in rows)
    assert any(r["in_window"] == "true" for r in rows)


def test_scan_window_needs_grids():
    code, _, _ = run(["scan-window"])
    assert code == 1


def test_spectrum_reports_design_failures_per_row():
    code, out, _ = run([
        "spectrum", "--omega", "1", "--delta2", "2.0", "--g2", "0.7",
        "--g1-grid", "0.0,0.45,0.9", "--n-blocks", "3",
    ])
    assert code == 0
    _, _, rows = read_csv(out)
    bad = [r for r in rows if r["error"]]
    assert len(bad) == 1
    assert bad[0]["g1"] == "0" and bad[0]["error"] == "DegenerateDesign"


def _with_a_ragged_last_block(monkeypatch):
    """cli's sweep, with a last row block whose error column is one cell
    short: a table that fails the writer's checks after its good blocks."""
    sweep = cli.spectrum_vs_g1

    def ragged(*args):
        fields = len(fockspace.SPECTRUM_FIELDS)
        return SimpleNamespace(blocks=[*sweep(*args).blocks, [[0.5]] * (fields - 1) + [[]]])

    monkeypatch.setattr(cli, "spectrum_vs_g1", ragged)


def test_a_malformed_table_writes_no_csv(tmp_path, monkeypatch):
    _with_a_ragged_last_block(monkeypatch)
    argv = ["spectrum", *SPECTRUM_DESIGN, "--g1-grid", "0.5,0.9", "--n-blocks", "3"]
    out = tmp_path / "spectrum.csv"
    out.write_bytes(b"kept\n")
    code, stdout, _ = run([*argv, "--out", str(out)])
    assert code == 1
    assert out.read_bytes() == b"kept\n"
    assert json.loads(stdout)["error"] == "Value"
    # on stdout the error record is the only text: no header or block before it
    code, stdout, _ = run(argv)
    assert code == 1
    assert json.loads(stdout)["error"] == "Value"


def test_out_in_a_missing_directory_is_one_error_record(tmp_path):
    code, stdout, _ = run(["spectrum", *SPECTRUM_DESIGN, "--g1-grid", "0.5,0.9",
                           "--n-blocks", "3", "--out", str(tmp_path / "missing" / "s.csv")])
    assert code == 1
    record = json.loads(stdout)
    assert (record["error"], record["command"]) == ("FileNotFound", "spectrum")
    assert not (tmp_path / "missing").exists()


def test_a_spectrum_written_to_out_never_holds_its_whole_document(tmp_path):
    # the CSV is 2.36 MB; a writer that builds it as one str holds it twice
    # over (the text and its encoding), while a block of it is 1/24 of that
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", *SPECTRUM_DESIGN, "--g1-grid", "0.05:1.2:0.05",
            "--n-blocks", "100", "--out", str(out)]
    assert main(argv) == 0  # warm caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


def test_a_json_spectrum_is_encoded_straight_into_out(tmp_path):
    # the JSON of spectrum --fig 3 at 200 exact blocks is 8.2 MiB; encoded
    # as one str first, the run peaks at about 7.6 times that, and streamed
    # at about 1.2 times, most of it the row dicts
    out = tmp_path / "spectrum.json"
    argv = ["spectrum", "--fig", "3", "--n-blocks", "200", "--mode", "exact",
            "--format", "json", "--out", str(out)]
    assert main(argv) == 0  # warm caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.stat().st_size


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block", [
    [[2.0, 3.0], ["b"]],  # columns of two lengths: zipped, a row is lost
    [[2.0]],  # too few columns: zipped, a field is dropped
], ids=["ragged", "short"])
def test_a_malformed_table_raises_before_out_is_opened(tmp_path, fmt, block):
    path = tmp_path / "table.out"
    path.write_bytes(b"kept\n")
    args = SimpleNamespace(out=str(path), format=fmt)
    with pytest.raises(ValueError, match="columns of one length"):
        cli._emit(args, ("a", "b"), [[[1.0], ["a"]], block], {"command": "demo"})
    assert path.read_bytes() == b"kept\n"


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_module("workloads")


@pytest.mark.parametrize("seed", [0, 1, 2, WORKLOADS.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", ["sweep-exact", "sweep-approx", "scan-dense"])
def test_spectrum_csv_equals_the_benchmark_reference_bytes(tmp_path, workload, seed):
    # the benchmark's gate compares to 1e-10; the bytes are kept exactly
    wl = WORKLOADS.build(workload, seed)
    out = tmp_path / "out.csv"
    assert run([*wl.argv, "--out", str(out)])[0] == 0
    reference = _perfbench_module("gate").load_reference(workload, wl.variant)
    assert out.read_bytes() == reference.encode("utf-8")


@pytest.mark.parametrize("seed", [0, 1, 2, WORKLOADS.HELD_OUT_SEED])
def test_oracle_csv_passes_the_benchmark_gate(tmp_path, seed):
    # the oracle bytes have moved in the last bits (<= 5e-13) since the
    # references were recorded, so this holds them to the gate's 1e-10;
    # LEVEL_PINS holds today's bytes exactly
    gate = _perfbench_module("gate")
    wl = WORKLOADS.build("oracle-n300", seed)
    out = tmp_path / "out.csv"
    assert run([*wl.argv, "--out", str(out)])[0] == 0
    text = out.read_text(encoding="utf-8")
    assert gate.check(text, gate.load_reference("oracle-n300", wl.variant)) == []
    header, _, _ = read_csv(text)
    assert header["convergence"]["passed"] is True


def _with_g1(argv, g1):
    argv = list(argv)
    argv[argv.index("--g1") + 1] = g1
    return argv


@pytest.mark.parametrize("seed, g1", [
    (0, None), (1, None), (2, None), (WORKLOADS.HELD_OUT_SEED, None), (0, "0.5"), (0, "1.2"),
])
def test_each_oracle_sector_certifies_in_one_round(monkeypatch, seed, g1):
    # at the g1 of every oracle-n300 variant and at both ends of their g1
    # range, the first leading block of each sector of the 2 n_max = 600
    # band holds the certificate: one inertia count per sector, and the
    # n_max = 300 levels reuse that solve
    from rabi_spectra import numerics

    rungs = []
    count_below = numerics._count_below

    def spy(band, shifts):
        rungs.append(len(band.rungs))
        return count_below(band, shifts)

    monkeypatch.setattr(numerics, "_count_below", spy)
    argv = WORKLOADS.build("oracle-n300", seed).argv
    assert run(argv if g1 is None else _with_g1(argv, g1))[0] == 0
    assert rungs == [601, 601]


def _spy_calls(monkeypatch, name):
    """Record the arguments of each call to the library function that cli
    binds as name, and still run it."""
    calls = []
    original = getattr(cli, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, name, spy)
    return calls


def test_spectrum_preset_is_one_sweep_call(monkeypatch):
    calls = _spy_calls(monkeypatch, "spectrum_vs_g1")
    code, out, _ = run(["spectrum", "--fig", "3", "--n-blocks", "3"])
    assert code == 0
    ((omega, delta2, g2, g1_grid, n_blocks, mode),) = calls
    assert (omega, delta2, g2, g1_grid, n_blocks) == (1.0, 2.0, 0.7, PRESETS["fig3"]["g1_grid"], 3)
    # the command writes the row blocks of that one call, in grid order
    result = fockspace.spectrum_vs_g1(omega, delta2, g2, g1_grid, n_blocks, mode)
    _, fields, rows = read_csv(out)
    g1s = [g1 for block in result.blocks for g1 in block[fields.index("g1")]]
    assert len(rows) == len(g1s) > len(g1_grid)
    assert [float(r["g1"]) for r in rows] == g1s


# g1 points of a spectrum grid whose design the planted_failures fixture
# fails: 0.0 is degenerate on its own, 0.3 and 0.6 fail between solved points
PLANTED_GRID = "0.0,0.2,0.3,0.4,0.5,0.6,0.7,0.8"


@pytest.fixture
def planted_failures(monkeypatch):
    """The sweep's design (resonance._design) with failures planted between
    solved points: at g1 0.3 the design derives a negative delta1, at 0.6
    it is degenerate.  One design (omega, delta2, g2) is physical at every
    g1 > 0 or at none, so a real grid cannot mix the two."""
    original = fockspace._design

    def planted(omega, delta2, g2, g1, lambda2):
        if g1 == 0.6:
            raise DegenerateDesignError("planted")
        des = original(omega, delta2, g2, g1, lambda2)
        return dataclasses.replace(des, delta1=-des.delta1) if g1 == 0.3 else des

    monkeypatch.setattr(fockspace, "_design", planted)


def test_spectrum_bytes_do_not_depend_on_the_stack_chunk(monkeypatch, planted_failures):
    argv = ["spectrum", *SPECTRUM_DESIGN, "--g1-grid", PLANTED_GRID, "--n-blocks", "3"]
    code, default, _ = run(argv)
    assert code == 0
    _, _, rows = read_csv(default)
    assert [(r["g1"], r["error"]) for r in rows if r["error"]] == [
        ("0", "DegenerateDesign"), ("0.29999999999999999", "NonphysicalDesign"),
        ("0.59999999999999998", "DegenerateDesign")]
    sizes = []
    stacked = fockspace.eigvals_stacked

    def spy(blocks):
        sizes.append(len(blocks))
        return stacked(blocks)

    monkeypatch.setattr(fockspace, "eigvals_stacked", spy)
    monkeypatch.setattr(fockspace, "_STACK_BLOCKS", 3)  # one point per chunk
    code, chunked, _ = run(argv)
    assert code == 0
    assert sizes == [3] * 10  # each of the 5 solved points, both chains
    assert chunked == default


def test_spectrum_solves_its_whole_grid_in_one_call(monkeypatch, planted_failures):
    calls = _spy_calls(monkeypatch, "spectrum_vs_g1")
    argv = ["spectrum", *SPECTRUM_DESIGN, "--g1-grid", PLANTED_GRID, "--n-blocks", "3"]
    code, out, _ = run(argv)
    assert code == 0 and out
    assert [list(args[3]) for args in calls] == [[0.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]]


@pytest.mark.parametrize("fig, scan, grids", [
    ("1b", "scan_lambda2_window", ([0.5, 1.0, 1.5], [2.0])),
    ("2b", "scan_delta1_window", ([0.5, 1.0, 1.5], [2.0], 0.9)),
])
def test_scan_window_scans_its_whole_grid_in_one_call(monkeypatch, fig, scan, grids):
    calls = _spy_calls(monkeypatch, scan)
    code, out, _ = run(["scan-window", "--fig", fig])
    assert code == 0
    ((*head, g2_grid, threshold),) = calls
    assert (tuple(head), g2_grid, threshold) == (grids, PRESETS[f"fig{fig}"]["g2_grid"], 0.1)
    assert len(read_csv(out)[2]) == 3 * len(g2_grid)


def test_reruns_are_byte_identical():
    argv = ["scan-window", "--fig", "2b"]
    first = run(argv)
    assert first[0] == 0 and first[1]
    assert run(argv) == first


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega": 1.0, "delta2": 2.0, "g2": 0.7, "g1": 0.7}))
    code, out, _ = run(["design", "--config", str(cfg), "--g1", "0.9",
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["g1"] == 0.9  # flag beats config
    assert doc["header"]["g2"] == 0.7  # config fills the rest


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega": 1.0, "bogus": 3}))
    code, out, _ = run(["design", "--config", str(cfg), "--delta2", "2.0",
                        "--g2", "0.7", "--g1", "0.9"])
    assert code == 1
    assert "bogus" in json.loads(out)["message"]


def test_oracle_compare_small_run():
    code, out, _ = run([
        "oracle-compare", "--omega", "1.0", "--delta2", "2.0", "--g2", "0.7",
        "--g1", "0.9", "--n-levels", "4", "--n-max", "24", "--n-blocks", "4",
    ])
    assert code == 0
    _, fields, rows = read_csv(out)
    assert len(rows) == 4
    assert "abs_dev" in fields
    assert float(rows[0]["abs_dev"]) == 0.0


def test_reservoir_dark_grid():
    code, out, _ = run([
        "reservoir-dark", "--omega", "1", "--omega1", "0.8", "--v", "0.2",
        "--g1", "0.3", "--g2", "0.3", "--g1p", "0.2", "--g2p", "0.2",
        "--delta1", "1.0", "--delta2", "1.0", "--m-max", "2", "--n-max", "2",
    ])
    assert code == 0
    _, fields, rows = read_csv(out)
    assert "residual" in fields
    assert rows, "expected at least one (m, n) row"
    assert all(float(r["residual"]) <= 1e-12 for r in rows)


def test_reservoir_quasi_window_report():
    code, out, _ = run([
        "reservoir-quasi", "--omega", "1", "--omega1", "0.8", "--v", "0.2",
        "--g1", "0.3", "--g2", "0.3", "--g1p", "0.2", "--g2p", "0.2",
        "--delta1", "1.0", "--delta2", "1.0", "--m", "1", "--n", "1",
        "--window", "--k-value", "0.1",
    ])
    assert code == 0
    doc = json.loads(out)
    # seed (1, 1): six chain states, one of whose eigenvalues is the
    # singlet's claimed energy; and the printed six-state window
    assert doc["subspace"]["data"]["dim"] == 6
    assert doc["subspace"]["residuals"]["eigenvalue_gap"] <= 1e-12
    assert len(doc["window"]["eigenvalues"]) == 6


def _pins(name):
    return json.loads((Path(__file__).parent / "data" / name).read_text(encoding="utf-8"))


RESERVOIR_PINS = _pins("reservoir_cli.json")
# the oracle-n300 workload at seeds 0, 1, 2 and 977, and exact-mode
# oracle-compare and spectrum: the merged levels of both parities
LEVEL_PINS = _pins("level_cli.json")


def _assert_reproduces(pin, tmp_path, monkeypatch):
    """stdout, exit code and --out files of pin["argv"], run in an empty
    working directory, byte for byte."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(pin["argv"])
    assert (code, out) == (pin["exit"], pin["stdout"])
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == pin["files"]


@pytest.mark.parametrize("pin", RESERVOIR_PINS, ids=lambda pin: pin["name"])
def test_reservoir_commands_reproduce_their_recorded_bytes(tmp_path, monkeypatch, pin):
    # no benchmark reference covers these commands
    _assert_reproduces(pin, tmp_path, monkeypatch)


@pytest.mark.parametrize("pin", LEVEL_PINS, ids=lambda pin: pin["name"])
def test_level_commands_reproduce_their_recorded_bytes(tmp_path, monkeypatch, pin):
    # the benchmark gate holds oracle-n300 to 1e-10 only, and no reference
    # covers exact-mode oracle-compare or spectrum --fig 3
    _assert_reproduces(pin, tmp_path, monkeypatch)


# the documents the CLI writes besides tables: validate's report on a valid
# and an invalid set, the error records of a validation failure, of a
# numerical failure (exit 2), of a missing --config and of --out into a
# missing directory, design as JSON on stdout and lambda as JSON in --out
DOCUMENT_PINS = _pins("document_cli.json")


@pytest.mark.parametrize("pin", DOCUMENT_PINS, ids=lambda pin: pin["name"])
def test_documents_reproduce_their_recorded_bytes(tmp_path, monkeypatch, pin):
    _assert_reproduces(pin, tmp_path, monkeypatch)


def _assert_hashes_to(pin, tmp_path, monkeypatch):
    """stdout of pin["argv"], run in an empty working directory, has the
    recorded length and SHA-256, with the recorded exit code and no file."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(pin["argv"])
    data = out.encode("utf-8")
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        pin["exit"], pin["stdout_bytes"], pin["stdout_sha256"])
    assert list(tmp_path.iterdir()) == []


# --format json of spectrum --fig 3 (approx and exact) and scan-window
# --fig 1a: stdout held by its length and SHA-256, with no --out file
JSON_PINS = _pins("json_cli.json")


@pytest.mark.parametrize("pin", JSON_PINS, ids=lambda pin: pin["name"])
def test_json_tables_reproduce_their_recorded_bytes(tmp_path, monkeypatch, pin):
    _assert_hashes_to(pin, tmp_path, monkeypatch)


# the CSV tables whose columns mix types (None with floats or strings, and
# bools): scan-window --fig 1a, 1b, 2a and 2b, design, a spectrum sweep
# whose first point fails, and the README's lambda and reservoir-dark
# examples
CSV_PINS = _pins("csv_cli.json")


@pytest.mark.parametrize("pin", CSV_PINS, ids=lambda pin: pin["name"])
def test_csv_tables_reproduce_their_recorded_bytes(tmp_path, monkeypatch, pin):
    _assert_hashes_to(pin, tmp_path, monkeypatch)


def test_validate_flags_bad_numbers():
    code, out, _ = run(["validate", "--for", "design", "--omega", "-1",
                        "--delta2", "2.0", "--g2", "0.7", "--g1", "0.9"])
    assert code == 1
    doc = json.loads(out)
    assert not doc["valid"]
    assert doc["violations"] == [
        {"field": "omega", "message": "ModelParams requires omega > 0, got -1.0"}
    ]


@pytest.mark.parametrize("command, flags", [
    ("spectrum", ["--fig", "3"]),
    ("oracle-compare", ["--omega", "1.0", "--delta2", "2.0", "--g2", "0.7", "--g1", "0.9"]),
])
def test_validate_caps_the_block_count(command, flags):
    # validate only: without the cap the command builds chains of 2e9 rungs
    code, out, _ = run(["validate", "--for", command, *flags, "--n-blocks", "1000000000"])
    assert code == 1
    assert json.loads(out)["violations"] == [
        {"field": "n_blocks", "message": "n_blocks must be <= 4999, got 1000000000"}
    ]
    assert run(["validate", "--for", command, *flags, "--n-blocks", "4999"])[0] == 0


def test_validate_flags_bad_grid_step():
    code, out, _ = run(["validate", "--for", "scan-window",
                        "--omega-values", "1.0", "--delta2-values", "2.0",
                        "--g2-grid", "0.1:1.0:0"])
    assert code == 1
    doc = json.loads(out)
    assert any(v["field"] == "g2_grid" and "step" in v["message"]
               for v in doc["violations"])


def test_parse_grid_range_never_passes_stop():
    assert parse_grid("0:1:0.6") == [0.0, 0.6]
    assert parse_grid("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.3]
    assert parse_grid("2:2:0.5") == [2.0]


def test_parse_grid_rejects_nonfinite_range():
    for text in ("0:inf:0.1", "0:1:inf", "nan:1:0.1"):
        with pytest.raises(ValueError):
            parse_grid(text)
    code, out, _ = run(["validate", "--for", "scan-window", "--omega-values", "1",
                        "--delta2-values", "2", "--g2-grid", "0:inf:0.1"])
    assert code == 1
    assert any(v["field"] == "g2_grid" for v in json.loads(out)["violations"])


SPECTRUM_DESIGN = ["--omega", "1", "--delta2", "2.0", "--g2", "0.7"]


def test_grid_lists_reject_nonfinite_entries(tmp_path):
    # parse_grid reads the syntax; the grid rule's check_grid rejects the entries
    grid_rule = cli.RULES["non-negative grid"][0]
    for text in ("nan,0.5", "0.5,inf", "-inf"):
        with pytest.raises(ValueError, match="^g1_grid: grid entries must be finite numbers"):
            grid_rule("g1_grid", text, None)
    code, out, _ = run(["spectrum", *SPECTRUM_DESIGN, "--g1-grid", "nan,0.5",
                        "--n-blocks", "2"])
    assert code == 1
    assert json.loads(out)["error"] == "Value"
    # the config-list form; json writes the float as the bare token NaN
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g1_grid": [0.5, float("nan")]}))
    code, out, _ = run(["spectrum", *SPECTRUM_DESIGN, "--config", str(cfg),
                        "--n-blocks", "2"])
    assert code == 1
    assert json.loads(out)["error"] == "Value"
    code, out, _ = run(["validate", "--for", "spectrum", *SPECTRUM_DESIGN,
                        "--config", str(cfg)])
    assert code == 1
    assert [v["field"] for v in json.loads(out)["violations"]] == ["g1_grid"]


@pytest.mark.parametrize("grid", ["0.9,0.5,0.9", "0.5,0.5", "0.9,0.5"])
def test_spectrum_and_validate_reject_an_unordered_g1_grid(grid):
    code, out, _ = run(["spectrum", *SPECTRUM_DESIGN, "--g1-grid", grid,
                        "--n-blocks", "2"])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "Value"
    assert "strictly increasing" in record["message"]
    code, out, _ = run(["validate", "--for", "spectrum", *SPECTRUM_DESIGN,
                        "--g1-grid", grid])
    assert code == 1
    assert json.loads(out)["violations"] == [
        {"field": "g1_grid", "message": record["message"]}
    ]


ORACLE_FLAGS = ["oracle-compare", "--omega", "1.0", "--delta2", "2.0", "--g2", "0.7",
                "--g1", "0.9"]


@pytest.mark.parametrize("n_max", ["1", "3"])
def test_oracle_compare_and_validate_reject_the_same_truncations(n_max):
    # the truncation rule comes from model.MIN_N_MAX, which the builders check
    code, out, _ = run([*ORACLE_FLAGS, "--n-max", n_max])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "Value"
    assert record["message"] == f"n_max must be >= {MIN_N_MAX}, got {n_max}"
    code, out, _ = run(["validate", "--for", *ORACLE_FLAGS, "--n-max", n_max])
    assert code == 1
    assert json.loads(out)["violations"] == [{"field": "n_max", "message": record["message"]}]
    assert run([*ORACLE_FLAGS, "--n-max", str(MIN_N_MAX)])[0] == 0


@pytest.mark.parametrize("n_max, n_levels, top", [
    ("4", "30", 20),  # the exact truncation holds 4 (n_max + 1) levels
    ("10", "70", 44),
    ("30", "70", 68),  # 8 default blocks hold 8 * 8 + 4 levels
])
def test_oracle_compare_and_validate_reject_the_same_level_counts(n_max, n_levels, top):
    # the bound comes from oracle.check_n_levels, which compare_trwa_exact checks
    flags = [*ORACLE_FLAGS, "--n-max", n_max, "--n-levels", n_levels]
    code, out, _ = run(flags)
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "Value"
    assert record["message"].startswith(f"n_levels={n_levels} outside [1, {top}]")
    code, out, _ = run(["validate", "--for", *flags])
    assert code == 1
    assert json.loads(out)["violations"] == [{"field": "n_levels", "message": record["message"]}]
    with pytest.raises(ValueError) as exc:
        compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=int(n_levels), n_max=int(n_max))
    assert str(exc.value) == record["message"]
    code, out, _ = run(["validate", "--for", *ORACLE_FLAGS, "--n-max", n_max,
                        "--n-levels", str(top)])
    assert code == 0, out


HUGE = int("9" * 400)  # past the float range: float() raises OverflowError


@pytest.mark.parametrize("command, field, config, message", [
    ("design", "g1", {"omega": 1, "delta2": 2, "g2": 0.7, "g1": HUGE},
     "g1: must be finite, got inf"),
    ("design", "omega", {"omega": -HUGE, "delta2": 2, "g2": 0.7, "g1": 0.9},
     "omega: must be finite, got -inf"),
    ("spectrum", "g1_grid", {"omega": 1, "delta2": 2, "g2": 0.7, "g1_grid": [0.5, HUGE]},
     f"g1_grid: grid entries must be finite numbers, got {HUGE!r}"),
], ids=["design-g1", "design-omega", "spectrum-g1_grid"])
def test_an_integer_past_the_float_range_is_a_named_violation(tmp_path, command, field,
                                                              config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run([command, "--config", str(cfg)])
    assert (code, err) == (1, "")
    assert json.loads(out)["message"] == message
    code, out, err = run(["validate", "--for", command, "--config", str(cfg)])
    assert (code, err) == (1, "")
    assert json.loads(out)["violations"] == [{"field": field, "message": message}]


# parameter class -> (command, a valid configuration): the command's
# settings hold every field of the class
PARAM_CLASSES = {
    ModelParams: ("lambda", {"omega": 1.0, "delta1": 2.0, "g1": 0.3, "delta2": 2.0, "g2": 0.7}),
    ReservoirParams: ("reservoir-dark", {"omega": 1.0, "omega1": 0.8, "v": 0.2, "g1": 0.3,
                                         "g2": 0.3, "g1p": 0.2, "g2p": 0.2, "delta1": 1.0,
                                         "delta2": 1.0}),
}
BAD_VALUES = {"-1": -1, "nan": math.nan, "inf": math.inf, "True": True, "str": "1",
              "huge": 10 ** 400}
# omega and omega1 are positive, so 0 is bad for them; the rest are non-negative
BAD_FIELDS = [
    pytest.param(cls, field, bad, id=f"{cls.__name__}-{field}-{name}")
    for cls in PARAM_CLASSES for field in (f.name for f in dataclasses.fields(cls))
    for name, bad in [*BAD_VALUES.items(), *([("0", 0)] if field.startswith("omega") else [])]
]


@pytest.mark.parametrize("cls, field, bad", BAD_FIELDS)
def test_a_parameter_class_rejects_a_field_with_the_message_validate_reports(tmp_path, cls,
                                                                             field, bad):
    command, good = PARAM_CLASSES[cls]
    settings = {**good, field: bad}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    code, out, err = run(["validate", "--for", command, "--config", str(cfg)])
    assert (code, err) == (1, "")
    (violation,) = json.loads(out)["violations"]
    assert violation["field"] == field
    with pytest.raises(ValueError) as exc:
        cls(**settings)
    assert str(exc.value) == violation["message"]


def _fresh_env() -> dict:
    """The environment of a fresh interpreter on this tree's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


def _fresh(script: str) -> str:
    """The stripped stdout of script, run in a fresh interpreter on this
    tree's src, so that no module an earlier test imported is loaded."""
    proc = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def _loaded_after(argv) -> set[str]:
    """The package modules loaded after main(argv), in a fresh interpreter."""
    return set(_fresh(
        "import sys\n"
        "from rabi_spectra.cli import main\n"
        f"code = main({[*argv, '--out', os.devnull]!r})\n"
        "assert code == 0, code\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'rabi_spectra'))\n"
    ).split())


def test_oracle_compare_runs_without_scipy():
    # the package is numpy only; importing scipy.linalg would cost more
    # time and memory than the whole exact solve at n_max 300
    script = (
        "import sys\n"
        "from rabi_spectra.cli import main\n"
        f"code = main({[*ORACLE_FLAGS, '--n-max', '300', '--out', os.devnull]!r})\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh(script) == "[]"


@pytest.mark.parametrize("argv, loads, skips", [
    (["spectrum", "--fig", "3", "--g1-grid", "0.9", "--n-blocks", "1"],
     {"fockspace"}, {"oracle", "reservoir"}),
    ([*ORACLE_FLAGS, "--n-max", "4", "--n-levels", "2", "--n-blocks", "1"],
     {"fockspace", "oracle"}, {"reservoir"}),
    (["reservoir-dark", "--omega", "1", "--omega1", "0.8", "--v", "0.2", "--g1", "0.3",
      "--g2", "0.3", "--g1p", "0.2", "--g2p", "0.2", "--delta1", "1", "--delta2", "1"],
     {"reservoir"}, {"oracle"}),
], ids=["spectrum", "oracle-compare", "reservoir-dark"])
def test_commands_import_only_the_modules_they_run(argv, loads, skips):
    # each command compiles only what it runs: oracle-compare loads the
    # exact oracle and the reservoir-* commands load the reservoir
    loaded = _loaded_after(argv)
    assert {f"rabi_spectra.{m}" for m in loads} <= loaded
    assert not {f"rabi_spectra.{m}" for m in skips} & loaded


def test_a_bare_package_import_loads_no_submodule():
    # the exports are lazy; dir() lists them without loading their modules
    script = (
        "import sys\n"
        "import rabi_spectra\n"
        "assert set(rabi_spectra.__all__) <= set(dir(rabi_spectra))\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'rabi_spectra'))\n"
    )
    assert _fresh(script) == "rabi_spectra"


def test_oracle_compare_names_a_nonphysical_design():
    # the derived delta1 is negative: the command reports the token that
    # spectrum rows record for the same design, not a ModelParams message
    design = ["--omega", "1", "--delta2", "0.2", "--g2", "0.5"]
    code, out, _ = run(["oracle-compare", *design, "--g1", "0.3"])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "NonphysicalDesign"
    assert f"delta1 = {design_resonant(1.0, 0.2, 0.5, 0.3).delta1} <= 0" in record["message"]
    code, out, _ = run(["spectrum", *design, "--g1-grid", "0.3", "--n-blocks", "1"])
    assert code == 0
    assert [row["error"] for row in read_csv(out)[2]] == ["NonphysicalDesign"]


SCAN_SETTINGS = {"omega_values": [1.0], "delta2_values": [2.0], "g2_grid": [0.3, 0.7]}


@pytest.mark.parametrize("command, field, settings", [
    ("spectrum", "g1_grid", {"omega": 1, "delta2": 2.0, "g2": 0.7, "n_blocks": 2}),
    ("scan-window", "g2_grid", SCAN_SETTINGS),
    ("scan-window", "omega_values", SCAN_SETTINGS),
    ("scan-window", "delta2_values", SCAN_SETTINGS),
])
@pytest.mark.parametrize("grid", [["0.5", "0.9"], [], [True, 2], True, {"a": 1},
                                  [-0.5, 0.9], "-0.5,0.9", -0.5])
def test_commands_reject_the_grids_validate_rejects(tmp_path, command, field, settings, grid):
    # the commands and validate read a grid through one rule
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**settings, field: grid}))
    code, out, _ = run([command, "--config", str(cfg)])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "Value"
    code, out, _ = run(["validate", "--for", command, "--config", str(cfg)])
    assert code == 1
    assert json.loads(out)["violations"] == [{"field": field, "message": record["message"]}]


RESERVOIR_FLAGS = ["--omega", "1", "--omega1", "0.8", "--v", "0.2", "--g1", "0.3",
                   "--g2", "0.3", "--g1p", "0.2", "--g2p", "0.2", "--delta1", "1",
                   "--delta2", "1"]
SCAN_FLAGS = ["--omega-values", "1", "--delta2-values", "2", "--g2-grid", "0.3,0.7"]


@pytest.mark.parametrize("command, field, config, flags", [
    ("spectrum", "omega", {"omega": "1.0"}, []),
    ("spectrum", "delta2", {"delta2": True}, []),
    ("spectrum", "n_blocks", {"n_blocks": 2.5}, []),
    ("spectrum", "n_blocks", {"n_blocks": True}, []),
    ("spectrum", "n_blocks", {"n_blocks": 5000}, []),
    ("spectrum", "mode", {"mode": "sloppy"}, []),
    ("scan-window", "threshold", {}, [*SCAN_FLAGS, "--threshold", "-1"]),
    ("scan-window", "threshold", {}, [*SCAN_FLAGS, "--threshold", "nan"]),
    ("reservoir-dark", "m_max", {}, [*RESERVOIR_FLAGS, "--m-max", "-1"]),
    ("scan-window", "omega_values", {}, [*SCAN_FLAGS, "--omega-values", "1,0.5"]),
    ("scan-window", "delta2_values", {}, [*SCAN_FLAGS, "--delta2-values", "2,2"]),
    ("scan-window", "omega_values", {}, [*SCAN_FLAGS, "--omega-values", "0,1"]),
    ("reservoir-quasi", "m", {}, [*RESERVOIR_FLAGS, "--m", "1", "--n", "0"]),
])
def test_commands_reject_the_settings_validate_rejects(tmp_path, command, field, config, flags):
    # the commands read every setting through the table that validate checks
    base = {"omega": 1, "delta2": 2.0, "g2": 0.7, "g1_grid": [0.5, 0.9], "n_blocks": 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**base, **config} if command == "spectrum" else config))
    code, out, _ = run([command, "--config", str(cfg), *flags])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == "Value"
    assert record["message"].startswith(field)
    code, out, _ = run(["validate", "--for", command, "--config", str(cfg), *flags])
    assert code == 1
    assert json.loads(out)["violations"] == [{"field": field, "message": record["message"]}]


def _flags_of(params: dict) -> list[str]:
    return [arg for name, value in params.items()
            for arg in (f"--{name.replace('_', '-')}", str(value))]


ASYMMETRIC = {"omega": 1, "omega1": 0.8, "v": 0.25, "g1": 0.3, "g2": 0.45, "g1p": 0.15,
              "g2p": 0.2, "delta1": 0.9, "delta2": 1.3}


@pytest.mark.parametrize("command, flags, token", [
    ("reservoir-quasi", RESERVOIR_FLAGS, "Value"),
    ("reservoir-dark", _flags_of(ASYMMETRIC), "AsymmetricParams"),
    # omega = 2 delta1 = 2 delta2 leaves eta undefined (compute_K raises
    # SingularEta), but the symmetry rule refuses the settings first
    ("reservoir-dark", _flags_of({**ASYMMETRIC, "omega": 2, "delta1": 1, "delta2": 1}),
     "AsymmetricParams"),
])
def test_validate_reports_the_rule_a_switch_lifts(command, flags, token):
    # reservoir-quasi needs a subspace or --window; reservoir-dark refuses
    # asymmetric parameters without --allow-asymmetric
    code, out, _ = run([command, *flags])
    assert code == 1
    record = json.loads(out)
    assert record["error"] == token
    assert "--window" in record["message"] or "--allow-asymmetric" in record["message"]
    code, out, _ = run(["validate", "--for", command, *flags])
    assert code == 1
    violations = json.loads(out)["violations"]
    assert [v["message"] for v in violations] == [record["message"]]
    ((switch, _),) = COMMANDS[command].switches
    code, out, _ = run(["validate", "--for", command, *flags, f"--{switch.replace('_', '-')}"])
    assert code == 0
    assert json.loads(out)["settings"] == record["params"]  # switches are not settings


def test_a_missing_parameter_is_reported_before_the_rules_across_them():
    flags = RESERVOIR_FLAGS[:-2]  # no --delta2
    for command in ("reservoir-quasi", "reservoir-dark"):
        code, out, _ = run([command, *flags])
        assert code == 1
        assert json.loads(out)["message"] == f"delta2: required by {command}"
        code, out, _ = run(["validate", "--for", command, *flags])
        assert json.loads(out)["violations"] == [
            {"field": "delta2", "message": f"delta2: required by {command}"}]


# every subcommand's option strings, frozen: the parser that the settings
# table generates must add and drop no flag
OPTION_STRINGS = {
    "lambda": ["--config", "--delta1", "--delta2", "--format", "--g1", "--g2", "--help",
               "--omega", "--out", "-h"],
    "design": ["--config", "--delta2", "--format", "--g1", "--g2", "--help", "--omega",
               "--out", "-h"],
    "scan-window": ["--config", "--delta2-values", "--fig", "--format", "--g1", "--g2-grid",
                    "--help", "--omega-values", "--out", "--threshold", "-h"],
    "spectrum": ["--config", "--delta2", "--fig", "--format", "--g1-grid", "--g2", "--help",
                 "--mode", "--n-blocks", "--omega", "--out", "-h"],
    "oracle-compare": ["--config", "--delta2", "--format", "--g1", "--g2", "--help", "--mode",
                       "--n-blocks", "--n-levels", "--n-max", "--omega", "--out", "-h"],
    "reservoir-dark": ["--allow-asymmetric", "--config", "--delta1", "--delta2", "--format",
                       "--g1", "--g1p", "--g2", "--g2p", "--help", "--m-max", "--n-max",
                       "--omega", "--omega1", "--out", "--v", "-h"],
    "reservoir-quasi": ["--config", "--delta1", "--delta2", "--format", "--g1", "--g1p",
                        "--g2", "--g2p", "--help", "--k-value", "--m", "--n", "--omega",
                        "--omega1", "--out", "--v", "--window", "-h"],
    "validate": ["--allow-asymmetric", "--config", "--delta1", "--delta2", "--delta2-values",
                 "--fig", "--for", "--g1", "--g1-grid", "--g1p", "--g2", "--g2-grid", "--g2p",
                 "--help", "--k-value", "--m", "--m-max", "--mode", "--n", "--n-blocks",
                 "--n-levels", "--n-max", "--omega", "--omega-values", "--omega1", "--threshold",
                 "--v", "--window", "-h"],
}


def test_generated_parser_keeps_every_option():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: sorted(s for a in p._actions for s in a.option_strings)
               for name, p in sub.choices.items()}
    assert options == OPTION_STRINGS
    figs = {name: [list(a.choices) for a in p._actions if "--fig" in a.option_strings]
            for name, p in sub.choices.items()}
    assert figs == {
        "lambda": [], "design": [], "scan-window": [["1a", "1b", "2a", "2b"]],
        "spectrum": [["3"]], "oracle-compare": [], "reservoir-dark": [],
        "reservoir-quasi": [], "validate": [["1a", "1b", "2a", "2b", "3"]],
    }


# (id, argv): the help, version, usage errors and validation that main
# prints from its one parser; the ids of the help of one command are its name
PARSER_ARGVS = [
    *((f"argv{k}", argv) for k, argv in enumerate([
        ["-h"], ["--version"], ["oracle-compare", "-h"], ["spectrum", "--bogus"], ["nope"],
        ["validate", "--for", "spectrum"], ["-h", "spectrum"],
    ])),
    *((command, [command, "-h"]) for command in [*COMMANDS, "validate"]),
]


@pytest.mark.parametrize("argv", [argv for _, argv in PARSER_ARGVS],
                         ids=[name for name, _ in PARSER_ARGVS])
def test_cli_output_is_the_same_with_every_subparser_built(argv):
    # main parses every argv with the parser built at import: parsing other
    # commands in between must not change what it prints or returns
    first = run(argv)
    assert run(["design", "--omega", "1", "--delta2", "2", "--g2", "0.7", "--g1", "0.9"])[0] == 0
    assert run(["validate", "--for", "design", "--omega", "-1"])[0] == 1
    assert run(["spectrum", "--fig", "3", "--n-blocks", "2", "--format", "json"])[0] == 0
    assert run(["reservoir-quasi", "--m", "1"])[0] == 1
    assert run(argv) == first


def test_parse_grid_tiny_step_keeps_points_distinct():
    grid = parse_grid("0:1e-10:3e-11")
    assert grid == [0.0, 3e-11, 6e-11, 9e-11]


def test_preset_grids_keep_their_published_values():
    g = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65,
         0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
    assert parse_grid("0.1:1.0:0.05") == g
    assert PRESETS["fig3"]["g1_grid"] == g
    assert all(PRESETS[f"fig{k}"]["g2_grid"] == g for k in ("1a", "1b", "2a", "2b"))


def test_validate_flags_half_pair():
    code, out, _ = run(["validate", "--for", "lambda", "--omega", "1.0",
                        "--g2", "0.5"])
    assert code == 1
    doc = json.loads(out)
    assert any(v["field"] == "delta2" and "required with" in v["message"]
               for v in doc["violations"])


def test_validate_accepts_preset():
    code, out, _ = run(["validate", "--for", "spectrum", "--fig", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["violations"] == []


def test_validate_never_runs_the_solver():
    # these settings would make the lambda command exit 2 with NoBracket;
    # validation only checks invariants, so they pass clean
    code, out, _ = run(["validate", "--for", "lambda", "--omega", "1.0",
                        "--delta2", "0.4", "--g2", "0.95"])
    assert code == 0
    assert json.loads(out)["valid"]


def test_validate_settings_rejects_stray_key():
    from rabi_spectra.cli import validate_settings

    violations = validate_settings(
        "design", {"omega": 1.0, "delta2": 2.0, "g2": 0.7, "g1": 0.9, "v": 0.2}
    )
    assert violations == [{"field": "v", "message": "v: not a setting of design"}]


def test_validate_ignores_inapplicable_flags():
    # flags that belong to other commands are dropped, not errors
    code, out, _ = run(["validate", "--for", "design", "--omega", "1.0",
                        "--delta2", "2.0", "--g2", "0.7", "--g1", "0.9",
                        "--v", "0.2"])
    assert code == 0
    assert "v" not in json.loads(out)["settings"]


def test_validate_rejects_bad_mode_string():
    code, out, _ = run(["validate", "--for", "spectrum", "--fig", "3",
                        "--mode", "sloppy"])
    assert code == 1
    doc = json.loads(out)
    assert any(v["field"] == "mode" for v in doc["violations"])


def test_no_command_prints_help_and_fails():
    code, _, err = run([])
    assert code == 1
    assert "COMMAND" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_commands():
    """The argv of each command of the first sh block under "Command line"."""
    block = _readme_section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_command_examples_run(tmp_path, monkeypatch):
    # every command of the README runs as written
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == {*COMMANDS, "validate"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "rabi-spectra"
        code, out, err = run(argv[1:])
        assert code == 0, (argv, out, err)


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_examples_run_in_a_fresh_interpreter(tmp_path, argv):
    # in this warm process a module that an earlier test imported hides a
    # missing function-local import; a fresh interpreter per example does not
    proc = subprocess.run([sys.executable, "-m", "rabi_spectra.cli", *argv[1:]],
                          env=_fresh_env(), cwd=tmp_path, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_settings_tables_match_the_table():
    text = _readme_section("Command line")
    for name, cmd in COMMANDS.items():
        after = text.split(f"`{name}` settings", 1)[1]
        lines = after[after.index("| setting"):].split("\n\n", 1)[0].splitlines()[2:]
        documented = [tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
                      for line in lines]
        expected = [(s.name, s.rule, "required" if s.name in cmd.required
                     else "—" if s.default is None else str(s.default))
                    for s in cmd.settings]
        assert documented == expected, name
