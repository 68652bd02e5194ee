"""Command-line surface: exit codes, formats, presets, determinism."""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from rabi_spectra.cli import PRESETS, main, parse_grid
from rabi_spectra.serialize import read_csv_text


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
    header, fields, rows = read_csv_text(out)
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
    _, _, rows = read_csv_text(out)
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
    header, fields, rows = read_csv_text(out_path.read_text())
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
    _, _, rows = read_csv_text(out)
    assert float(rows[0]["lambda2"]) == 0.29797713043845475


def test_scan_window_fig_preset():
    code, out, _ = run(["scan-window", "--fig", "1a"])
    assert code == 0
    header, fields, rows = read_csv_text(out)
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
    _, _, rows = read_csv_text(out)
    bad = [r for r in rows if r["error"]]
    assert len(bad) == 1
    assert bad[0]["g1"] == "0" and bad[0]["error"] == "DegenerateDesign"


def test_spectrum_jobs_do_not_change_bytes():
    argv = ["spectrum", "--fig", "3", "--n-blocks", "3"]
    base = run(argv + ["--jobs", "1"])
    para = run(argv + ["--jobs", "8"])
    assert base[0] == para[0] == 0
    assert base[1] == para[1]


def test_scan_window_jobs_env_var(monkeypatch):
    ref_code, ref_out, _ = run(["scan-window", "--fig", "1b", "--jobs", "1"])
    monkeypatch.setenv("RABI_SPECTRA_JOBS", "7")
    env_code, env_out, _ = run(["scan-window", "--fig", "1b"])
    assert ref_code == env_code == 0
    assert ref_out == env_out
    monkeypatch.setenv("RABI_SPECTRA_JOBS", "zero")
    bad_code, bad_out, _ = run(["scan-window", "--fig", "1b"])
    assert bad_code == 1


def test_reruns_are_byte_identical():
    argv = ["scan-window", "--fig", "2b"]
    assert run(argv) == run(argv)


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
    _, fields, rows = read_csv_text(out)
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
    _, fields, rows = read_csv_text(out)
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
    assert "reports" in doc or "rows" in doc or "window" in doc


def test_validate_flags_bad_numbers():
    code, out, _ = run(["validate", "--for", "design", "--omega", "-1",
                        "--delta2", "2.0", "--g2", "0.7", "--g1", "0.9"])
    assert code == 1
    doc = json.loads(out)
    assert not doc["valid"]
    assert doc["violations"] == [
        {"field": "omega", "message": "ModelParams requires omega > 0, got -1.0"}
    ]


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
    for text in ("nan,0.5", "0.5,inf", "-inf"):
        with pytest.raises(ValueError):
            parse_grid(text)
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
    assert violations == [{"field": "v", "message": "not a setting of design"}]


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
