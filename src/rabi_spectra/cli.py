"""Command line front end.

Subcommands: lambda, design, scan-window, spectrum, oracle-compare,
reservoir-dark, reservoir-quasi, validate.

Settings resolve in three layers, strongest last: named preset, JSON
config file (--config), explicit flags.  Tables are emitted as CSV (with a
'#'-prefixed JSON header record) or as a JSON object; either way the bytes
are deterministic for a given version and parameter set, including under
--jobs parallelism (workers only change wall time, never row order).

Exit codes: 0 success, 1 invalid or degenerate inputs, 2 numerical failure
(no bracket, singular resonance condition, non-finite evaluation, failed
convergence).  Failures print a machine-readable JSON error record to
stdout.  Sweep commands record per-point failures in their error column
and still exit 0.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .fockspace import spectrum_vs_g1
from .model import CoefficientMode, residual_eq8, residual_eq9
from .numerics import ConvergenceFailureError, NoBracketError, NonFiniteError
from .oracle import compare_trwa_exact
from .reservoir import (
    ReservoirParams,
    SingularDenominatorError,
    SingularEtaError,
    compute_K,
    dark_state_energy,
    dark_state_residual,
    quasi_exact_subspace,
    reservoir_constant,
    verify_eq24,
)
from .resonance import (
    SingularError,
    design_resonant,
    scan_delta1_window,
    scan_lambda2_window,
    solve_lambda1,
    solve_lambda2,
)
from .serialize import csv_text, json_text, write_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

JOBS_ENV = "RABI_SPECTRA_JOBS"

_NUMERICAL_ERRORS = (
    NoBracketError,
    NonFiniteError,
    ConvergenceFailureError,
    SingularError,
    SingularEtaError,
    SingularDenominatorError,
)


def _grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive range start, start + step, ..., never past stop.

    The point count forgives float error of 1e-9 steps in (stop - start) /
    step.  Points are rounded at ten significant digits of the step, which
    strips float noise (0.1 + 3 * 0.05 -> 0.25) without merging neighbours.
    """
    n = math.floor((stop - start) / step + 1e-9)
    digits = 10 - math.floor(math.log10(step))
    return [min(round(start + i * step, digits), stop) for i in range(n + 1)]


_G_GRID = _grid(0.1, 1.0, 0.05)

PRESETS = {
    "fig1a": {
        "omega_values": [1.0],
        "delta2_values": [1.0, 1.5, 2.0, 2.5],
        "g2_grid": _G_GRID,
    },
    "fig1b": {
        "omega_values": [0.5, 1.0, 1.5],
        "delta2_values": [2.0],
        "g2_grid": _G_GRID,
    },
    "fig2a": {
        "omega_values": [1.0],
        "delta2_values": [1.0, 1.5, 2.0, 2.5],
        "g2_grid": _G_GRID,
        "g1": 0.9,
    },
    "fig2b": {
        "omega_values": [0.5, 1.0, 1.5],
        "delta2_values": [2.0],
        "g2_grid": _G_GRID,
        "g1": 0.9,
    },
    "fig3": {
        "omega": 1.0,
        "delta2": 2.0,
        "g2": 0.7,
        "g1_grid": _G_GRID,
        "n_blocks": 8,
        "mode": "approx",
    },
}

_COMMAND_KEYS = {
    "lambda": ("omega", "delta1", "g1", "delta2", "g2"),
    "design": ("omega", "delta2", "g2", "g1"),
    "scan-window": ("omega_values", "delta2_values", "g2_grid", "g1", "threshold"),
    "spectrum": ("omega", "delta2", "g2", "g1_grid", "n_blocks", "mode"),
    "oracle-compare": ("omega", "delta2", "g2", "g1", "n_levels", "n_max", "n_blocks", "mode"),
    "reservoir-dark": (
        "omega", "omega1", "v", "g1", "g2", "g1p", "g2p", "delta1", "delta2",
        "m_max", "n_max",
    ),
    "reservoir-quasi": (
        "omega", "omega1", "v", "g1", "g2", "g1p", "g2p", "delta1", "delta2",
        "m", "n", "k_value",
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _token(exc: Exception) -> str:
    name = type(exc).__name__
    return name[:-5] if name.endswith("Error") else name


def parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive) or 'a,b,c' or one number."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(x) for x in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid start, stop and step must be finite, got {text!r}")
        if step <= 0.0:
            raise ValueError(f"grid step must be positive, got {step}")
        if stop < start:
            raise ValueError(f"grid stop {stop} below start {start}")
        return _grid(start, stop, step)
    return _finite_entries([float(x) for x in text.split(",")])


def _finite_entries(values: list[float]) -> list[float]:
    for x in values:
        if not math.isfinite(x):
            raise ValueError(f"grid entries must be finite, got {x!r}")
    return values


def _as_floats(value) -> list[float]:
    if isinstance(value, str):
        return parse_grid(value)
    if isinstance(value, (int, float)):
        value = [value]
    return _finite_entries([float(x) for x in value])


def _check_increasing(field: str, values: list[float]) -> None:
    """Raise ValueError unless values are strictly increasing.

    spectrum numbers the levels of each g1 point from zero, so a repeated
    g1 would give two rows per level index at one g1.
    """
    for a, b in zip(values, values[1:]):
        if not a < b:
            raise ValueError(f"{field} must be strictly increasing, got {b!r} after {a!r}")


def _merge_settings(args, command: str) -> dict:
    keys = _COMMAND_KEYS[command]
    settings: dict = {}
    fig = getattr(args, "fig", None)
    if fig is not None:
        preset = "fig" + fig
        base = PRESETS[preset]
        stray = set(base) - set(keys)
        if stray:
            raise ValueError(
                f"preset {preset!r} does not apply to {command} (keys {sorted(stray)})"
            )
        settings.update(base)
    config = getattr(args, "config", None)
    if config is not None:
        with open(config, encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("config root must be a JSON object")
        unknown = set(data) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        settings.update(data)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    return settings


def _require(settings: dict, names: tuple[str, ...], command: str) -> None:
    missing = [n for n in names if n not in settings]
    if missing:
        raise ValueError(f"{command}: missing required settings {missing}")


def _resolve_jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is not None:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"{JOBS_ENV} must be an integer, got {env!r}")
    if jobs is None:
        return 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _mode(settings: dict) -> CoefficientMode:
    return CoefficientMode(str(settings.get("mode", "approx")))


def _emit(args, fieldnames, rows, header) -> int:
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", None)
    if fmt is None:
        fmt = "json" if (out or "").endswith(".json") else "csv"
    if fmt == "json":
        text = json_text({"header": dict(header), "rows": list(rows)})
    else:
        text = csv_text(fieldnames, rows, header)
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _fail(command: str, exc: Exception, params: dict, code: int) -> int:
    record = {
        "error": _token(exc),
        "message": str(exc),
        "command": command,
        "params": params,
    }
    sys.stdout.write(json_text(record))
    return code


def _guarded(command: str, args, body) -> int:
    """Run body(settings); translate failures into error records."""
    settings: dict = {}
    try:
        settings = _merge_settings(args, command)
        return body(settings)
    except _NUMERICAL_ERRORS as exc:
        return _fail(command, exc, settings, EXIT_NUMERICAL)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(command, exc, settings, EXIT_VALIDATION)


def _header(command: str, settings: dict, **extra) -> dict:
    h = {"command": command, "version": __version__}
    h.update(settings)
    h.update(extra)
    return h


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def cmd_lambda(args) -> int:
    def body(settings: dict) -> int:
        _require(settings, ("omega",), "lambda")
        omega = float(settings["omega"])
        rows = []
        plan = (
            (1, "delta1", "g1", solve_lambda1, residual_eq8),
            (2, "delta2", "g2", solve_lambda2, residual_eq9),
        )
        for qubit, dkey, gkey, solve, resid in plan:
            if dkey not in settings and gkey not in settings:
                continue
            _require(settings, (dkey, gkey), "lambda")
            delta = float(settings[dkey])
            g = float(settings[gkey])
            lam = solve(omega, delta, g)
            rows.append({
                "qubit": qubit, "omega": omega, "delta": delta, "g": g,
                "lam": lam, "residual": resid(omega, delta, g, lam),
                "in_window": abs(lam) <= 0.1,
            })
        if not rows:
            raise ValueError("lambda: give --delta1/--g1 and/or --delta2/--g2")
        fields = ("qubit", "omega", "delta", "g", "lam", "residual", "in_window")
        return _emit(args, fields, rows, _header("lambda", settings))
    return _guarded("lambda", args, body)


def cmd_design(args) -> int:
    def body(settings: dict) -> int:
        _require(settings, ("omega", "delta2", "g2", "g1"), "design")
        des = design_resonant(
            float(settings["omega"]), float(settings["delta2"]),
            float(settings["g2"]), float(settings["g1"]),
        )
        row = des.to_dict()
        fields = (
            "omega", "delta2", "g2", "g1", "lambda1", "lambda2", "delta1",
            "res_eq8", "res_eq9", "res_eq10", "approx_valid", "physical",
        )
        return _emit(args, fields, [row], _header("design", settings))
    return _guarded("design", args, body)


_SCAN_FIELDS = (
    "omega", "delta2", "g2", "g1", "lambda1", "lambda2", "delta1", "in_window", "error",
)


def cmd_scan_window(args) -> int:
    def body(settings: dict) -> int:
        _require(settings, ("omega_values", "delta2_values", "g2_grid"), "scan-window")
        omegas = _as_floats(settings["omega_values"])
        deltas = _as_floats(settings["delta2_values"])
        g2_grid = _as_floats(settings["g2_grid"])
        threshold = float(settings.get("threshold", 0.1))
        g1 = settings.get("g1")
        jobs = _resolve_jobs(args)

        if g1 is None:
            def task(pair):
                w, d2 = pair
                return scan_lambda2_window([w], [d2], g2_grid, threshold)
            kind = "lambda2"
        else:
            g1f = float(g1)

            def task(pair):
                w, d2 = pair
                return scan_delta1_window([w], [d2], g1f, g2_grid, threshold)
            kind = "delta1"

        pairs = [(w, d2) for w in omegas for d2 in deltas]
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            chunks = list(ex.map(task, pairs))
        rows = [r.to_dict() for chunk in chunks for r in chunk]
        header = _header(
            "scan-window", settings, kind=kind,
            omega_values=omegas, delta2_values=deltas, g2_grid=g2_grid,
            threshold=threshold,
        )
        return _emit(args, _SCAN_FIELDS, rows, header)
    return _guarded("scan-window", args, body)


_SPECTRUM_FIELDS = (
    "g1", "delta1", "lambda1", "lambda2", "parity", "level_index", "energy",
    "offset", "error",
)


def cmd_spectrum(args) -> int:
    def body(settings: dict) -> int:
        _require(settings, ("omega", "delta2", "g2", "g1_grid"), "spectrum")
        omega = float(settings["omega"])
        delta2 = float(settings["delta2"])
        g2 = float(settings["g2"])
        g1_grid = _as_floats(settings["g1_grid"])
        _check_increasing("g1_grid", g1_grid)
        n_blocks = int(settings.get("n_blocks", 8))
        mode = _mode(settings)
        jobs = _resolve_jobs(args)

        def task(g1: float):
            return spectrum_vs_g1(omega, delta2, g2, [g1], n_blocks, mode).rows

        with ThreadPoolExecutor(max_workers=jobs) as ex:
            chunks = list(ex.map(task, g1_grid))
        rows = [r.to_dict() for chunk in chunks for r in chunk]
        header = _header(
            "spectrum", settings, omega=omega, delta2=delta2, g2=g2,
            g1_grid=g1_grid, n_blocks=n_blocks, mode=mode.value,
        )
        return _emit(args, _SPECTRUM_FIELDS, rows, header)
    return _guarded("spectrum", args, body)


def cmd_oracle_compare(args) -> int:
    def body(settings: dict) -> int:
        _require(settings, ("omega", "delta2", "g2", "g1"), "oracle-compare")
        comp = compare_trwa_exact(
            float(settings["omega"]), float(settings["delta2"]),
            float(settings["g2"]), float(settings["g1"]),
            n_levels=int(settings.get("n_levels", 6)),
            n_max=int(settings.get("n_max", 60)),
            n_blocks=int(settings.get("n_blocks", 8)),
            mode=_mode(settings),
        )
        summary = comp.to_dict()
        rows = summary.pop("rows")
        fields = ("level_index", "e_trwa", "e_exact", "abs_dev", "rel_dev")
        return _emit(args, fields, rows, _header("oracle-compare", settings, **summary))
    return _guarded("oracle-compare", args, body)


def _reservoir_params(settings: dict, command: str) -> ReservoirParams:
    _require(
        settings,
        ("omega", "omega1", "v", "g1", "g2", "g1p", "g2p", "delta1", "delta2"),
        command,
    )
    return ReservoirParams(
        omega=float(settings["omega"]), omega1=float(settings["omega1"]),
        v=float(settings["v"]),
        g1=float(settings["g1"]), g2=float(settings["g2"]),
        g1p=float(settings["g1p"]), g2p=float(settings["g2p"]),
        delta1=float(settings["delta1"]), delta2=float(settings["delta2"]),
    )


def cmd_reservoir_dark(args) -> int:
    def body(settings: dict) -> int:
        r = _reservoir_params(settings, "reservoir-dark")
        m_max = int(settings.get("m_max", 4))
        n_max = int(settings.get("n_max", 4))
        require_symmetric = not args.allow_asymmetric
        coeffs = compute_K(r)
        rows = []
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                if (m + n) % 2 != 0:
                    continue
                rows.append({
                    "m": m, "n": n,
                    "energy": dark_state_energy(r, coeffs, m, n),
                    "residual": dark_state_residual(r, m, n, require_symmetric),
                })
        header = _header(
            "reservoir-dark", settings, m_max=m_max, n_max=n_max,
            constant=reservoir_constant(r, coeffs), **coeffs.to_dict(),
        )
        return _emit(args, ("m", "n", "energy", "residual"), rows, header)
    return _guarded("reservoir-dark", args, body)


def cmd_reservoir_quasi(args) -> int:
    def body(settings: dict) -> int:
        r = _reservoir_params(settings, "reservoir-quasi")
        m = settings.get("m")
        n = settings.get("n")
        want_window = bool(args.window)
        if (m is None) != (n is None):
            raise ValueError("reservoir-quasi needs both --m and --n, or neither")
        if m is None and not want_window:
            raise ValueError("reservoir-quasi: give --m/--n, --window, or both")
        payload: dict = {"header": _header("reservoir-quasi", settings)}
        if m is not None:
            _, report = quasi_exact_subspace(r, int(m), int(n))
            payload["subspace"] = report.to_dict()
        if want_window:
            k_value = settings.get("k_value")
            k_value = None if k_value is None else float(k_value)
            payload["window"] = verify_eq24(r, k_value=k_value).to_dict()
        text = json_text(payload)
        out = getattr(args, "out", None)
        if out:
            write_text(out, text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    return _guarded("reservoir-quasi", args, body)


_REQUIRED = {
    "design": ("omega", "delta2", "g2", "g1"),
    "scan-window": ("omega_values", "delta2_values", "g2_grid"),
    "spectrum": ("omega", "delta2", "g2", "g1_grid"),
    "oracle-compare": ("omega", "delta2", "g2", "g1"),
    "reservoir-dark": _COMMAND_KEYS["reservoir-dark"][:9],
    "reservoir-quasi": _COMMAND_KEYS["reservoir-quasi"][:9],
}

_GRID_FIELDS = ("omega_values", "delta2_values", "g2_grid", "g1_grid")
_NONNEG_FIELDS = ("v", "g1", "g2", "g1p", "g2p", "delta1", "delta2")


def _check_number(field: str, value, bad) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        bad(field, f"expected a number, got {value!r}")
        return None
    x = float(value)
    if not math.isfinite(x):
        bad(field, f"must be finite, got {x}")
        return None
    return x


def _check_grid(field: str, value, bad) -> None:
    if isinstance(value, str):
        try:
            seq = parse_grid(value)
        except ValueError as exc:
            bad(field, str(exc))
            return
    elif isinstance(value, (list, tuple)):
        seq = list(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        seq = [value]
    else:
        bad(field, f"expected a grid, got {value!r}")
        return
    if not seq:
        bad(field, "grid is empty")
        return
    for x in seq:
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            bad(field, f"grid entries must be finite numbers, got {x!r}")
            return
    if field == "g1_grid":
        try:
            _check_increasing(field, seq)
        except ValueError as exc:
            bad(field, str(exc))


def validate_settings(command: str, settings: dict) -> list[dict]:
    """Check every invariant; one {field, message} record per violation."""
    violations: list[dict] = []

    def bad(field: str, message: str) -> None:
        violations.append({"field": field, "message": message})

    if command not in _COMMAND_KEYS:
        bad("command", f"unknown command {command!r}")
        return violations
    keys = set(_COMMAND_KEYS[command])

    for field in sorted(set(settings) - keys):
        bad(field, f"not a setting of {command}")

    reservoir = command.startswith("reservoir-")
    for field in sorted(set(settings) & keys):
        value = settings[field]
        if field in ("omega", "omega1"):
            owner = "ReservoirParams" if (reservoir or field == "omega1") else "ModelParams"
            x = _check_number(field, value, bad)
            if x is not None and not x > 0.0:
                bad(field, f"{owner} requires {field} > 0, got {x}")
        elif field in _NONNEG_FIELDS:
            owner = "ReservoirParams" if reservoir else "ModelParams"
            x = _check_number(field, value, bad)
            if x is not None and x < 0.0:
                bad(field, f"{owner} requires {field} >= 0, got {x}")
        elif field in _GRID_FIELDS:
            _check_grid(field, value, bad)
        elif field == "threshold":
            x = _check_number(field, value, bad)
            if x is not None and not x > 0.0:
                bad(field, f"threshold must be > 0, got {x}")
        elif field == "k_value":
            _check_number(field, value, bad)
        elif field == "mode":
            if value not in ("approx", "exact"):
                bad(field, f"mode must be 'approx' or 'exact', got {value!r}")
        else:
            # counting fields: truncations at least 1, indices at least 0
            x = _check_number(field, value, bad)
            if x is None:
                continue
            if x != int(x):
                bad(field, f"{field} must be an integer, got {value!r}")
                continue
            low = 0 if field in ("m", "n", "m_max") or command == "reservoir-dark" else 1
            if int(x) < low:
                bad(field, f"{field} must be >= {low}, got {int(x)}")

    for field in _REQUIRED.get(command, ()):
        if field not in settings:
            bad(field, f"required by {command}")
    if command == "lambda":
        if "omega" not in settings:
            bad("omega", "required by lambda")
        pairs = 0
        for dkey, gkey in (("delta1", "g1"), ("delta2", "g2")):
            if dkey in settings or gkey in settings:
                pairs += 1
                for field in (dkey, gkey):
                    if field not in settings:
                        bad(field, f"required with {gkey if field == dkey else dkey}")
        if pairs == 0:
            bad("settings", "lambda needs delta1/g1 and/or delta2/g2")
    if command == "reservoir-quasi" and (("m" in settings) != ("n" in settings)):
        field = "n" if "m" in settings else "m"
        bad(field, "m and n must be given together")
    return violations


def cmd_validate(args) -> int:
    command = args.for_command
    try:
        settings = _merge_settings(args, command)
    except (ValueError, KeyError, OSError) as exc:
        return _fail("validate", exc, {"for": command}, EXIT_VALIDATION)
    violations = validate_settings(command, settings)
    sys.stdout.write(json_text({
        "command": command,
        "settings": settings,
        "violations": violations,
        "valid": not violations,
    }))
    return EXIT_OK if not violations else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, formats=("csv", "json"), jobs=False) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=list(formats), default=None,
                   help="output format (default: json when --out ends in .json, else csv)")
    p.add_argument("--config", help="JSON file with default settings")
    if jobs:
        p.add_argument("--jobs", type=int, default=None,
                       help=f"worker threads (default ${JOBS_ENV} or 1)")


def _add_reservoir_args(p: argparse.ArgumentParser) -> None:
    for name in ("omega", "omega1", "v", "g1", "g2", "g1p", "g2p", "delta1", "delta2"):
        p.add_argument(f"--{name}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rabi-spectra", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    p = sub.add_parser("lambda",
                       help="solve the displacement root(s) for the given qubit(s)")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--delta1", type=float, default=None,
                   help="qubit-1 splitting (with --g1)")
    p.add_argument("--g1", type=float, default=None)
    p.add_argument("--delta2", type=float, default=None,
                   help="qubit-2 splitting (with --g2)")
    p.add_argument("--g2", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("design",
                       help="complete a resonant parameter set from (omega, delta2, g2, g1)")
    for name in ("omega", "delta2", "g2", "g1"):
        p.add_argument(f"--{name}", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("scan-window",
                       help="sweep the displacement window over parameter grids")
    p.add_argument("--fig", choices=("1a", "1b", "2a", "2b"), default=None,
                   help="published grid preset (fig1a..fig2b)")
    p.add_argument("--omega-values", dest="omega_values", default=None,
                   help="comma list or start:stop:step")
    p.add_argument("--delta2-values", dest="delta2_values", default=None)
    p.add_argument("--g2-grid", dest="g2_grid", default=None)
    p.add_argument("--g1", type=float, default=None,
                   help="fixed g1 switches the scan to the derived-delta1 window")
    p.add_argument("--threshold", type=float, default=None,
                   help="window half-width on |lambda| (default 0.1)")
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_scan_window)

    p = sub.add_parser("spectrum",
                       help="block spectrum swept over g1 at a resonant design")
    p.add_argument("--fig", choices=("3",), default=None,
                   help="published grid preset (fig3)")
    for name in ("omega", "delta2", "g2"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--g1-grid", dest="g1_grid", default=None,
                   help="comma list or start:stop:step")
    p.add_argument("--n-blocks", dest="n_blocks", type=int, default=None)
    p.add_argument("--mode", choices=("approx", "exact"), default=None)
    _add_common(p, jobs=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("oracle-compare",
                       help="block spectrum vs exact diagonalization, ground-aligned")
    for name in ("omega", "delta2", "g2", "g1"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--n-levels", dest="n_levels", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--n-blocks", dest="n_blocks", type=int, default=None)
    p.add_argument("--mode", choices=("approx", "exact"), default=None)
    _add_common(p)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("reservoir-dark",
                       help="dark-state energies and residuals on an (m, n) grid")
    _add_reservoir_args(p)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--allow-asymmetric", action="store_true",
                   help="compute residuals even when the qubits are not symmetric")
    _add_common(p)
    p.set_defaults(func=cmd_reservoir_dark)

    p = sub.add_parser("reservoir-quasi",
                       help="quasi-exact subspace and printed-window reports (JSON)")
    _add_reservoir_args(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--window", action="store_true",
                   help="add the printed 6x6 window check at E = 2*omega1 + 2*omega")
    p.add_argument("--k-value", dest="k_value", type=float, default=None,
                   help="override the folded coupling K in the window check")
    _add_common(p, formats=("json",))
    p.set_defaults(func=cmd_reservoir_quasi)

    p = sub.add_parser("validate",
                       help="check a merged preset/config/flag set and list violations")
    p.add_argument("--for", dest="for_command", required=True,
                   choices=sorted(_COMMAND_KEYS))
    p.add_argument("--fig", choices=("1a", "1b", "2a", "2b", "3"), default=None)
    p.add_argument("--config", help="JSON file with default settings")
    for name in ("omega", "omega1", "v", "g1", "g2", "g1p", "g2p",
                 "delta1", "delta2", "threshold", "k_value"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name,
                       type=float, default=None)
    for name in ("n_blocks", "n_levels", "n_max", "m_max", "m", "n"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name,
                       type=int, default=None)
    for name in ("omega_values", "delta2_values", "g2_grid", "g1_grid", "mode"):
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return EXIT_VALIDATION
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
