"""Command line front end.

Subcommands: lambda, design, scan-window, spectrum, oracle-compare,
reservoir-dark, reservoir-quasi, validate.

Settings resolve in three layers, strongest last: named preset, JSON
config file (--config), explicit flags.  One table, COMMANDS, gives each
command's settings (rule, default, help) and switches, and generates all
flags.  Commands and validate read settings and switches through it
(read_settings), so a command fails with the first violation that validate
reports for the same settings and switches.

Tables are emitted as CSV (with a '#'-prefixed JSON header record) or as a
JSON object; either way the bytes are deterministic for a given version and
parameter set.  serialize writes every document (tables, reports and
error records) to --out or stdout; it opens --out, and encodes JSON
straight into its stream.  Each sweep command makes one library call over
its whole grid: spectrum one spectrum_vs_g1, scan-window one window scan.

Each command imports the modules it runs when it runs: oracle-compare
loads oracle, and the reservoir-* commands (and their settings checks) load
reservoir, so the other commands never compile them.  A function-local
import reads the name from its module at call time, so a wrapper bound
there later is the one called.

Exit codes: 0 success, 1 invalid or degenerate inputs, 2 numerical failure
(no bracket, singular resonance condition, non-finite evaluation, failed
convergence).  Failures print a machine-readable JSON error record to
stdout.  Sweep commands record per-point failures in their error column
and still exit 0.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

from . import __version__
from .fockspace import MAX_N_BLOCKS, SPECTRUM_FIELDS, check_n_blocks, spectrum_vs_g1
from .model import (
    LAMBDA_WINDOW,
    MIN_N_MAX,
    CoefficientMode,
    in_lambda_window,
    residual_eq8,
    residual_eq9,
)
from .numerics import (
    ConvergenceFailureError,
    NoBracketError,
    NonFiniteError,
    SingularDenominatorError,
    SingularEtaError,
    check_bound,
    check_grid,
    check_number,
    error_token,
)
from .resonance import (
    SingularError,
    WindowScanRow,
    design_resonant,
    scan_delta1_window,
    scan_lambda2_window,
    solve_lambda1,
    solve_lambda2,
)
# csv_text is bound here but not called: perfbench's tracer patches it in
# every module that binds it, and its self-test checks the patch is undone
from .serialize import checked_blocks, columns_of, csv_text, write_csv, write_json  # noqa: F401

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

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

_FIG1A = {"omega_values": [1.0], "delta2_values": [1.0, 1.5, 2.0, 2.5], "g2_grid": _G_GRID}
_FIG1B = {"omega_values": [0.5, 1.0, 1.5], "delta2_values": [2.0], "g2_grid": _G_GRID}

PRESETS = {
    "fig1a": _FIG1A,
    "fig1b": _FIG1B,
    "fig2a": {**_FIG1A, "g1": 0.9},
    "fig2b": {**_FIG1B, "g1": 0.9},
    "fig3": {"omega": 1.0, "delta2": 2.0, "g2": 0.7, "g1_grid": _G_GRID, "n_blocks": 8,
             "mode": "approx"},
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive) or 'a,b,c' or one number.
    The entries of a list are checked by check_grid (_grid_rule)."""
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
    return [float(x) for x in text.split(",")]


def _grid_rule(name: str, value, owner: str | None, op: str, low: int) -> list[float]:
    """A grid string (parse_grid), one number or a list of numbers, read
    by numerics.check_grid, each entry within the bound `op low` of the
    parameter it sweeps."""
    if isinstance(value, str):
        try:
            value = parse_grid(value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return check_grid(name, value, op, low)


def _mode(name: str, value, owner: str | None) -> CoefficientMode:
    if value not in ("approx", "exact"):
        raise ValueError(f"mode must be 'approx' or 'exact', got {value!r}")
    return CoefficientMode(value)


# the photon truncation of the exact oracle: the least that its builders take
_TRUNCATION = f"count >= {MIN_N_MAX}"
# closed blocks per chain: at most what the exact-mode Laguerre tables reach
_BLOCK_COUNT = f"count from 1 to {MAX_N_BLOCKS}"

# Each rule reads one raw value and returns it typed, or raises ValueError
# with a message that names the setting: rule -> (check, type of its flag).
# A check takes (name, value, owner=...), owner the class named in messages.
RULES: dict[str, tuple[Callable, Callable]] = {
    "positive": (functools.partial(check_bound, op=">", low=0), float),
    "non-negative": (functools.partial(check_bound, op=">=", low=0), float),
    "number": (lambda name, value, owner: check_number(name, value), float),
    "positive grid": (functools.partial(_grid_rule, op=">", low=0), str),
    "non-negative grid": (functools.partial(_grid_rule, op=">=", low=0), str),
    "count >= 1": (functools.partial(check_bound, op=">=", low=1, integer=True), int),
    _TRUNCATION: (functools.partial(check_bound, op=">=", low=MIN_N_MAX, integer=True), int),
    _BLOCK_COUNT: (check_n_blocks, int),
    "index >= 0": (functools.partial(check_bound, op=">=", low=0, integer=True), int),
    "mode": (_mode, str),
}


class Setting(NamedTuple):
    """One setting: its rule (a key of RULES), the default that feeds the
    computation when it is absent, and the help of its flag."""
    name: str
    rule: str
    default: object
    help: str


class Command(NamedTuple):
    """One subcommand's table entry.  owner names the parameter class (a
    package export) that messages about its fields name; read_settings
    loads it, so only a command that reads its settings imports its module.
    Each pair in pairs must come together, and need_pair asks for at least
    one; switches are (name, help) of store_true flags.  relation is
    (field, check) of the rules across settings and switches: check reads
    the typed values and raises ValueError, reported against field."""
    run: Callable
    help: str
    owner: str
    settings: tuple[Setting, ...]
    required: tuple[str, ...] = ()
    pairs: tuple[tuple[str, str], ...] = ()
    need_pair: bool = False
    switches: tuple[tuple[str, str], ...] = ()
    formats: tuple[str, ...] = ("csv", "json")
    relation: tuple[str, Callable[[dict], None]] | None = None

    @property
    def keys(self) -> set[str]:
        return {s.name for s in self.settings}


def read_settings(command: str, settings: dict, switches=frozenset()
                  ) -> tuple[dict, list[tuple[str, ValueError]]]:
    """Read merged settings and the names of the switches that are on
    through the command's table.

    Returns the typed value of every setting of the command (its table
    default when absent, None when it has none) and of each of its switches,
    and one (field, error) per violation, in the order validate reports them.
    """
    cmd = COMMANDS[command]
    violations: list[tuple[str, ValueError]] = []

    def bad(field: str, message: str) -> None:
        violations.append((field, ValueError(message)))

    for field in sorted(set(settings) - cmd.keys):
        bad(field, f"{field}: not a setting of {command}")
    values = dict.fromkeys(cmd.keys)
    typed = True
    fields = getattr(importlib.import_module(__package__), cmd.owner).__dataclass_fields__
    for s in sorted(cmd.settings):
        if s.name not in settings and s.default is None:
            continue
        owner = cmd.owner if s.name in fields else None
        try:
            values[s.name] = RULES[s.rule][0](s.name, settings.get(s.name, s.default),
                                              owner=owner)
        except ValueError as exc:
            violations.append((s.name, exc))
            typed = False
    values.update((name, name in switches) for name, _ in cmd.switches)
    if cmd.relation is not None and typed:
        field, check = cmd.relation
        try:
            check(values)
        except ValueError as exc:
            violations.append((field, exc))
    for field in cmd.required:
        if field not in settings:
            bad(field, f"{field}: required by {command}")
    given = [pair for pair in cmd.pairs if pair[0] in settings or pair[1] in settings]
    for pair in given:
        for field, other in (pair, pair[::-1]):
            if field not in settings:
                bad(field, f"{field}: required with {other}")
    if cmd.need_pair and not given:
        alternatives = " and/or ".join(f"{a}/{b}" for a, b in cmd.pairs)
        bad("settings", f"{command} needs {alternatives}")
    return values, violations


def validate_settings(command: str, settings: dict, switches=frozenset()) -> list[dict]:
    """Check every invariant; one {field, message} record per violation."""
    if command not in COMMANDS:
        return [{"field": "command", "message": f"unknown command {command!r}"}]
    return [{"field": field, "message": str(exc)}
            for field, exc in read_settings(command, settings, switches)[1]]


def _switches(args, command: str) -> set[str]:
    """The names of the command's switches that args turn on; unlike its
    settings, they stay out of headers and error records."""
    return {name for name, _ in COMMANDS[command].switches if getattr(args, name, False)}


def _merge_settings(args, command: str) -> dict:
    """Preset, then config file, then flags; read_settings reports stray keys."""
    keys = COMMANDS[command].keys
    settings: dict = {}
    fig = getattr(args, "fig", None)
    if fig is not None:
        settings.update(PRESETS["fig" + fig])
    config = getattr(args, "config", None)
    if config is not None:
        with open(config, encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("config root must be a JSON object")
        settings.update(data)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    return settings


def _emit(args, fieldnames, blocks, header) -> int:
    """Write a table given as row blocks, each one sequence of cells per
    field name, to --out or stdout once every block has passed
    serialize.checked_blocks: as CSV (serialize.write_csv, block by block),
    or as JSON whose rows are the {field: cell} dicts of its rows, block
    after block (serialize.write_json)."""
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", None)
    if fmt is None:
        fmt = "json" if (out or "").endswith(".json") else "csv"
    if fmt == "json":
        rows = [dict(zip(fieldnames, cells))
                for block in checked_blocks(fieldnames, blocks) for cells in zip(*block)]
        write_json(out or sys.stdout, {"header": dict(header), "rows": rows})
    else:
        write_csv(out or sys.stdout, fieldnames, blocks, header)
    return EXIT_OK


def _fail(command: str, exc: Exception, params: dict, code: int) -> int:
    record = {
        "error": error_token(exc),
        "message": str(exc),
        "command": command,
        "params": params,
    }
    write_json(sys.stdout, record)
    return code


def _run(command: str, args) -> int:
    """Merge and read the settings, run the command on the typed values,
    and translate failures into error records."""
    settings: dict = {}
    try:
        settings = _merge_settings(args, command)
        values, violations = read_settings(command, settings, _switches(args, command))
        if violations:
            raise violations[0][1]
        return COMMANDS[command].run(args, settings, values)
    except _NUMERICAL_ERRORS as exc:
        return _fail(command, exc, settings, EXIT_NUMERICAL)
    except (ValueError, OSError) as exc:
        return _fail(command, exc, settings, EXIT_VALIDATION)


def _sweep(task):
    """task(), run on one worker thread, which does no parallel work: the
    benchmark's tracer (perfbench/spans.py) swaps cli.ThreadPoolExecutor to
    carry its span context into the worker, and its self-tests assert spans
    recorded there.  The pool goes when the program records its own spans."""
    with ThreadPoolExecutor(max_workers=1) as ex:
        return ex.submit(task).result()


def _header(command: str, settings: dict, **extra) -> dict:
    return {"command": command, "version": __version__, **settings, **extra}


# ---------------------------------------------------------------------------
# command bodies: (args, merged settings, typed values) -> exit code
# ---------------------------------------------------------------------------

def cmd_lambda(args, settings: dict, values: dict) -> int:
    omega = values["omega"]
    rows = []
    for qubit, solve, resid in ((1, solve_lambda1, residual_eq8),
                                (2, solve_lambda2, residual_eq9)):
        delta, g = values[f"delta{qubit}"], values[f"g{qubit}"]
        if delta is None:
            continue
        lam = solve(omega, delta, g)
        rows.append({
            "qubit": qubit, "omega": omega, "delta": delta, "g": g,
            "lam": lam, "residual": resid(omega, delta, g, lam),
            "in_window": in_lambda_window(lam),
        })
    fields = ("qubit", "omega", "delta", "g", "lam", "residual", "in_window")
    return _emit(args, fields, [columns_of(fields, rows)], _header("lambda", settings))


def cmd_design(args, settings: dict, values: dict) -> int:
    row = design_resonant(**values).to_dict()
    fields = tuple(row)
    return _emit(args, fields, [columns_of(fields, [row])], _header("design", settings))


_SCAN_FIELDS = tuple(f.name for f in dataclasses.fields(WindowScanRow))


def cmd_scan_window(args, settings: dict, values: dict) -> int:
    omegas, deltas, g2_grid = values["omega_values"], values["delta2_values"], values["g2_grid"]
    threshold, g1 = values["threshold"], values["g1"]
    if g1 is None:
        kind = "lambda2"
        task = functools.partial(scan_lambda2_window, omegas, deltas, g2_grid, threshold)
    else:
        kind = "delta1"
        task = functools.partial(scan_delta1_window, omegas, deltas, g1, g2_grid, threshold)
    header = _header("scan-window", settings, kind=kind, omega_values=omegas,
                     delta2_values=deltas, g2_grid=g2_grid, threshold=threshold)
    return _emit(args, _SCAN_FIELDS, [columns_of(_SCAN_FIELDS, _sweep(task))], header)


def cmd_spectrum(args, settings: dict, values: dict) -> int:
    omega, delta2, g2, g1_grid = values["omega"], values["delta2"], values["g2"], values["g1_grid"]
    n_blocks, mode = values["n_blocks"], values["mode"]
    result = _sweep(functools.partial(spectrum_vs_g1, omega, delta2, g2, g1_grid, n_blocks, mode))
    header = _header("spectrum", settings, omega=omega, delta2=delta2, g2=g2,
                     g1_grid=g1_grid, n_blocks=n_blocks, mode=mode.value)
    return _emit(args, SPECTRUM_FIELDS, result.blocks, header)


def cmd_oracle_compare(args, settings: dict, values: dict) -> int:
    from .oracle import DeviationRow, compare_trwa_exact

    summary = compare_trwa_exact(**values).to_dict()
    rows = summary.pop("rows")
    fields = tuple(f.name for f in dataclasses.fields(DeviationRow))
    return _emit(args, fields, [columns_of(fields, rows)],
                 _header("oracle-compare", settings, **summary))


def cmd_reservoir_dark(args, settings: dict, values: dict) -> int:
    from .reservoir import compute_K, dark_state_energy, dark_state_residual, reservoir_constant

    r = _reservoir(values)
    m_max, n_max = values["m_max"], values["n_max"]
    coeffs = compute_K(r)
    rows = []
    for m in range(m_max + 1):
        for n in range(m % 2, n_max + 1, 2):  # even m + n only
            rows.append({
                "m": m, "n": n,
                "energy": dark_state_energy(r, coeffs, m, n),
                "residual": dark_state_residual(r, m, n, require_symmetric=False),
            })
    header = _header("reservoir-dark", settings, m_max=m_max, n_max=n_max,
                     constant=reservoir_constant(r, coeffs), **coeffs.to_dict())
    fields = ("m", "n", "energy", "residual")
    return _emit(args, fields, [columns_of(fields, rows)], header)


def cmd_reservoir_quasi(args, settings: dict, values: dict) -> int:
    from .reservoir import quasi_exact_subspace, verify_eq24

    r = _reservoir(values)
    payload: dict = {"header": _header("reservoir-quasi", settings)}
    if values["m"] is not None:
        _, report = quasi_exact_subspace(r, values["m"], values["n"])
        payload["subspace"] = report.to_dict()
    if values["window"]:
        payload["window"] = verify_eq24(r, k_value=values["k_value"]).to_dict()
    write_json(args.out or sys.stdout, payload)
    return EXIT_OK


def cmd_validate(args) -> int:
    command = args.for_command
    try:
        settings = _merge_settings(args, command)
    except (ValueError, OSError) as exc:
        return _fail("validate", exc, {"for": command}, EXIT_VALIDATION)
    violations = validate_settings(command, settings, _switches(args, command))
    write_json(sys.stdout, {
        "command": command,
        "settings": settings,
        "violations": violations,
        "valid": not violations,
    })
    return EXIT_OK if not violations else EXIT_VALIDATION


_OMEGA = Setting("omega", "positive", None, "mode frequency")
_DELTA1 = Setting("delta1", "non-negative", None, "qubit-1 splitting")
_DELTA2 = Setting("delta2", "non-negative", None, "qubit-2 splitting")
_G1 = Setting("g1", "non-negative", None, "qubit-1 coupling")
_G2 = Setting("g2", "non-negative", None, "qubit-2 coupling")
_N_BLOCKS = Setting("n_blocks", _BLOCK_COUNT, 8, "closed 4x4 blocks per parity chain")
_MODE = Setting("mode", "mode", "approx", "exact: full Laguerre weights; approx: small lambda")
_GRID_HELP = "comma list or start:stop:step"
_RESERVOIR = (
    _OMEGA, Setting("omega1", "positive", None, "pseudomode frequency"),
    Setting("v", "non-negative", None, "cavity-pseudomode exchange"), _G1, _G2,
    Setting("g1p", "non-negative", None, "qubit-1 pseudomode coupling"),
    Setting("g2p", "non-negative", None, "qubit-2 pseudomode coupling"), _DELTA1, _DELTA2,
)
_RESERVOIR_KEYS = tuple(s.name for s in _RESERVOIR)
_DESIGN_KEYS = ("omega", "delta2", "g2", "g1")


def _check_n_levels(values: dict) -> None:
    from .oracle import check_n_levels

    check_n_levels(values["n_levels"], values["n_max"], values["n_blocks"])


def _reservoir(values: dict):
    """The ReservoirParams of the typed values, or None while one is
    missing: the rules across them wait, and read_settings reports the
    missing one as required."""
    if None not in map(values.get, _RESERVOIR_KEYS):
        from .reservoir import ReservoirParams

        return ReservoirParams(**{k: values[k] for k in _RESERVOIR_KEYS})


def _check_quasi(values: dict) -> None:
    m, n = values["m"], values["n"]
    if m is not None and n is not None:
        from .reservoir import check_seed

        check_seed(m, n)
    elif m is None and n is None and not values["window"] and _reservoir(values) is not None:
        raise ValueError("reservoir-quasi: give --m/--n, --window, or both")


def _check_symmetric(values: dict) -> None:
    r = _reservoir(values)
    if r is not None and not values["allow_asymmetric"]:
        from .reservoir import _check_dark_symmetric

        _check_dark_symmetric(r, "--allow-asymmetric")


COMMANDS = {
    "lambda": Command(
        cmd_lambda, "solve the displacement root(s) for the given qubit(s)", "ModelParams",
        (_OMEGA, _DELTA1, _G1, _DELTA2, _G2),
        required=("omega",), pairs=(("delta1", "g1"), ("delta2", "g2")), need_pair=True,
    ),
    "design": Command(
        cmd_design, "complete a resonant parameter set from (omega, delta2, g2, g1)",
        "ModelParams", (_OMEGA, _DELTA2, _G2, _G1), required=_DESIGN_KEYS,
    ),
    "scan-window": Command(
        cmd_scan_window, "sweep the displacement window over parameter grids", "ModelParams",
        (
            Setting("omega_values", "positive grid", None, _GRID_HELP),
            Setting("delta2_values", "non-negative grid", None, _GRID_HELP),
            Setting("g2_grid", "non-negative grid", None, _GRID_HELP),
            Setting("g1", "non-negative", None, "fixed g1: scan the derived-delta1 window"),
            Setting("threshold", "positive", LAMBDA_WINDOW, "window half-width on |lambda|"),
        ),
        required=("omega_values", "delta2_values", "g2_grid"),
    ),
    "spectrum": Command(
        cmd_spectrum, "block spectrum swept over g1 at a resonant design", "ModelParams",
        (_OMEGA, _DELTA2, _G2, Setting("g1_grid", "non-negative grid", None, _GRID_HELP),
         _N_BLOCKS, _MODE),
        required=("omega", "delta2", "g2", "g1_grid"),
    ),
    "oracle-compare": Command(
        cmd_oracle_compare, "block spectrum vs exact diagonalization, ground-aligned",
        "ModelParams",
        (_OMEGA, _DELTA2, _G2, _G1, Setting("n_levels", "count >= 1", 6, "lowest levels compared"),
         Setting("n_max", _TRUNCATION, 60, "photon truncation of the exact solve"),
         _N_BLOCKS, _MODE),
        required=_DESIGN_KEYS, relation=("n_levels", _check_n_levels),
    ),
    "reservoir-dark": Command(
        cmd_reservoir_dark, "dark-state energies and residuals on an (m, n) grid",
        "ReservoirParams",
        (*_RESERVOIR, Setting("m_max", "index >= 0", 4, "largest pseudomode number m"),
         Setting("n_max", "index >= 0", 4, "largest photon number n")),
        required=_RESERVOIR_KEYS,
        switches=(("allow_asymmetric", "compute residuals even for asymmetric qubits"),),
        relation=("settings", _check_symmetric),
    ),
    "reservoir-quasi": Command(
        cmd_reservoir_quasi, "quasi-exact subspace and printed-window reports (JSON)",
        "ReservoirParams",
        (*_RESERVOIR, Setting("m", "index >= 0", None, "pseudomode number of the subspace"),
         Setting("n", "index >= 0", None, "photon number of the subspace"),
         Setting("k_value", "number", None, "folded coupling K to use in the window check")),
        required=_RESERVOIR_KEYS, pairs=(("m", "n"),),
        switches=(("window", "add the printed 6x6 window check at E = 2*omega1 + 2*omega"),),
        formats=("json",),
        relation=("m", _check_quasi),
    ),
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _flags(settings, switches, command: bool) -> list[tuple[str, dict]]:
    """(option, add_argument keywords) of --fig, offering the presets whose
    keys are all among settings, of each setting and of each (name, help)
    switch.  A command's flags restrict mode and show defaults; validate's
    take any value to report on.
    """
    keys = {s.name for s in settings}
    figs = [name[3:] for name, preset in PRESETS.items() if keys.issuperset(preset)]
    flags = [("--fig", {"choices": figs, "help": "published grid preset"})] if figs else []
    for s in settings:
        kw = {"dest": s.name, "type": RULES[s.rule][1], "help": s.help}
        if command and s.default is not None:
            kw["help"] = f"{s.help} (default {s.default})"
        if command and s.rule == "mode":
            kw["choices"] = ("approx", "exact")
        flags.append((f"--{s.name.replace('_', '-')}", kw))
    for name, text in switches:
        flags.append((f"--{name.replace('_', '-')}", {"action": "store_true", "help": text}))
    return flags


def build_parser() -> argparse.ArgumentParser:
    """The rabi-spectra parser: a subparser with its generated flags for
    each command, and validate's, which takes every setting and switch of
    every command."""
    parser = _Parser(prog="rabi-spectra", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.set_defaults(func=functools.partial(_run, name))
        for option, kw in _flags(cmd.settings, cmd.switches, True):
            p.add_argument(option, **kw)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=cmd.formats,
                       help="output format (default: json when --out ends in .json, else csv)")
        p.add_argument("--config", help="JSON file with default settings")

    p = sub.add_parser("validate",
                       help="check a merged preset/config/flag set and list violations")
    p.set_defaults(func=cmd_validate)
    p.add_argument("--for", dest="for_command", required=True, choices=sorted(COMMANDS))
    p.add_argument("--config", help="JSON file with default settings")
    every = {s.name: s for cmd in COMMANDS.values() for s in cmd.settings}
    switches = dict(sw for cmd in COMMANDS.values() for sw in cmd.switches)
    for option, kw in _flags(every.values(), switches.items(), False):
        p.add_argument(option, **kw)
    return parser


# built once, at import; argparse parsers can parse any number of argvs
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if not hasattr(args, "func"):
        _PARSER.print_help(sys.stderr)
        return EXIT_VALIDATION
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
