"""Outside-in tracing of rabi_spectra for the benchmark's traced runs.

The program has no trace hooks of its own, so this module wraps its public
functions from the outside.  Each wrapper replaces the name in every module
that binds it (``fockspace.eigh`` as well as ``numerics.eigh``), because a
module calls the object it imported, not the original attribute.

Two kinds of wrapper exist:

* spans, on coarse layer boundaries only: name, start, end, parent span,
  success and one size attribute.  Self time is a span's duration minus
  the union of its children's intervals.
* leaf counters, on hot leaves (coefficients, Laguerre steps, residuals,
  SymmetricMatrix constructions).  Timing those leaves would inflate the
  timed run by about a third, so they run in a separate counting pass whose
  times are discarded.

The CLI runs sweep work in a ThreadPoolExecutor worker, and worker threads
do not inherit contextvars.  While spans are installed, ``cli.ThreadPoolExecutor``
is replaced by an executor that runs each task in a copy of the submitting
thread's context, so worker spans attach to the command's root span.
"""
from __future__ import annotations

import contextvars
import functools
import itertools
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

from rabi_spectra import cli, fockspace, model, numerics, oracle, resonance, serialize

# The reservoir module is left out: no workload runs it.
MODULES = (cli, fockspace, model, numerics, oracle, resonance, serialize)
ROOT = "cli.main"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    ok: bool
    size: int | None
    thread: int


class ContextExecutor(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _patch(target, attr: str, original, replacement, undo: list) -> None:
    setattr(target, attr, replacement)
    undo.append((target, attr, original))


def _patch_everywhere(original, replacement, undo: list) -> None:
    """Rebind every module-level name that refers to `original`."""
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                _patch(mod, attr, original, replacement, undo)


def _restore(undo: list) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)
    undo.clear()


def _chain_states(args, kwargs, result) -> int:
    return len(args[2].states)


def _result_dim(args, kwargs, result) -> int:
    return result.dim


def _arg_dim(args, kwargs, result) -> int:
    return args[0].dim


def _n_levels(args, kwargs, result) -> int:
    return args[2] if len(args) > 2 else kwargs["n_levels"]


def _text_bytes(args, kwargs, result) -> int:
    return len(args[1].encode("utf-8"))


# (span name, function, size attribute).  Functions are looked up by module
# so that rebinding catches every alias.
SPAN_TARGETS = (
    (ROOT, cli.main, None),
    ("fockspace.sweep", fockspace.spectrum_vs_g1, None),
    ("resonance.scan", resonance.scan_lambda2_window, None),
    ("resonance.scan", resonance.scan_delta1_window, None),
    ("oracle.compare", oracle.compare_trwa_exact, None),
    ("resonance.design", resonance.design_resonant, None),
    ("resonance.solve", resonance.solve_lambda1, None),
    ("resonance.solve", resonance.solve_lambda2, None),
    ("fockspace.chain", fockspace.build_effective_chain_matrix, _chain_states),
    ("fockspace.blocks", fockspace.trwa_block_energies, None),
    ("fockspace.block_eig", numerics.eigh, None),
    ("oracle.exact", oracle.exact_spectrum, _n_levels),
    ("oracle.assembly", oracle.build_full_rabi, _result_dim),
    ("oracle.eig", numerics.eigvals_sym, _arg_dim),
    ("serialize", serialize.csv_text, None),
    ("serialize", serialize.json_text, None),
    ("serialize.write", serialize.write_text, _text_bytes),
)
# Methods are patched on their class.
METHOD_SPANS = (
    ("fockspace.rows", fockspace.SpectrumRow, "to_dict"),
    ("resonance.rows", resonance.WindowScanRow, "to_dict"),
)


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    def wrap(self, name: str, fn, size=None):
        current = self._current
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            ok = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                current.reset(token)
                spans.append(Span(
                    sid, parent, name, start, end, ok,
                    size(args, kwargs, result) if (size and ok) else None,
                    threading.get_ident(),
                ))
        return wrapper

    @contextmanager
    def installed(self):
        """Install every span wrapper for the duration of the block."""
        undo: list = []
        try:
            for name, fn, size in SPAN_TARGETS:
                _patch_everywhere(fn, self.wrap(name, fn, size), undo)
            for name, cls, attr in METHOD_SPANS:
                method = vars(cls)[attr]
                _patch(cls, attr, method, self.wrap(name, method), undo)
            _patch(cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor, ContextExecutor, undo)
            yield self
        finally:
            _restore(undo)


class Counter:
    """Hot-leaf call counters for one counting pass."""

    def __init__(self):
        self.counts = {
            "model.coeff.calls": 0,
            "numerics.laguerre.calls": 0,
            "numerics.laguerre.steps": 0,
            "resonance.residual_evals": 0,
            "numerics.symmetric_matrix.count": 0,
        }
        self._lock = threading.Lock()

    def _counting(self, key: str, fn, steps=None):
        counts = self.counts
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[key] += 1
                if steps is not None:
                    counts["numerics.laguerre.steps"] += steps(*args)
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        undo: list = []
        try:
            for fn in (model.coeff_g0, model.coeff_f1):
                _patch_everywhere(fn, self._counting("model.coeff.calls", fn), undo)
            # eval_laguerre(n, k, x) runs n - 1 recurrence steps for n >= 1.
            laguerre = numerics.eval_laguerre
            _patch_everywhere(laguerre, self._counting(
                "numerics.laguerre.calls", laguerre, lambda n, k, x: max(n - 1, 0)), undo)
            for fn in (model.residual_eq8, model.residual_eq9):
                _patch_everywhere(fn, self._counting("resonance.residual_evals", fn), undo)
            cls = numerics.SymmetricMatrix
            init = vars(cls)["__post_init__"]
            _patch(cls, "__post_init__",
                   init, self._counting("numerics.symmetric_matrix.count", init), undo)
            yield self
        finally:
            _restore(undo)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _union_length(children.get(s.id, []))
        for s in spans
    }


# Per-layer self-time metrics: metric name -> span names summed into it.
SELF_TIME_METRICS = {
    "resonance.design.self_s": ("resonance.design",),
    "resonance.solve.self_s": ("resonance.solve",),
    "resonance.scan.self_s": ("resonance.scan",),
    "fockspace.sweep.self_s": ("fockspace.sweep",),
    "fockspace.chain.self_s": ("fockspace.chain",),
    "fockspace.blocks.self_s": ("fockspace.blocks",),
    "fockspace.block_eig.self_s": ("fockspace.block_eig",),
    "oracle.assembly.self_s": ("oracle.assembly",),
    "oracle.eig.self_s": ("oracle.eig",),
    "fockspace.rows.self_s": ("fockspace.rows",),
    "resonance.rows.self_s": ("resonance.rows",),
    "serialize.self_s": ("serialize", "serialize.write"),
    "cli.self_s": (ROOT,),
}


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one root span)."""
    roots = [s for s in spans if s.name == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT} span, got {len(roots)}")
    root = roots[0]
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names: str) -> list[Span]:
        return [s for n in names for s in by_name.get(n, [])]

    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(own[s.id] for s in named(*names))

    design = named("resonance.design")
    out["resonance.design.calls"] = len(design)
    out["resonance.ok_ratio"] = (
        sum(s.ok for s in design) / len(design) if design else 0.0)
    out["resonance.solve.calls"] = len(named("resonance.solve"))
    chains = named("fockspace.chain")
    out["fockspace.chain.calls"] = len(chains)
    out["fockspace.chain.states"] = sum(s.size for s in chains if s.ok)
    out["fockspace.block_eig.calls"] = len(named("fockspace.block_eig"))

    assembly = [s.size for s in named("oracle.assembly") if s.ok]
    out["oracle.assembly.bytes_computed"] = sum(8 * d * d for d in assembly)
    eig_dims = [s.size for s in named("oracle.eig") if s.ok]
    out["oracle.eig.calls"] = len(named("oracle.eig"))
    out["oracle.eig.dim_max"] = max(eig_dims, default=0)
    out["oracle.eig.flops_computed"] = sum(4.0 / 3.0 * d ** 3 for d in eig_dims)
    # exact_spectrum keeps n_levels of each of its two solves.
    levels_used = sum(2 * s.size for s in named("oracle.exact") if s.ok)
    out["oracle.eig.levels_used_ratio"] = levels_used / sum(eig_dims) if eig_dims else 0.0

    out["serialize.bytes"] = sum(s.size for s in named("serialize.write") if s.ok)
    duration = root.end - root.start
    out["trace.coverage"] = (duration - own[root.id]) / duration
    return out


COUNT_METRICS = (
    "resonance.design.calls", "resonance.solve.calls", "resonance.ok_ratio",
    "fockspace.chain.calls", "fockspace.chain.states", "fockspace.block_eig.calls",
    "oracle.assembly.bytes_computed", "oracle.eig.calls", "oracle.eig.dim_max",
    "oracle.eig.flops_computed", "oracle.eig.levels_used_ratio", "serialize.bytes",
)


def summarize(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time-like metric over passes; counts from the first
    pass, after checking that every pass agrees on them."""
    first = per_pass[0]
    for other in per_pass[1:]:
        for key in COUNT_METRICS:
            if other[key] != first[key]:
                raise ValueError(f"count {key} differs between traced passes: "
                                 f"{first[key]} vs {other[key]}")
    return {
        key: first[key] if key in COUNT_METRICS
        else statistics.median(p[key] for p in per_pass)
        for key in first
    }
