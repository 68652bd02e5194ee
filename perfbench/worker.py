"""Child process of the benchmark: runs one workload in a fresh interpreter.

    python3 perfbench/worker.py {setup|timed|traced} WORKLOAD SEED SECONDS OUT_DIR

run.py starts it with RABI_SPECTRA_JOBS removed, the BLAS thread count
pinned and PYTHONPATH pointing at the checkout's src/.  Results go to
OUT_DIR/<mode>.json, never to stdout, because the CLI prints its error
records there.

setup   time to import rabi_spectra plus one warm-up call at a tiny size.
timed   tiny warm-up, one full first pass (its output is the one checked
        against the reference), then untraced passes for SECONDS; reports
        each pass's wall time and output digest, and the process's peak RSS.
traced  first pass as above, then untraced and traced passes alternately
        for SECONDS, then one counting pass; reports per-layer metrics.
"""
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import workloads

MIN_PASSES = 3
# Stop adding passes after this long whatever --seconds says, so a run on
# a slow machine still ends within the benchmark's time limit.
MAX_MEASURE_S = 100.0


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _run(cli, argv, out: str) -> dict:
    """One pass.  An uncaught exception counts as exit code 1, as it would
    for the rabi-spectra command."""
    start = time.perf_counter()
    try:
        rc = cli.main([*argv, "--out", out])
    except Exception:
        traceback.print_exc()
        rc = 1
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rc": rc, "sha256": _digest(out) if rc == 0 else None}


def _environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rabi_spectra_jobs_cleared": "RABI_SPECTRA_JOBS" not in os.environ,
    }


def setup(wl: workloads.Workload, out_dir: str) -> dict:
    start = time.perf_counter()
    from rabi_spectra import cli
    rc = cli.main([*wl.tiny_argv, "--out", os.path.join(out_dir, "tiny.csv")])
    return {"setup_s": time.perf_counter() - start, "rc": rc}


def _first_passes(cli, wl: workloads.Workload, out_dir: str) -> tuple[dict, dict]:
    tiny = _run(cli, wl.tiny_argv, os.path.join(out_dir, "tiny.csv"))
    first = _run(cli, wl.argv, os.path.join(out_dir, "first.csv"))
    return tiny, first


def timed(wl: workloads.Workload, seconds: float, out_dir: str) -> dict:
    from rabi_spectra import cli
    tiny, first = _first_passes(cli, wl, out_dir)
    out = os.path.join(out_dir, "pass.csv")
    passes = []
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - begin < seconds:
        passes.append(_run(cli, wl.argv, out))
        if time.perf_counter() - begin > MAX_MEASURE_S:
            break
    return {
        "tiny": tiny, "first": first, "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(),
    }


def traced(wl: workloads.Workload, seconds: float, out_dir: str) -> dict:
    from rabi_spectra import cli
    import spans
    tiny, first = _first_passes(cli, wl, out_dir)
    out = os.path.join(out_dir, "pass.csv")
    plain, traced_passes, layer = [], [], []
    begin = time.perf_counter()
    while (len(traced_passes) < MIN_PASSES or time.perf_counter() - begin < seconds):
        plain.append(_run(cli, wl.argv, out))
        tracer = spans.Tracer()
        with tracer.installed():
            traced_passes.append(_run(cli, wl.argv, out))
        layer.append(spans.pass_metrics(tracer.spans))
        if time.perf_counter() - begin > MAX_MEASURE_S:
            break
    counter = spans.Counter()
    with counter.installed():
        counting = _run(cli, wl.argv, out)
    metrics = spans.summarize(layer)
    metrics.update(counter.counts)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced_passes)
        / statistics.median(p["wall_s"] for p in plain))
    return {
        "tiny": tiny, "first": first,
        "passes": plain + traced_passes + [counting],
        "layer_metrics": metrics,
        "environment": _environment(),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, out_dir = argv
    wl = workloads.build(name, int(seed))
    if mode == "setup":
        result = setup(wl, out_dir)
    elif mode == "timed":
        result = timed(wl, float(seconds), out_dir)
    elif mode == "traced":
        result = traced(wl, float(seconds), out_dir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(os.path.join(out_dir, f"{mode}.json"), "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
