"""Benchmark of the rabi-spectra CLI: seeded workloads, timed and traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.

--trace 0 measures the end-to-end metrics of the workload:
  wall_s       median wall time of one untraced pass, from the cli.main
               call until its --out file is closed, after warm-up;
  setup_s      median over fresh interpreters of importing rabi_spectra
               plus one warm-up call of the command at a tiny size;
  peak_rss_mb  peak resident memory of the process that ran the passes.
--trace 1 runs the traced passes instead and reports the per-layer metrics
of spans.py, with trace.overhead_ratio and trace.coverage.

Every pass is checked: it must exit 0, the first pass's output must match
the recorded reference (gate.py), and every later pass must reproduce the
first pass byte for byte.  `attempted` counts passes, `failed` the ones
that broke a check; fail_ratio = failed / attempted.

Each run writes its result, with an environment record, to
.perfbench_out/result-<workload>-seed<N>-trace<T>.json, and prints one
JSON object as the last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def _env() -> dict:
    env = dict(os.environ)
    env.pop("RABI_SPECTRA_JOBS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(mode: str, name: str, seed: int, seconds: float, out_dir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, name, str(seed),
           str(seconds), str(out_dir)]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {name} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads((out_dir / f"{mode}.json").read_text(encoding="utf-8"))


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _check_passes(result: dict, wl: workloads.Workload, out_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the first pass and every later one."""
    problems: list[str] = []
    first = result["first"]
    if result["tiny"]["rc"] != 0:
        problems.append(f"warm-up call exited {result['tiny']['rc']}")
    first_ok = first["rc"] == 0
    if first_ok:
        text = (out_dir / "first.csv").read_text(encoding="utf-8")
        diffs = gate.check(text, gate.load_reference(wl.name, wl.variant))
        problems += [f"first pass: {d}" for d in diffs]
        first_ok = not diffs
    else:
        problems.append(f"first pass exited {first['rc']}")
    failed = 0 if first_ok else 1
    for i, p in enumerate(result["passes"], start=1):
        if p["rc"] != 0:
            problems.append(f"pass {i} exited {p['rc']}")
            failed += 1
        elif p["sha256"] != first["sha256"]:
            problems.append(f"pass {i} output differs from the first pass")
            failed += 1
    return 1 + len(result["passes"]), failed, problems


def _setup_probes(name: str, seed: int, out_dir: Path, count: int) -> list[float]:
    times = []
    for _ in range(count):
        probe = _worker("setup", name, seed, 0, out_dir)
        if probe["rc"] != 0:
            raise BenchError(f"tiny {name} call exited {probe['rc']}")
        times.append(probe["setup_s"])
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.build(name, seed)
    out_dir = OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    metrics: dict[str, dict] = {}
    extra: dict = {}
    if trace:
        result = _worker("traced", name, seed, seconds, out_dir)
        units = _layer_units()
        for key, value in sorted(result["layer_metrics"].items()):
            metrics[key] = {"value": value, "unit": units[key]}
    else:
        # The first probe fills the bytecode caches, which users pay once.
        # Half the probes run before the timed passes and half after, so
        # the median spans the run's whole window, not a few seconds of it.
        _setup_probes(name, seed, out_dir, 1)
        setup = _setup_probes(name, seed, out_dir, SETUP_PROBES // 2)
        result = _worker("timed", name, seed, seconds, out_dir)
        setup += _setup_probes(name, seed, out_dir, SETUP_PROBES - SETUP_PROBES // 2)
        walls = [p["wall_s"] for p in result["passes"]]
        q1, median, q3 = statistics.quantiles(walls, n=4)
        metrics["wall_s"] = {"value": median, "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MiB"}
        extra = {"wall_s": {"q1": q1, "median": median, "q3": q3, "n": len(walls),
                            "samples": walls},
                 "setup_s": {"samples": setup}}

    attempted, failed, problems = _check_passes(result, wl, out_dir)
    record = {
        "workload": name, "seed": seed, "variant": wl.variant, "trace": int(trace),
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": seconds, "git_commit": _git_commit(),
        "environment": result["environment"],
        "argv": list(wl.argv),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "problems": problems,
        "metrics": metrics, "distributions": extra,
    }
    (OUT_ROOT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return record


def _layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _print_summary(record: dict) -> None:
    name = record["workload"]
    for key, m in record["metrics"].items():
        line = f"{name:13s} {key:34s} {m['value']:.6g} {m['unit']}"
        dist = record["distributions"].get(key, {})
        if "q1" in dist:
            line += f"  (q1 {dist['q1']:.6g}, q3 {dist['q3']:.6g}, n {dist['n']})"
        print(line)
    print(f"{name:13s} {'fail_ratio':34s} {record['fail_ratio']:.6g} ratio"
          f"  ({record['failed']}/{record['attempted']} passes)")
    for problem in record["problems"]:
        print(f"{name:13s} FAILED CHECK: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rabi_spectra" / "__init__.py").is_file():
        print(f"no rabi_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for record in records:
        _print_summary(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
