"""Paired A/B runs of the benchmark in two checkouts.

    python3 tools/ab_pairs.py BASE CHANGE --workload W --seed S --seconds T --pairs N

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in the
checkout BASE and in the checkout CHANGE, alternately, N pairs; the side
that runs first flips from one pair to the next.  Prints each run's
wall_s, setup_s and peak_rss_mb, each pair's ratio CHANGE / BASE, and for
each metric the wins of each side (lower is better; a tie counts for
neither) with each side's median and quartiles, and whether the metric
meets the claim rule: the change wins at least 9 of 10 pairs, and the gap
between the medians is larger than the base's q3 - q1.  Exits 1 when a
run is not ``correct`` (its output failed the benchmark's checks), after
all pairs have run.

Uses the standard library only and imports nothing from either checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The summary record that perfbench/run.py prints as its last line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by the method perfbench/run.py uses for wall_s."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def wins_needed(pairs: int) -> int:
    """The fewest pairs the change must win to claim a gain: 9 of 10."""
    return -(-9 * pairs // 10)


def summarize(base: list[float], change: list[float]) -> dict:
    """The paired summary of one lower-is-better metric: each pair's ratio
    change / base, the pairs each side wins (a tie counts for neither),
    each side's (q1, median, q3), the gap base median - change median, the
    base's spread q3 - q1, and whether the change meets the claim rule
    (wins_needed pairs won, and a gap larger than the spread)."""
    if len(base) != len(change) or not base:
        raise ValueError(f"need one change run per base run, got {len(base)} and {len(change)}")
    change_wins = sum(c < b for b, c in zip(base, change))
    (q1, base_median, q3), change_q = quartiles(base), quartiles(change)
    gap, spread = base_median - change_q[1], q3 - q1
    return {
        "ratios": [c / b for b, c in zip(base, change)],
        "change_wins": change_wins,
        "base_wins": sum(b < c for b, c in zip(base, change)),
        "base": (q1, base_median, q3),
        "change": change_q,
        "gap": gap,
        "spread": spread,
        "claim": change_wins >= wins_needed(len(base)) and gap > spread,
    }


def _metrics(record: dict) -> dict[str, float]:
    return {name: record["metrics"][name]["value"] for name in METRICS}


def main(argv: list[str] | None = None, run=run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    correct = True
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            record = run(getattr(args, side), args.workload, args.seed, args.seconds)
            values = _metrics(record)
            runs[side].append(values)
            correct = correct and record["correct"]
            cells = "  ".join(f"{name} {values[name]:.6g}" for name in METRICS)
            flag = "" if record["correct"] else "  NOT CORRECT"
            print(f"pair {pair + 1:2d} {side:6s} {cells}{flag}", flush=True)
        ratios = "  ".join(f"{name} {runs['change'][-1][name] / runs['base'][-1][name]:.4f}"
                           for name in METRICS)
        print(f"pair {pair + 1:2d} ratio  {ratios}", flush=True)

    for name in METRICS:
        s = summarize([r[name] for r in runs["base"]], [r[name] for r in runs["change"]])
        print(f"{name}: change wins {s['change_wins']}/{args.pairs}, base wins "
              f"{s['base_wins']}/{args.pairs}; ratios {min(s['ratios']):.4f}-"
              f"{max(s['ratios']):.4f}")
        for side in ("base", "change"):
            q1, median, q3 = s[side]
            print(f"  {side:6s} median {median:.6g} (q1 {q1:.6g}, q3 {q3:.6g})")
        print(f"  claim {'met' if s['claim'] else 'not met'}: change wins "
              f"{s['change_wins']}/{args.pairs} (needs {wins_needed(args.pairs)}); "
              f"median gap {s['gap']:.6g} vs base q3 - q1 {s['spread']:.6g}")
    if not correct:
        print("a run was not correct", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
