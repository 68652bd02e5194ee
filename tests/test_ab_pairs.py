"""The paired A/B runner of the benchmark (tools/ab_pairs.py), on synthetic
numbers: no benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = ab_pairs
_SPEC.loader.exec_module(ab_pairs)


def test_summary_counts_wins_ratios_and_quartiles():
    base = [0.020, 0.024, 0.022, 0.030, 0.021]
    change = [0.018, 0.024, 0.019, 0.031, 0.016]
    s = ab_pairs.summarize(base, change)
    assert s["ratios"] == [c / b for b, c in zip(base, change)]
    # the tie at 0.024 counts for neither side
    assert (s["change_wins"], s["base_wins"]) == (3, 1)
    # the method perfbench/run.py uses: exclusive quartiles
    assert s["base"] == pytest.approx((0.0205, 0.022, 0.027))
    assert s["change"] == pytest.approx((0.017, 0.019, 0.0275))


def test_summary_of_one_pair_and_of_mismatched_runs():
    assert ab_pairs.summarize([2.0], [1.0])["base"] == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        ab_pairs.summarize([], [])


def _fake_runs(correct_at=()):
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append(str(checkout))
        wall = 0.02 if str(checkout) == "base" else 0.017
        return {"correct": len(calls) not in correct_at,
                "metrics": {"wall_s": {"value": wall}, "setup_s": {"value": 0.2},
                            "peak_rss_mb": {"value": 40.0}}}
    return calls, run


def test_pairs_alternate_which_side_runs_first(capsys):
    calls, run = _fake_runs()
    argv = ["base", "change", "--workload", "sweep-exact", "--seed", "0",
            "--seconds", "1", "--pairs", "3"]
    assert ab_pairs.main(argv, run=run) == 0
    assert calls == ["base", "change", "change", "base", "base", "change"]
    out = capsys.readouterr().out
    assert "wall_s: change wins 3/3, base wins 0/3" in out
    assert "setup_s: change wins 0/3, base wins 0/3" in out


def test_a_run_that_is_not_correct_fails_the_command(capsys):
    calls, run = _fake_runs(correct_at={4})
    argv = ["base", "change", "--workload", "sweep-exact", "--seed", "0",
            "--seconds", "1", "--pairs", "2"]
    assert ab_pairs.main(argv, run=run) == 1
    assert len(calls) == 4
    assert "NOT CORRECT" in capsys.readouterr().out
