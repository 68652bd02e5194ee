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


def test_wins_needed_is_nine_of_ten_rounded_up():
    assert [ab_pairs.wins_needed(n) for n in (1, 6, 10, 11, 20)] == [1, 6, 9, 10, 18]


def test_claim_needs_the_wins_and_a_gap_past_the_base_spread():
    base = [40.0, 39.0, 41.0, 40.5, 39.5, 40.2, 39.8, 40.1, 39.9, 40.3]
    # 1.0 below the base in every pair: 10/10 wins, and the 1.0 gap is past
    # the base's q3 - q1 of 0.625
    s = ab_pairs.summarize(base, [b - 1.0 for b in base])
    assert s["change_wins"] == 10
    assert s["gap"] == pytest.approx(1.0) and s["spread"] == pytest.approx(0.625)
    assert s["claim"]
    # the change wins every pair by a hair: the wins pass, the spread test fails
    s = ab_pairs.summarize(base, [b - 0.01 for b in base])
    assert s["change_wins"] == 10 and s["gap"] < s["spread"]
    assert not s["claim"]
    # a wide gap with two pairs lost: the spread test passes, the wins fail
    change = [b - 2.0 for b in base[:8]] + [b + 0.5 for b in base[8:]]
    s = ab_pairs.summarize(base, change)
    assert s["change_wins"] == 8 and s["gap"] > s["spread"]
    assert not s["claim"]


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
    assert "claim met: change wins 3/3 (needs 3); median gap 0.003 vs base q3 - q1 0" in out
    assert "claim not met: change wins 0/3 (needs 3); median gap 0 vs base q3 - q1 0" in out


def test_a_run_that_is_not_correct_fails_the_command(capsys):
    calls, run = _fake_runs(correct_at={4})
    argv = ["base", "change", "--workload", "sweep-exact", "--seed", "0",
            "--seconds", "1", "--pairs", "2"]
    assert ab_pairs.main(argv, run=run) == 1
    assert len(calls) == 4
    assert "NOT CORRECT" in capsys.readouterr().out
