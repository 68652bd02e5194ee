"""Self-tests of the benchmark itself: python3 -m pytest perfbench"""
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
os.environ.pop("RABI_SPECTRA_JOBS", None)

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rabi_spectra import cli  # noqa: E402


def _perturb_cell(text: str, field: str, row: int, delta: float) -> str:
    lines = text.split("\n")
    names = lines[1].split(",")
    col = names.index(field)
    cells = lines[2 + row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines)


def test_gate_passes_the_reference_and_fails_a_perturbed_energy():
    ref = gate.load_reference("sweep-approx", "0")
    assert gate.check(ref, ref) == []
    assert gate.check(_perturb_cell(ref, "energy", 7, 1e-12), ref) == []
    problems = gate.check(_perturb_cell(ref, "energy", 7, 1e-8), ref)
    assert len(problems) == 1 and "row 8 energy" in problems[0]


def test_gate_fails_on_error_tokens_rows_and_oracle_convergence():
    ref = gate.load_reference("scan-dense", "0")
    assert gate.check(ref, ref) == []
    assert gate.error_counts(gate._split(ref)[1])["Singular"] > 0
    swapped = ref.replace(",Singular\n", ",NoBracket\n", 1)
    assert any("error counts" in p for p in gate.check(swapped, ref))
    truncated = ref[: ref.rstrip("\n").rindex("\n") + 1]
    assert any("rows" in p for p in gate.check(truncated, ref))

    oracle = gate.load_reference("oracle-n300", "0")
    assert gate.check(oracle, oracle) == []
    failed = oracle.replace('"passed": true', '"passed": false', 1)
    assert "oracle convergence.passed is not true" in gate.check(failed, oracle)


def _traced_spectrum(tmp_path, tracer, n_points=12):
    grid = ",".join(repr(0.1 + 0.05 * i) for i in range(n_points))
    out = str(tmp_path / "out.csv")
    with tracer.installed():
        rc = cli.main(["spectrum", "--omega", "1", "--delta2", "2", "--g2", "0.7",
                       "--g1-grid", grid, "--out", out])
    assert rc == 0
    return tracer.spans


def test_worker_thread_spans_attach_to_the_root_span(tmp_path):
    recorded = _traced_spectrum(tmp_path, spans.Tracer())
    by_id = {s.id: s for s in recorded}
    root = next(s for s in recorded if s.name == spans.ROOT)
    worker = [s for s in recorded if s.thread != threading.get_ident()]
    assert worker, "the CLI ran no span in a worker thread"
    for s in recorded:
        top = s
        while top.parent is not None:
            top = by_id[top.parent]
        assert top is root, f"{s.name} span does not descend from {spans.ROOT}"
    metrics = spans.pass_metrics(recorded)
    assert metrics["cli.self_s"] < 0.5 * (root.end - root.start)
    assert metrics["trace.coverage"] > 0.5


def test_plain_thread_pool_would_orphan_worker_spans(tmp_path, monkeypatch):
    # Control for the test above: without context propagation the worker
    # spans lose their parent, which is what ContextExecutor prevents.
    monkeypatch.setattr(spans, "ContextExecutor", ThreadPoolExecutor)
    recorded = _traced_spectrum(tmp_path, spans.Tracer())
    orphans = [s for s in recorded if s.parent is None and s.name != spans.ROOT]
    assert orphans


def test_counts_repeat_exactly_and_patches_are_undone(tmp_path):
    originals = {name: getattr(cli, name) for name in ("main", "csv_text", "ThreadPoolExecutor")}
    first = spans.pass_metrics(_traced_spectrum(tmp_path, spans.Tracer()))
    second = spans.pass_metrics(_traced_spectrum(tmp_path, spans.Tracer()))
    for key in spans.COUNT_METRICS:
        assert first[key] == second[key], key
    assert first["fockspace.block_eig.calls"] > 0
    assert {name: getattr(cli, name) for name in originals} == originals

    counts = []
    for _ in range(2):
        counter = spans.Counter()
        with counter.installed():
            assert cli.main(["spectrum", "--omega", "1", "--delta2", "2", "--g2", "0.7",
                             "--g1-grid", "0.5,0.9", "--n-blocks", "20", "--mode", "exact",
                             "--out", str(tmp_path / "exact.csv")]) == 0
        counts.append(counter.counts)
    assert counts[0] == counts[1]
    assert counts[0]["numerics.laguerre.steps"] > counts[0]["numerics.laguerre.calls"] > 0


def test_seeds_give_fixed_inputs_and_the_held_out_seed_its_own():
    for name in workloads.NAMES:
        assert workloads.build(name, 4) == workloads.build(name, 4)
        assert workloads.build(name, 1).argv == workloads.build(name, 4).argv
        argvs = {workloads.build(name, s).argv
                 for s in (0, 1, 2, workloads.HELD_OUT_SEED)}
        assert len(argvs) == 4
        for arg in workloads.build(name, 0).argv:
            assert ":" not in arg


def test_self_time_subtracts_the_union_of_child_intervals():
    def span(sid, parent, start, end):
        return spans.Span(sid, parent, "x", start, end, True, None, 0)
    own = spans.self_times([
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 1, 3.0, 6.0),  # overlaps its sibling: counted once
        span(4, 2, 2.0, 3.0),
    ])
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
