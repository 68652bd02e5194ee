"""Top-level acceptance gates, one test per shipped guarantee.

Each test prints the quantities it gates so a failed run leaves a usable
record.  Tolerances and runtime ceilings are part of the contract and are
asserted, not just printed.
"""

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from rabi_spectra import (
    CoefficientMode,
    ModelParams,
    NoBracketError,
    ReservoirParams,
    SingularError,
    SymmetricMatrix,
    TrwaParams,
    build_block4,
    build_effective_chain_matrix,
    build_full_pseudomode,
    build_full_rabi,
    build_parity_chain,
    build_rotated_rabi,
    chain_n_max_for_blocks,
    closed_block_index_groups,
    compare_trwa_exact,
    dark_state_residual,
    design_resonant,
    eigh,
    eigvals_sym,
    eval_laguerre,
    solve_lambda1,
    solve_lambda2,
    verify_eq24,
)
from rabi_spectra.cli import main

from csvdoc import read_csv

FIG3 = dict(omega=1.0, delta2=2.0, g2=0.7, g1=0.9)

RESERVOIR_SYM = ReservoirParams(
    omega=1.0, omega1=0.8, v=0.2, g1=0.3, g2=0.3,
    g1p=0.2, g2p=0.2, delta1=1.0, delta2=1.0,
)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _fig3_design():
    d = design_resonant(**FIG3)
    p = ModelParams(omega=1.0, delta1=d.delta1, delta2=2.0, g1=0.9, g2=0.7)
    t = TrwaParams(lambda1=d.lambda1, lambda2=d.lambda2)
    return p, t


# --------------------------------------------------------------------------
# 1. solver roots against a grid-scan bisection oracle
# --------------------------------------------------------------------------

def _res_q1(omega, delta, g, lam):
    return g + lam * omega + 2.0 * delta * lam * np.exp(-2.0 * lam * lam)


def _res_q2(omega, delta, g, lam):
    return g + lam * omega - 2.0 * delta * lam * np.exp(-2.0 * lam * lam)


def _oracle_root(res, lo, hi):
    """First sign change on a 10^6-point grid, then plain bisection."""
    xs = np.linspace(lo, hi, 1_000_001)
    fs = res(xs)
    flips = np.nonzero(np.signbit(fs[:-1]) != np.signbit(fs[1:]))[0]
    if flips.size == 0:
        return None
    a, b = float(xs[flips[0]]), float(xs[flips[0] + 1])
    fa = res(np.array([a]))[0]
    for _ in range(100):
        mid = 0.5 * (a + b)
        fm = res(np.array([mid]))[0]
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def test_solver_roots_match_bisection_oracle_and_residual_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    accepted = {1: 0, 2: 0}
    draws = 0
    while sum(accepted.values()) < 100:
        draws += 1
        omega = rng.uniform(0.5, 1.5)
        delta = rng.uniform(0.0, 2.5)
        g = rng.uniform(0.0, 1.0)
        qubit = 1 if draws % 2 else 2
        try:
            if qubit == 1:
                lam = solve_lambda1(omega, delta, g)
                resid = _res_q1(omega, delta, g, np.array([lam]))[0]
                ref = _oracle_root(
                    lambda x: _res_q1(omega, delta, g, x), -1.0, 0.0)
            else:
                lam = solve_lambda2(omega, delta, g)
                resid = _res_q2(omega, delta, g, np.array([lam]))[0]
                if 2.0 * delta > omega:
                    hi = math.sqrt(0.5 * math.log(2.0 * delta / omega))
                    ref = _oracle_root(
                        lambda x: _res_q2(omega, delta, g, x), 0.0, hi)
                else:
                    ref = _oracle_root(
                        lambda x: _res_q2(omega, delta, g, x), -1.0, 0.0)
        except (NoBracketError, SingularError):
            continue
        if g == 0.0:
            continue  # trivial root, gated separately
        assert abs(resid) <= 1e-10, (omega, delta, g, qubit, lam, resid)
        assert ref is not None, (omega, delta, g, qubit)
        assert abs(lam - ref) <= 1e-8, (omega, delta, g, qubit, lam, ref)
        accepted[qubit] += 1
    elapsed = time.perf_counter() - t0
    print(f"accepted solves: qubit1={accepted[1]} qubit2={accepted[2]} "
          f"of {draws} draws in {elapsed:.2f}s")
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# 2. trivial roots
# --------------------------------------------------------------------------

def test_trivial_roots_are_exact():
    assert solve_lambda1(1.3, 1.7, 0.0) == 0.0
    assert solve_lambda2(1.3, 1.7, 0.0) == 0.0
    for omega, g in ((1.0, 0.3), (2.0, 0.5), (0.7, 0.6)):
        assert solve_lambda1(omega, 0.0, g) == pytest.approx(-g / omega, abs=1e-12)
        assert solve_lambda2(omega, 0.0, g) == pytest.approx(-g / omega, abs=1e-12)


# --------------------------------------------------------------------------
# 3. block closure of the effective chain at the resonant design
# --------------------------------------------------------------------------

def _block_membership(parity, dim):
    """Index -> group id; indices past the last complete block (a truncation
    boundary, not a physical block) share one group."""
    first = 3 if parity == 1 else 1
    n_blocks = (dim - first) // 4
    member = {}
    for gi, grp in enumerate(closed_block_index_groups(parity, n_blocks)):
        for i in grp:
            member[i] = gi
    return member


def test_chain_is_block_diagonal_at_resonant_design():
    t0 = time.perf_counter()
    p, t = _fig3_design()
    worst_off = 0.0
    worst_pair = 0.0
    for parity in (+1, -1):
        chain = build_parity_chain(parity, 30)
        h = np.asarray(
            build_effective_chain_matrix(p, t, chain, CoefficientMode.APPROX).data
        )
        dim = h.shape[0]
        member = _block_membership(parity, dim)
        for i in range(dim):
            for j in range(i + 1, dim):
                if member.get(i, -1) != member.get(j, -1):
                    worst_off = max(worst_off, abs(h[i, j]))
        for k in range(dim // 2):
            worst_pair = max(worst_pair, abs(h[2 * k, 2 * k + 1]))
    elapsed = time.perf_counter() - t0
    print(f"max off-block {worst_off:.3e}, max same-photon pair "
          f"{worst_pair:.3e}, {elapsed:.2f}s")
    assert worst_off <= 1e-12
    assert worst_pair <= 1e-12
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 4. four-state blocks reproduce the chain principal submatrices
# --------------------------------------------------------------------------

def test_blocks_match_chain_submatrices_up_to_n_ten():
    p, t = _fig3_design()
    chain = build_parity_chain(+1, chain_n_max_for_blocks(11))
    full = build_effective_chain_matrix(p, t, chain, CoefficientMode.APPROX)
    for n in range(11):
        blk = build_block4(p, t, n, CoefficientMode.APPROX)
        idx = tuple(range(4 * n + 3, 4 * n + 7))
        sub = full.submatrix(idx)
        assert np.max(np.abs(eigvals_sym(blk.matrix) - eigvals_sym(sub))) <= 1e-10


# --------------------------------------------------------------------------
# 5. deviation table against exact diagonalization shrinks with coupling
# --------------------------------------------------------------------------

def test_deviation_table_shrinks_as_coupling_weakens():
    t0 = time.perf_counter()
    maxes, means = [], []
    for scale in (1.0, 0.5, 0.25):
        cmp = compare_trwa_exact(
            1.0, 2.0, 0.7, 0.9 * scale, n_levels=6, n_max=60, n_blocks=8)
        devs = [abs(r.abs_dev) for r in cmp.rows]
        assert all(math.isfinite(d) for d in devs)
        print(f"g1={0.9 * scale:<6g} devs=" +
              " ".join(f"{d:.6f}" for d in devs))
        maxes.append(max(devs))
        means.append(sum(devs) / len(devs))
    elapsed = time.perf_counter() - t0
    print(f"max per scale {maxes}, mean per scale {means}, {elapsed:.2f}s")
    assert maxes[0] > maxes[1] > maxes[2]
    assert means[0] > means[1] > means[2]
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 6. published scan presets: monotone windows, boundaries recorded
# --------------------------------------------------------------------------

def test_window_scan_presets_record_boundaries():
    t0 = time.perf_counter()
    expected_rows = {"1a": 76, "1b": 57, "2a": 76, "2b": 57}
    boundary_g2 = None
    delta1_window = []
    for fig, count in expected_rows.items():
        code, out = _cli(["scan-window", "--fig", fig])
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == count, fig
        groups = {}
        for r in rows:
            groups.setdefault((r["omega"], r["delta2"]), []).append(r)
        for key, grp in groups.items():
            lams = [float(r["lambda2"]) for r in grp if not r["error"]]
            assert all(b >= a - 1e-12 for a, b in zip(lams, lams[1:])), (fig, key)
            inside = [r for r in grp if r["in_window"] == "true"]
            if fig == "1a" and key == ("1", "2"):
                assert inside, "expected a nonempty window at omega=1, delta2=2"
                boundary_g2 = (float(inside[0]["g2"]), float(inside[-1]["g2"]))
            if fig == "2a" and key == ("1", "2"):
                # the joint window (both displacements small) is empty here,
                # so record the resonant delta1 over the solvable claimed
                # g2 range instead
                delta1_window = sorted(
                    float(r["delta1"]) for r in grp
                    if not r["error"] and 0.1 <= float(r["g2"]) <= 0.8)
    elapsed = time.perf_counter() - t0
    print(f"computed in-window g2 range {boundary_g2} vs claimed (0.1, 0.8); "
          "disagreement is recorded, not forced")
    assert delta1_window, "no solvable rows on the claimed g2 range"
    print(f"derived resonant delta1 over the claimed g2 range "
          f"[{delta1_window[0]:.4f}, {delta1_window[-1]:.4f}] "
          "vs claimed (0.05, 0.4)")
    print(f"{elapsed:.2f}s")
    assert boundary_g2 is not None and boundary_g2[0] == 0.1
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 7. parity is conserved exactly, single mode and pseudomode
# --------------------------------------------------------------------------

def _photon_parity(n_max):
    return np.diag((-1.0) ** np.arange(n_max + 1))


def _commutator_max(h, parity):
    h = np.asarray(h.data)
    return float(np.max(np.abs(h @ parity - parity @ h)))


def test_parity_defect_is_exactly_zero():
    # P = diag((-1)^n) [(x) diag((-1)^m)] (x) sz (x) sz, from its definition
    qubits = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    p, _ = _fig3_design()
    for n_max in (20, 40, 60):
        parity = np.kron(_photon_parity(n_max), qubits)
        assert _commutator_max(build_full_rabi(p, n_max), parity) == 0.0
        assert _commutator_max(build_rotated_rabi(p, n_max), parity) == 0.0
    parity = np.kron(_photon_parity(12), np.kron(_photon_parity(12), qubits))
    assert _commutator_max(build_full_pseudomode(RESERVOIR_SYM, 12, 12), parity) == 0.0


# --------------------------------------------------------------------------
# 8. the frame rotation leaves the spectrum invariant
# --------------------------------------------------------------------------

def test_rotated_frame_is_isospectral():
    p, _ = _fig3_design()
    plain = eigvals_sym(build_full_rabi(p, 40))
    rotated = eigvals_sym(build_rotated_rabi(p, 40))
    assert np.max(np.abs(plain - rotated)) <= 1e-10


# --------------------------------------------------------------------------
# 9. dark states of the symmetric pseudomode model
# --------------------------------------------------------------------------

def test_dark_state_residuals_vanish_on_the_even_grid():
    t0 = time.perf_counter()
    for m in range(5):
        for n in range(5):
            if (m + n) % 2 == 0:
                assert dark_state_residual(RESERVOIR_SYM, m, n) <= 1e-12, (m, n)
            else:
                with pytest.raises(ValueError):
                    dark_state_residual(RESERVOIR_SYM, m, n)
    elapsed = time.perf_counter() - t0
    print(f"{elapsed:.2f}s")
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 10. discrepancy report for the six-state window
# --------------------------------------------------------------------------

def test_six_state_window_report_quantifies_residuals():
    rep = verify_eq24(RESERVOIR_SYM, k_value=0.1)
    d = rep.to_dict()
    assert len(d["eigenvalues"]) == 6
    for key in ("eigen_residual", "best_overlap"):
        assert math.isfinite(d["residuals"][key])
    mismatches = {(e["i"], e["j"]) for e in d["entry_mismatches"]}
    assert {(2, 2), (3, 3)} <= mismatches
    print(f"eigen residual {d['residuals']['eigen_residual']:.6f}, "
          f"overlap {d['residuals']['best_overlap']:.6f}, "
          f"mismatched entries {sorted(mismatches)}")
    # the closed-form candidate is documented as inconsistent with the
    # generated window; acceptance is the quantified report, not agreement


# --------------------------------------------------------------------------
# 11. numerical kernels: series identity and eigensolver bounds
# --------------------------------------------------------------------------

def test_numerical_kernels_hold_their_bounds():
    t0 = time.perf_counter()
    for n in range(21):
        for k in (0, 1):
            for x in (0.01, 0.04, 0.25, 1.0, 2.0):
                series = sum(
                    (-1) ** j * math.comb(n + k, n - j) * x**j / math.factorial(j)
                    for j in range(n + 1)
                )
                got = eval_laguerre(n, k, x)
                assert got == pytest.approx(series, rel=1e-12, abs=1e-12)
    rng = np.random.default_rng(20260816)
    for dim in (2, 3, 7, 16, 33, 64):
        arr = rng.standard_normal((dim, dim))
        arr = (arr + arr.T) / 2.0
        dec = eigh(SymmetricMatrix(arr))
        scale = max(1.0, float(np.max(np.abs(dec.values))))
        resid = np.max(np.abs(arr @ dec.vectors - dec.vectors * dec.values))
        gram = np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(dim)))
        assert resid <= 1e-10 * scale
        assert gram <= 1e-10
        assert np.all(np.diff(dec.values) >= 0.0)
    elapsed = time.perf_counter() - t0
    print(f"{elapsed:.2f}s")
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# 12. determinism: reruns never change the bytes
# --------------------------------------------------------------------------

def test_outputs_are_deterministic_across_reruns():
    for argv in (["scan-window", "--fig", "1a"], ["scan-window", "--fig", "2b"],
                 ["spectrum", "--fig", "3"], ["spectrum", "--fig", "3", "--format", "json"]):
        first = _cli(argv)
        assert first[0] == 0 and first[1]
        assert _cli(argv) == first
