"""Parity chains, the effective block-diagonal matrix, and the closed
four-state blocks under a joint resonant design."""

import dataclasses
import functools
import math
import re
import traceback
import tracemalloc

import numpy as np
import pytest

from rabi_spectra import (
    ChainState,
    CoefficientMode,
    ModelParams,
    ParityChain,
    SymmetricMatrix,
    TrwaParams,
    block_leakage,
    build_block4,
    build_effective_chain_matrix,
    build_parity_chain,
    build_rotated_rabi,
    chain_n_max_for_blocks,
    closed_block_index_groups,
    coeff_f1,
    coeff_g0,
    constant_offset,
    design_resonant,
    eigh,
    eigvals_sym,
    resonance_residual,
    solve_lambda2,
    spectrum_vs_g1,
    trwa_block_energies,
)
from rabi_spectra import fockspace
from rabi_spectra import model as fockspace_model
from rabi_spectra.fockspace import _chain_bands, _chain_layout
from rabi_spectra.numerics import (
    LAGUERRE_MAX_DEGREE,
    NoBracketError,
    NonFiniteError,
    eigvals_lowest,
    eigvals_stacked,
    error_token,
    inertia_count,
)
from rabi_spectra.resonance import DegenerateDesignError, SingularError

# Hand-expanded closed forms of the low-order Laguerre polynomials; kept
# deliberately independent of the evaluator inside the package so the matrix
# transcription below cross-checks element formulas, not just plumbing.
HAND_L = {
    0: lambda x: 1.0,
    1: lambda x: 1.0 - x,
    2: lambda x: 1.0 - 2.0 * x + x * x / 2.0,
    3: lambda x: 1.0 - 3.0 * x + 1.5 * x * x - x**3 / 6.0,
    4: lambda x: 1.0 - 4.0 * x + 3.0 * x * x - 2.0 * x**3 / 3.0 + x**4 / 24.0,
    5: lambda x: (
        1.0 - 5.0 * x + 5.0 * x * x - 5.0 * x**3 / 3.0 + 5.0 * x**4 / 24.0 - x**5 / 120.0
    ),
}
HAND_L1 = {
    0: lambda x: 1.0,
    1: lambda x: 2.0 - x,
    2: lambda x: 3.0 - 3.0 * x + x * x / 2.0,
    3: lambda x: 4.0 - 6.0 * x + 2.0 * x * x - x**3 / 6.0,
    4: lambda x: 5.0 - 10.0 * x + 5.0 * x * x - 5.0 * x**3 / 6.0 + x**4 / 24.0,
}


def hand_g0(lam, n):
    return math.exp(-2 * lam * lam) * HAND_L[n](4 * lam * lam)


def hand_f1(lam, n):
    # one-photon weight between photon numbers n and n+1
    return 2 * lam * math.exp(-2 * lam * lam) * HAND_L1[n](4 * lam * lam) / math.sqrt(n + 1)


GENERIC_P = ModelParams(omega=1.0, delta1=0.8, delta2=1.7, g1=0.35, g2=0.6)
GENERIC_T = TrwaParams(lambda1=-0.23, lambda2=0.17)


def hand_hop(p, t, qubit, n_lo, s_hi):
    """(g + lam*omega) sqrt(n_lo+1) + s_hi * delta * F1, written out fresh."""
    if qubit == 1:
        g, lam, delta = p.g1, t.lambda1, p.delta1
    else:
        g, lam, delta = p.g2, t.lambda2, p.delta2
    return (g + lam * p.omega) * math.sqrt(n_lo + 1) + s_hi * delta * hand_f1(lam, n_lo)


def test_chain_construction_minus_parity():
    chain = build_parity_chain(-1, 1)
    assert [s.ket() for s in chain.states] == ["|0,-,+>", "|0,+,->", "|1,+,+>", "|1,-,->"]
    assert all(s.parity == -1 for s in chain.states)


def test_chain_construction_plus_parity():
    chain = build_parity_chain(+1, 1)
    assert [s.ket() for s in chain.states] == ["|0,+,+>", "|0,-,->", "|1,-,+>", "|1,+,->"]
    assert all(s.parity == +1 for s in chain.states)


def test_chain_length():
    assert len(build_parity_chain(+1, 10).states) == 22
    assert len(build_parity_chain(-1, 10).states) == 22


@pytest.mark.parametrize("make, message", [
    (lambda: build_parity_chain(1, 2.5), "n_max must be an integer, got 2.5"),
    (lambda: build_parity_chain(1, True), "n_max: expected a number, got True"),
    (lambda: build_parity_chain(1, -1), "n_max must be nonnegative, got -1"),
    (lambda: build_parity_chain(1, 10**400), "n_max: must be finite, got inf"),
    (lambda: ChainState(True, 1, 1), "photon number: expected a number, got True"),
    (lambda: ChainState(1.5, 1, 1), "photon number must be an integer, got 1.5"),
    (lambda: ChainState(-1, 1, 1), "photon number must be nonnegative, got -1"),
])
def test_photon_numbers_must_be_integers(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_an_integer_valued_photon_number_is_taken_as_an_int():
    assert build_parity_chain(1, 2.0) == build_parity_chain(1, 2)
    assert build_parity_chain(1, 2.0).labels()[-1] == "|2,-,->"
    assert type(ChainState(2.0, 1, 1).n) is int
    assert ChainState(2.0, 1, 1).ket() == "|2,+,+>"


def test_an_int_photon_number_keeps_its_exact_value():
    # past 2**53 a float has no odd integers: the int must not go through one
    n = 2**53 + 1
    assert ChainState(n, 1, 1).n == n
    assert ChainState(n, 1, 1).ket() == f"|{n},+,+>"


def test_zero_coupling_diagonal_element():
    p = ModelParams(omega=1.0, delta1=0.6, delta2=1.1, g1=0.0, g2=0.0)
    t = TrwaParams(lambda1=0.0, lambda2=0.0)
    chain = build_parity_chain(-1, 1)
    h = build_effective_chain_matrix(p, t, chain)
    assert h.entry(0, 0) == pytest.approx(-0.6 + 1.1, abs=1e-15)  # <0,-,+| ... |0,-,+>
    # zero couplings leave nothing off the diagonal
    arr = np.asarray(h.data)
    assert np.max(np.abs(arr - np.diag(np.diag(arr)))) == 0.0


def test_same_rung_element_is_the_joint_resonance_residual():
    chain = build_parity_chain(-1, 1)
    h = build_effective_chain_matrix(GENERIC_P, GENERIC_T, chain, CoefficientMode.EXACT)
    expected = resonance_residual(
        GENERIC_T.lambda1, GENERIC_T.lambda2, GENERIC_P.g1, GENERIC_P.g2, GENERIC_P.omega
    )
    assert h.entry(0, 1) == expected
    assert h.entry(2, 3) == expected


def test_minus_chain_matrix_matches_hand_transcription():
    """Full 8x8 window at n_max=3, exact mode, written out element by element."""
    p, t = GENERIC_P, GENERIC_T
    chain = build_parity_chain(-1, 3)
    h = np.asarray(build_effective_chain_matrix(p, t, chain, CoefficientMode.EXACT).data)

    om = p.omega
    c0 = (
        t.lambda1**2 * om + t.lambda2**2 * om
        + 2 * t.lambda1 * p.g1 + 2 * t.lambda2 * p.g2
    )
    rr = 2 * t.lambda2 * p.g1 + 2 * p.g2 * t.lambda1 + 2 * t.lambda1 * t.lambda2 * om
    lit = np.zeros((8, 8))
    spins = [(-1, 1), (1, -1), (1, 1), (-1, -1), (-1, 1), (1, -1), (1, 1), (-1, -1)]
    photons = [0, 0, 1, 1, 2, 2, 3, 3]
    for i, ((s1, s2), n) in enumerate(zip(spins, photons)):
        lit[i, i] = (
            om * n + c0
            + s1 * p.delta1 * hand_g0(t.lambda1, n)
            + s2 * p.delta2 * hand_g0(t.lambda2, n)
        )
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7)):
        lit[i, j] = rr
    lit[0, 2] = hand_hop(p, t, 1, 0, +1)
    lit[0, 3] = hand_hop(p, t, 2, 0, -1)
    lit[1, 2] = hand_hop(p, t, 2, 0, +1)
    lit[1, 3] = hand_hop(p, t, 1, 0, -1)
    lit[2, 4] = hand_hop(p, t, 1, 1, -1)
    lit[2, 5] = hand_hop(p, t, 2, 1, -1)
    lit[3, 4] = hand_hop(p, t, 2, 1, +1)
    lit[3, 5] = hand_hop(p, t, 1, 1, +1)
    lit[4, 6] = hand_hop(p, t, 1, 2, +1)
    lit[4, 7] = hand_hop(p, t, 2, 2, -1)
    lit[5, 6] = hand_hop(p, t, 2, 2, +1)
    lit[5, 7] = hand_hop(p, t, 1, 2, -1)
    lit = np.triu(lit) + np.triu(lit, 1).T
    assert np.max(np.abs(h - lit)) <= 1e-12


def test_plus_chain_window_matches_hand_transcription():
    """Six-state window at base photon 3 (chain indices 6..11), exact mode."""
    p, t = GENERIC_P, GENERIC_T
    chain = build_parity_chain(+1, 6)
    full = build_effective_chain_matrix(p, t, chain, CoefficientMode.EXACT)
    win = np.asarray(full.submatrix(tuple(range(6, 12))).data)

    om = p.omega
    c0 = constant_offset(p, t)
    rr = resonance_residual(t.lambda1, t.lambda2, p.g1, p.g2, om)
    lit = np.zeros((6, 6))
    spins = [(-1, 1), (1, -1), (1, 1), (-1, -1), (-1, 1), (1, -1)]
    photons = [3, 3, 4, 4, 5, 5]
    for i, ((s1, s2), n) in enumerate(zip(spins, photons)):
        lit[i, i] = (
            om * n + c0
            + s1 * p.delta1 * hand_g0(t.lambda1, n)
            + s2 * p.delta2 * hand_g0(t.lambda2, n)
        )
    lit[0, 1] = lit[2, 3] = lit[4, 5] = rr
    lit[0, 2] = hand_hop(p, t, 1, 3, +1)
    lit[0, 3] = hand_hop(p, t, 2, 3, -1)
    lit[1, 2] = hand_hop(p, t, 2, 3, +1)
    lit[1, 3] = hand_hop(p, t, 1, 3, -1)
    lit[2, 4] = hand_hop(p, t, 1, 4, -1)
    lit[2, 5] = hand_hop(p, t, 2, 4, -1)
    lit[3, 4] = hand_hop(p, t, 2, 4, +1)
    lit[3, 5] = hand_hop(p, t, 1, 4, +1)
    lit = np.triu(lit) + np.triu(lit, 1).T
    assert np.max(np.abs(win - lit)) <= 1e-12


def fig3_design():
    d = design_resonant(1.0, 2.0, 0.7, 0.9)
    p = ModelParams(omega=1.0, delta1=d.delta1, delta2=2.0, g1=0.9, g2=0.7)
    t = TrwaParams(lambda1=d.lambda1, lambda2=d.lambda2)
    return p, t


def diag_element(p, t, n, s1, s2, mode):
    """omega n + c0 + s1 delta1 G0(n; lam1) + s2 delta2 G0(n; lam2)."""
    return (
        p.omega * n
        + constant_offset(p, t)
        + s1 * p.delta1 * coeff_g0(t.lambda1, n, mode)
        + s2 * p.delta2 * coeff_g0(t.lambda2, n, mode)
    )


def hop_element(p, t, n_lo, qubit, s_hi, mode):
    """(g_i + lam_i omega) sqrt(n+1) + s_i' delta_i F1(n+1, n; lam_i) between
    photon numbers n_lo and n_lo + 1 when `qubit` flips, s_hi its sign in
    the higher-photon state."""
    if qubit == 1:
        g, lam, delta = p.g1, t.lambda1, p.delta1
    else:
        g, lam, delta = p.g2, t.lambda2, p.delta2
    return (g + lam * p.omega) * math.sqrt(n_lo + 1.0) + s_hi * delta * coeff_f1(lam, n_lo, mode)


def reference_chain_matrix(p, t, chain, mode):
    """Element-by-element chain assembly through the scalar coefficient
    functions (coeff_g0, coeff_f1): the reference for the band builder."""
    states = chain.states
    arr = np.zeros((len(states), len(states)))
    for i, a in enumerate(states):
        arr[i, i] = diag_element(p, t, a.n, a.s1, a.s2, mode)
        for j in range(i + 1, len(states)):
            b = states[j]
            if b.n - a.n > 1:
                break
            flip1, flip2 = a.s1 != b.s1, a.s2 != b.s2
            v = 0.0
            if b.n == a.n and flip1 and flip2:
                v = resonance_residual(t.lambda1, t.lambda2, p.g1, p.g2, p.omega)
            elif b.n == a.n + 1 and flip1 != flip2:
                v = (hop_element(p, t, a.n, 1, b.s1, mode) if flip1
                     else hop_element(p, t, a.n, 2, b.s2, mode))
            if v != 0.0:
                arr[i, j] = arr[j, i] = v
    return arr


@pytest.mark.parametrize("mode", [CoefficientMode.APPROX, CoefficientMode.EXACT])
@pytest.mark.parametrize("parity", [+1, -1])
def test_chain_matrix_matches_elementwise_reference_at_200_blocks(parity, mode):
    p, t = fig3_design()
    chain = build_parity_chain(parity, chain_n_max_for_blocks(200))
    h = build_effective_chain_matrix(p, t, chain, mode)
    ref = reference_chain_matrix(p, t, chain, mode)
    assert h.labels == chain.labels()
    assert np.array_equal(h.data.view(np.uint64), ref.view(np.uint64))


def test_chain_matrix_rejects_a_chain_out_of_photon_order():
    chain = build_parity_chain(+1, 2)
    shuffled = ParityChain(chain.parity, chain.n_max, chain.states[2:] + chain.states[:2])
    with pytest.raises(ValueError):
        build_effective_chain_matrix(GENERIC_P, GENERIC_T, shuffled)


def test_chain_matrix_rejects_a_pair_in_the_other_spin_order():
    # the band takes its spins from parity arithmetic, so a chain whose
    # pair at one photon number is swapped would get another chain's matrix
    states = build_parity_chain(-1, 2).states
    swapped = ParityChain(-1, 2, states[:2] + (states[3], states[2]) + states[4:])
    with pytest.raises(ValueError):
        build_effective_chain_matrix(GENERIC_P, GENERIC_T, swapped)


@pytest.mark.parametrize("n_max", [0, 1, 2, 5, 17])
@pytest.mark.parametrize("parity", [+1, -1])
def test_parity_arithmetic_layout_matches_the_enumerated_chain(parity, n_max):
    # the enumeration as the docstring states it: the spin pair at n is
    # fixed by parity = (-1)^n s1 s2, (-,+) before (+,-), (+,+) before (-,-)
    expected = []
    for n in range(n_max + 1):
        if parity * (-1) ** n == -1:
            expected += [(n, -1, 1), (n, 1, -1)]
        else:
            expected += [(n, 1, 1), (n, -1, -1)]
    ns, s1, s2 = _chain_layout(parity, n_max)
    chain = build_parity_chain(parity, n_max)
    assert list(zip(ns.tolist(), s1.tolist(), s2.tolist())) == expected
    assert [(s.n, s.s1, s.s2) for s in chain.states] == expected
    assert all(s.parity == parity for s in chain.states)


def dense_route_block_energies(p, t, parity, n_blocks, mode):
    """Block energies cut from the dense chain matrix: the boundary group
    through eigh, the 4x4 submatrices through one stacked solve.  The
    reference for the band-assembled route of trwa_block_energies."""
    chain = build_parity_chain(parity, chain_n_max_for_blocks(n_blocks))
    h = build_effective_chain_matrix(p, t, chain, mode)
    energies = []
    quads = []
    for group in closed_block_index_groups(parity, n_blocks):
        if len(group) == 4:
            quads.append(group)
        elif len(group) == 1:
            energies.append(h.entry(group[0], group[0]))
        else:
            energies.extend(float(v) for v in eigh(h.submatrix(group)).values)
    idx = np.array(quads)
    energies.extend(eigvals_stacked(h.data[idx[:, :, None], idx[:, None, :]]).ravel().tolist())
    energies.sort()
    return energies


DESIGN_POINTS = [(1.0, 2.0, 0.7, 0.9), (1.0, 1.5, 0.4, 0.6), (0.5, 2.0, 0.3, 0.2)]


@pytest.mark.parametrize("n_blocks", [1, 8, 200])
@pytest.mark.parametrize("mode", [CoefficientMode.APPROX, CoefficientMode.EXACT])
@pytest.mark.parametrize("point", DESIGN_POINTS)
def test_band_block_energies_equal_the_dense_route(point, mode, n_blocks):
    omega, delta2, g2, g1 = point
    d = design_resonant(omega, delta2, g2, g1)
    p = ModelParams(omega=omega, delta1=d.delta1, delta2=delta2, g1=g1, g2=g2)
    t = TrwaParams(lambda1=d.lambda1, lambda2=d.lambda2)
    for parity in (+1, -1):
        got = trwa_block_energies(p, t, parity, n_blocks, mode)
        assert got == dense_route_block_energies(p, t, parity, n_blocks, mode)


@pytest.mark.parametrize("mode", [CoefficientMode.APPROX, CoefficientMode.EXACT])
def test_band_blocks_equal_the_dense_submatrices(monkeypatch, mode):
    # energies alone would miss a wrong upper triangle: LAPACK reads one.
    # The spies record the blocks the stacked solve of a sweep cuts from
    # the bands: each point's boundary group, + chain then - chain, and
    # one stack of every point's 4x4 blocks per chain.
    grid = [0.5, 0.7, 0.9]
    n_blocks = 12
    edges, stacks = [], []

    def eigh_spy(m):
        edges.append(m.data)
        return eigh(m)

    def stacked_spy(blocks):
        stacks.append(blocks)
        return eigvals_stacked(blocks)

    monkeypatch.setattr(fockspace, "eigh", eigh_spy)
    monkeypatch.setattr(fockspace, "eigvals_stacked", stacked_spy)
    spectrum_vs_g1(1.0, 2.0, 0.7, grid, n_blocks, mode)
    assert len(edges) == 2 * len(grid) and len(stacks) == 2
    for c, parity in enumerate((+1, -1)):
        groups = closed_block_index_groups(parity, n_blocks)
        idx = np.array(groups[1:])
        chain = build_parity_chain(parity, chain_n_max_for_blocks(n_blocks))
        quads = stacks[c].reshape(len(grid), n_blocks, 4, 4)
        for k, g1 in enumerate(grid):
            d = design_resonant(1.0, 2.0, 0.7, g1)
            p = ModelParams(omega=1.0, delta1=d.delta1, delta2=2.0, g1=g1, g2=0.7)
            t = TrwaParams(lambda1=d.lambda1, lambda2=d.lambda2)
            h = build_effective_chain_matrix(p, t, chain, mode).data
            assert np.array_equal(edges[c * len(grid) + k], h[np.ix_(groups[0], groups[0])])
            assert np.array_equal(quads[k], h[idx[:, :, None], idx[:, None, :]])


@pytest.mark.parametrize("n_max", [20, 90])
@pytest.mark.parametrize("mode", [CoefficientMode.APPROX, CoefficientMode.EXACT])
@pytest.mark.parametrize("design", ["fig3", "generic"])
def test_certified_solve_on_chain_bands(design, mode, n_max):
    # chain rungs carry the double flip off their diagonal, which the count
    # must take into each Schur complement; n_max 20 fits in the first
    # leading block of eigvals_lowest, 90 does not
    p, t = fig3_design() if design == "fig3" else (GENERIC_P, GENERIC_T)
    rng = np.random.default_rng(n_max + 2 * (mode is CoefficientMode.EXACT))
    for parity in (+1, -1):
        rungs, couple = _chain_bands([p], [t], parity, n_max, mode)
        band = rungs[0], couple[0]
        chain = build_parity_chain(parity, n_max)
        vals = np.linalg.eigvalsh(build_effective_chain_matrix(p, t, chain, mode).data)
        shifts = np.concatenate([
            rng.uniform(vals[0] - 1.0, vals[20], 16),
            rng.uniform(vals[0] - 1.0, vals[-1] + 1.0, 16),
        ])
        expected = np.sum(vals[None, :] < shifts[:, None], axis=1)
        assert np.array_equal(inertia_count(*band, shifts), expected)
        np.testing.assert_allclose(eigvals_lowest(*band, 6), vals[:6], rtol=0, atol=1e-12)


@pytest.mark.parametrize("table", ["coeff_g0_table", "coeff_f1_table"])
def test_block_energies_reject_a_nonfinite_band(monkeypatch, table):
    p, t = fig3_design()
    original = getattr(fockspace, table)

    def poisoned(lam, n_max, mode):
        values = original(lam, n_max, mode).copy()
        values[1] = math.nan
        return values

    monkeypatch.setattr(fockspace, table, poisoned)
    for parity in (+1, -1):
        with pytest.raises(NonFiniteError):
            trwa_block_energies(p, t, parity, 8, CoefficientMode.EXACT)


def test_both_chains_of_a_point_share_one_set_of_coefficient_tables(monkeypatch):
    # four tables, one Laguerre recurrence each, for the two chains
    # together; each chain's levels are those of the chain solved alone
    p, t = fig3_design()
    separate = [trwa_block_energies(p, t, parity, 8, CoefficientMode.EXACT)
                for parity in (+1, -1)]
    calls = []
    for table in ("coeff_g0_table", "coeff_f1_table"):
        def counted(lam, n_max, mode, original=getattr(fockspace, table)):
            calls.append(n_max)
            return original(lam, n_max, mode)

        monkeypatch.setattr(fockspace, table, counted)
    levels = fockspace._stacked_levels([p], [t], 8, CoefficientMode.EXACT)
    assert calls == [17] * 4
    assert [chain[0].tolist() for chain in levels] == separate


@pytest.mark.parametrize("mode", [CoefficientMode.APPROX, CoefficientMode.EXACT])
def test_each_chain_of_the_stacked_solve_keeps_its_parity(mode):
    # the stacked solve returns each chain's levels, every point's row
    # those of trwa_block_energies; the merge and the sweep put every
    # level under the parity of the chain it came from
    grid = [0.3, 0.9, 1.2]
    designs = [design_resonant(1.0, 2.0, 0.7, g1) for g1 in grid]
    ps = [ModelParams(omega=1.0, delta1=d.delta1, delta2=2.0, g1=g1, g2=0.7)
          for d, g1 in zip(designs, grid)]
    ts = [TrwaParams(lambda1=d.lambda1, lambda2=d.lambda2) for d in designs]
    levels = fockspace._stacked_levels(ps, ts, 8, mode)
    for parity, chain in zip((+1, -1), levels):
        for p, t, row in zip(ps, ts, chain):
            want = np.array(trwa_block_energies(p, t, parity, 8, mode))
            assert row.tobytes() == want.tobytes()
    merged, tags = fockspace._merge_parities(*levels)
    table = spectrum_vs_g1(1.0, 2.0, 0.7, grid, n_blocks=8, mode=mode)
    for g1, row, row_tags, plus, minus in zip(grid, merged, tags, *levels):
        assert row[row_tags == "+"].tobytes() == plus.tobytes()
        assert row[row_tags == "-"].tobytes() == minus.tobytes()
        assert energies_at(table, g1) == list(zip(range(len(row)), row_tags, row.tolist()))


@pytest.mark.parametrize("shape", [(1, -1), (-1,)])
def test_merge_puts_the_plus_level_first_on_a_tie(shape):
    # 0.0 and -0.0 tie but print differently; rows of points or one row
    plus = np.array([-1.0, 0.0, 2.0]).reshape(shape)
    minus = np.array([-0.0, 1.0, 2.0]).reshape(shape)
    levels, tags = fockspace._merge_parities(plus, minus)
    assert levels.shape == tags.shape == (*shape[:-1], 6)
    assert np.signbit(levels).ravel().tolist() == [True, False, True, False, False, False]
    assert levels.ravel().tolist() == [-1.0, 0.0, 0.0, 1.0, 2.0, 2.0]
    assert tags.ravel().tolist() == ["+", "+", "-", "-", "+", "-"]


def test_an_integer_valued_block_count_is_taken_as_an_int():
    table = spectrum_vs_g1(1.0, 2.0, 0.7, [0.5, 0.9], n_blocks=3.0)
    assert type(table.n_blocks) is int
    assert table == spectrum_vs_g1(1.0, 2.0, 0.7, [0.5, 0.9], n_blocks=3)
    assert hash(table) == hash(spectrum_vs_g1(1.0, 2.0, 0.7, [0.5, 0.9], n_blocks=3))


def test_block_energies_allocate_no_dense_chain_matrix():
    # the dense 806 x 806 chain matrix alone is 5.2 MB
    p, t = fig3_design()
    trwa_block_energies(p, t, +1, 2, CoefficientMode.EXACT)  # warm caches
    tracemalloc.start()
    try:
        trwa_block_energies(p, t, +1, 200, CoefficientMode.EXACT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("mode, n_blocks", [
    (CoefficientMode.APPROX, 8), (CoefficientMode.EXACT, 8), (CoefficientMode.EXACT, 200),
])
def test_stacked_block_energies_match_per_block_eigh(mode, n_blocks):
    p, t = fig3_design()
    for parity in (+1, -1):
        chain = build_parity_chain(parity, chain_n_max_for_blocks(n_blocks))
        h = build_effective_chain_matrix(p, t, chain, mode)
        per_block = sorted(
            float(v)
            for group in closed_block_index_groups(parity, n_blocks)
            for v in eigh(h.submatrix(group)).values
        )
        got = trwa_block_energies(p, t, parity, n_blocks, mode)
        assert len(got) == len(per_block)
        assert np.max(np.abs(np.array(got) - per_block)) <= 1e-12


def test_block_leakage_at_the_fig3_design():
    p, t = fig3_design()
    for parity in (+1, -1):
        groups = closed_block_index_groups(parity, 8)
        chain = build_parity_chain(parity, chain_n_max_for_blocks(8))
        h = build_effective_chain_matrix(p, t, chain, CoefficientMode.APPROX)
        assert block_leakage(h, groups) <= 1e-15
    # exact mode keeps the photon-number dressing, so the chain does not
    # split into blocks: the dropped couplings grow with n
    groups = closed_block_index_groups(+1, 200)
    chain = build_parity_chain(+1, chain_n_max_for_blocks(200))
    h = build_effective_chain_matrix(p, t, chain, CoefficientMode.EXACT)
    assert block_leakage(h, groups) > 1.0


def test_block_leakage_counts_only_couplings_out_of_a_group():
    h = SymmetricMatrix(np.array([
        [1.0, 0.5, 0.0, 0.0],
        [0.5, 2.0, -0.25, 0.0],
        [0.0, -0.25, 3.0, 9.0],
        [0.0, 0.0, 9.0, 4.0],
    ]))
    assert block_leakage(h, [(0, 1)]) == 0.25
    assert block_leakage(h, [(0, 1), (2, 3)]) == 0.25
    assert block_leakage(h, [(0, 1, 2, 3)]) == 0.0
    # states past the last group are not coupled among themselves by the split
    assert block_leakage(h, [(0,)]) == 0.5
    with pytest.raises(ValueError, match="group 1 .* earlier group"):
        block_leakage(h, [(0, 1), (1, 2)])
    # an index outside [0, dim) must not wrap around or escape as
    # IndexError, and a repeat within a group would shrink it silently
    bad = ([(-1,)], [(0, -4)], [(1,), (0, 4)], [(7,)], [(0, 0)], [(0,), (2, 3, 2)])
    for groups in bad:
        last = len(groups) - 1
        with pytest.raises(ValueError, match=rf"group {last} .* distinct indices in \[0, 4\)"):
            block_leakage(h, groups)


def test_resonant_design_kills_odd_hops_in_approx_mode():
    # the two hop elements out of |n,-,+> vanish at the design point because
    # each reduces to sqrt(n+1) times the corresponding displacement residual
    p, t = fig3_design()
    chain = build_parity_chain(-1, 2)
    h = build_effective_chain_matrix(p, t, chain, CoefficientMode.APPROX)
    assert abs(h.entry(0, 2)) < 1e-12  # |0,-,+> -> |1,+,+>
    assert abs(h.entry(0, 3)) < 1e-12  # |0,-,+> -> |1,-,->


def test_block4_x_entry_formula():
    p, t = fig3_design()
    n = 2
    blk = build_block4(p, t, n, CoefficientMode.APPROX)
    expected = (p.g2 + t.lambda2 * p.omega) * math.sqrt(2 * n + 2) + p.delta2 * coeff_f1(
        t.lambda2, 2 * n + 1, CoefficientMode.APPROX
    )
    assert blk.x == pytest.approx(expected, rel=1e-14)


def test_block4_matches_chain_principal_submatrix():
    # bit for bit against the scalar reference, not the band it is cut from
    p, t = fig3_design()
    chain = build_parity_chain(+1, chain_n_max_for_blocks(6))
    for mode in CoefficientMode:
        full = reference_chain_matrix(p, t, chain, mode)
        for n in range(5):
            blk = build_block4(p, t, n, mode)
            idx = list(range(4 * n + 3, 4 * n + 7))
            sub = full[np.ix_(idx, idx)]
            assert np.array_equal(blk.matrix.data.view(np.uint64), sub.view(np.uint64))
            assert blk.matrix.labels == tuple(chain.labels()[i] for i in idx)
            assert blk.matrix.labels == tuple(s.ket() for s in blk.states)
    # the basis order Block4 documents, written out
    assert build_block4(p, t, 1).matrix.labels == ("|3,+,->", "|4,+,+>", "|4,-,->", "|5,-,+>")


def test_decoupled_limit_energies():
    p = ModelParams(omega=1.0, delta1=0.4, delta2=1.3, g1=0.0, g2=0.0)
    t = TrwaParams(lambda1=0.0, lambda2=0.0)
    for parity in (+1, -1):
        chain = build_parity_chain(parity, 4)
        vals = eigvals_sym(build_effective_chain_matrix(p, t, chain))
        expected = sorted(
            p.omega * s.n + s.s1 * p.delta1 + s.s2 * p.delta2 for s in chain.states
        )
        np.testing.assert_allclose(vals, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_blocks", [1, 2, 7, 200])
@pytest.mark.parametrize("parity", [+1, -1])
def test_block_level_count_is_the_size_of_the_tiling(parity, n_blocks):
    groups = closed_block_index_groups(parity, n_blocks)
    count = fockspace._block_level_count(parity, n_blocks)
    assert [i for g in groups for i in g] == list(range(count))


# True == 1, yet a bool is no more a parity than it is a count
@pytest.mark.parametrize("parity", ["+", "-", 0, 2, True, False, 1.5, np.True_])
def test_parity_must_be_plus_or_minus_one(parity):
    with pytest.raises(ValueError, match="parity must be"):
        build_parity_chain(parity, 2)
    with pytest.raises(ValueError, match="parity must be"):
        closed_block_index_groups(parity, 2)


@pytest.mark.parametrize("parity", [-1.0, 1.0, np.int64(-1)])
def test_an_integer_valued_parity_is_taken_as_an_int(parity):
    chain = build_parity_chain(parity, 2)
    assert type(chain.parity) is int and chain.parity == parity
    assert chain == build_parity_chain(int(parity), 2)


def test_closed_block_index_groups_layout():
    assert closed_block_index_groups(+1, 2) == [(0, 1, 2), (3, 4, 5, 6), (7, 8, 9, 10)]
    assert closed_block_index_groups(-1, 2) == [(0,), (1, 2, 3, 4), (5, 6, 7, 8)]
    assert chain_n_max_for_blocks(2) == 5
    with pytest.raises(ValueError):
        closed_block_index_groups(+1, 0)


def test_chain_truncation_is_the_last_photon_number_a_block_holds():
    for n_blocks in range(1, 51):
        last = max(max(g) for parity in (+1, -1)
                   for g in closed_block_index_groups(parity, n_blocks))
        assert chain_n_max_for_blocks(n_blocks) == last // 2, n_blocks


def test_block_count_is_capped_by_the_laguerre_degree_limit():
    # exact mode runs the Laguerre recurrence to the chain truncation
    cap = fockspace.MAX_N_BLOCKS
    assert cap == 4999
    assert chain_n_max_for_blocks(cap) <= LAGUERRE_MAX_DEGREE < chain_n_max_for_blocks(cap + 1)
    p, t = fig3_design()
    assert len(trwa_block_energies(p, t, -1, cap, CoefficientMode.EXACT)) == 1 + 4 * cap
    assert build_block4(p, t, cap - 1).n == cap - 1
    for n in (-1, cap):
        with pytest.raises(ValueError, match=r"block index must be in \[0, 4998\]"):
            build_block4(p, t, n)
    message = "n_blocks must be <= 4999, got 1000000000"
    for parity in (+1, -1):
        with pytest.raises(ValueError, match=message):
            closed_block_index_groups(parity, 10**9)
        for mode in CoefficientMode:
            with pytest.raises(ValueError, match=message):
                trwa_block_energies(p, t, parity, 10**9, mode)
    # g1 = 0 fails its design, so no point reaches the block tiling
    for grid in ([0.9], [0.0]):
        with pytest.raises(ValueError, match=message):
            spectrum_vs_g1(1.0, 2.0, 0.7, grid, n_blocks=10**9)


@pytest.mark.parametrize("n, message", [
    (1.5, "block index must be an integer, got 1.5"),
    (True, "block index: expected a number, got True"),
])
def test_block4_rejects_a_block_index_that_is_not_an_integer(n, message):
    p, t = fig3_design()
    with pytest.raises(ValueError) as exc:
        build_block4(p, t, n)
    assert str(exc.value) == message


def test_block4_takes_an_integer_valued_block_index_as_an_int():
    p, t = fig3_design()
    blk, ref = build_block4(p, t, 2.0), build_block4(p, t, 2)
    assert type(blk.n) is int and blk.n == 2
    assert blk.matrix.data.tobytes() == ref.matrix.data.tobytes() and blk.states == ref.states


def test_off_block_elements_vanish_at_design_in_approx_mode():
    p, t = fig3_design()
    for parity in (+1, -1):
        chain = build_parity_chain(parity, chain_n_max_for_blocks(5))
        h = np.asarray(build_effective_chain_matrix(p, t, chain, CoefficientMode.APPROX).data)
        member = {}
        for gi, grp in enumerate(closed_block_index_groups(parity, 5)):
            for idx in grp:
                member[idx] = gi
        # indices past the last complete block belong to the truncated
        # boundary window; they count as one group of their own
        worst = 0.0
        for i in range(h.shape[0]):
            for j in range(i + 1, h.shape[0]):
                if member.get(i, -1) != member.get(j, -1):
                    worst = max(worst, abs(h[i, j]))
        assert worst <= 1e-12
        groups = closed_block_index_groups(parity, 5)
        assert block_leakage(SymmetricMatrix(h), groups) == worst


def test_exact_mode_leakage_nonincreasing_as_g1_shrinks():
    leaks = []
    for g1 in (0.9, 0.45, 0.225, 0.1125):
        d = design_resonant(1.0, 2.0, 0.7, g1)
        p = ModelParams(omega=1.0, delta1=d.delta1, delta2=2.0, g1=g1, g2=0.7)
        t = TrwaParams(lambda1=d.lambda1, lambda2=d.lambda2)
        chain = build_parity_chain(+1, chain_n_max_for_blocks(4))
        h = np.asarray(build_effective_chain_matrix(p, t, chain, CoefficientMode.EXACT).data)
        member = {}
        for gi, grp in enumerate(closed_block_index_groups(+1, 4)):
            for idx in grp:
                member[idx] = gi
        worst = max(
            abs(h[i, j])
            for i in range(h.shape[0])
            for j in range(i + 1, h.shape[0])
            if member.get(i, -1) != member.get(j, -1)
        )
        leaks.append(worst)
    for a, b in zip(leaks, leaks[1:]):
        assert b <= a + 1e-12


def test_chain_matrix_is_exactly_hermitian():
    chain = build_parity_chain(+1, 5)
    h = np.asarray(
        build_effective_chain_matrix(GENERIC_P, GENERIC_T, chain, CoefficientMode.EXACT).data
    )
    assert np.array_equal(h, h.T)


def test_eigenvalues_invariant_under_basis_permutation():
    chain = build_parity_chain(-1, 5)
    h = build_effective_chain_matrix(GENERIC_P, GENERIC_T, chain, CoefficientMode.EXACT)
    rng = np.random.default_rng(42)
    perm = tuple(rng.permutation(h.dim))
    np.testing.assert_allclose(
        eigvals_sym(h.submatrix(perm)), eigvals_sym(h), rtol=0, atol=1e-10
    )


def test_block_ground_vector_matches_full_diagonalization_at_small_lambda():
    # at weak coupling the displaced-frame block eigenvector should line up
    # with the corresponding eigenvector of the undisplaced matrix
    d = design_resonant(1.0, 2.0, 0.1, 0.08)
    assert abs(d.lambda1) < 0.05 and abs(d.lambda2) < 0.05
    p = ModelParams(omega=1.0, delta1=d.delta1, delta2=2.0, g1=0.08, g2=0.1)
    t = TrwaParams(lambda1=d.lambda1, lambda2=d.lambda2)
    blk = build_block4(p, t, 0, CoefficientMode.APPROX)
    arr = np.asarray(blk.matrix.data)
    vals, vecs = np.linalg.eigh(arr)
    ground = vecs[:, 0]

    ref = build_rotated_rabi(p, 40)
    evals, evecs = np.linalg.eigh(np.asarray(ref.data))
    j = int(np.argmin(np.abs(evals - vals[0])))
    labels = list(ref.labels)
    restricted = evecs[[labels.index(s.ket()) for s in blk.states], j]

    # basis phases differ between the two constructions, so compare
    # magnitudes: dominant ket and total magnitude overlap
    assert int(np.argmax(np.abs(ground))) == int(np.argmax(np.abs(restricted)))
    overlap = float(np.sum(np.abs(ground) * np.abs(restricted)))
    assert overlap > 0.99


def table_rows(table):
    """The sweep's level rows as SpectrumRow records, in table order."""
    return tuple(fockspace.SpectrumRow(*cells) for block in table.blocks for cells in zip(*block))


def energies_at(table, g1):
    """(level index, parity tag, energy) of each level row of the point g1."""
    return [(r.level_index, r.parity, r.energy) for r in table_rows(table)
            if r.g1 == g1 and r.error is None]


def test_spectrum_vs_g1_rows_and_error_tokens():
    table = spectrum_vs_g1(1.0, 2.0, 0.7, [0.0, 0.45, 0.9], n_blocks=3)
    errors = [r for r in table_rows(table) if r.error is not None]
    assert len(errors) == 1 and errors[0].error == "DegenerateDesign"
    good = energies_at(table, 0.9)
    assert len(good) > 8
    levels = [e for _, _, e in good]
    assert levels == sorted(levels)
    assert all(math.isfinite(e) for e in levels)


@pytest.mark.parametrize("grid", [[0.9, 0.9], [0.9, 0.5], [0.5, 0.9, 0.7]])
def test_spectrum_vs_g1_rejects_a_grid_that_is_not_strictly_increasing(grid):
    # a repeated g1 used to give two rows per level index at one g1
    with pytest.raises(ValueError, match="g1_grid must be strictly increasing"):
        spectrum_vs_g1(1.0, 2.0, 0.7, grid, n_blocks=1)


def test_spectrum_vs_g1_rejects_a_negative_g1_entry():
    with pytest.raises(ValueError, match="g1_grid must be >= 0, got -0.5"):
        spectrum_vs_g1(1.0, 2.0, 0.7, [-0.5, 0.9], n_blocks=1)


def test_spectrum_row_to_dict_matches_asdict():
    rows = table_rows(spectrum_vs_g1(1.0, 2.0, 0.7, [0.0, 0.9], n_blocks=1))
    assert [r.to_dict() for r in rows] == [dataclasses.asdict(r) for r in rows]
    assert list(rows[0].to_dict()) == [f.name for f in dataclasses.fields(rows[0])]


def reference_spectrum_rows(omega, delta2, g2, g1_grid, n_blocks, mode):
    """The row-by-row builder that the columnar sweep replaced, kept as the
    reference its rows are checked against: one record per level, sorted
    as (energy, parity tag) pairs by a stable sort on the energy.  The
    levels come from the dense chain matrices, not from the stacked
    solve under test."""
    rows = []
    for g1 in g1_grid:
        try:
            des = design_resonant(omega, delta2, g2, g1)
        except (NoBracketError, SingularError, NonFiniteError, DegenerateDesignError) as exc:
            rows.append(fockspace.SpectrumRow(g1, None, None, None, "", None, None, None,
                                              error_token(exc)))
            continue
        if not des.physical:
            rows.append(fockspace.SpectrumRow(g1, des.delta1, des.lambda1, des.lambda2, "",
                                              None, None, None, "NonphysicalDesign"))
            continue
        p = ModelParams(omega=omega, delta1=des.delta1, delta2=delta2, g1=g1, g2=g2)
        t = TrwaParams(lambda1=des.lambda1, lambda2=des.lambda2)
        c0 = constant_offset(p, t)
        labeled = []
        for par, tag in ((1, "+"), (-1, "-")):
            energies = dense_route_block_energies(p, t, par, n_blocks, mode)
            labeled.extend((e, tag) for e in energies)
        labeled.sort(key=lambda pair: pair[0])
        for idx, (energy, tag) in enumerate(labeled):
            rows.append(fockspace.SpectrumRow(g1, des.delta1, des.lambda1, des.lambda2, tag, idx,
                                              energy, c0))
    return tuple(rows)


@pytest.mark.parametrize("omega, delta2, g2, grid, n_blocks, mode", [
    (1.0, 2.0, 0.7, [0.0, 0.45, 0.9], 3, CoefficientMode.APPROX),  # a DegenerateDesign point
    (1.0, 0.2, 0.5, [0.3], 3, CoefficientMode.APPROX),  # a NonphysicalDesign point
    (1.0, 2.0, 0.7, [0.0, 0.45, 0.9], 20, CoefficientMode.EXACT),
    (1.0, 2.0, 0.7, [0.1, 0.35, 0.6, 0.85, 1.1], 8, CoefficientMode.APPROX),
])
def test_table_rows_equal_the_row_by_row_reference(omega, delta2, g2, grid, n_blocks, mode):
    table = spectrum_vs_g1(omega, delta2, g2, grid, n_blocks, mode)
    expected = reference_spectrum_rows(omega, delta2, g2, grid, n_blocks, mode)
    rows = table_rows(table)
    assert rows == expected
    assert repr(rows) == repr(expected)  # == alone lets -0.0 pass for 0.0
    assert all(len(block) == len(fockspace.SPECTRUM_FIELDS)
               and len({len(column) for column in block}) == 1 for block in table.blocks)


def test_tied_levels_put_the_plus_chain_first(monkeypatch):
    # the stacked solve of the + chain returns the same 200 levels at every
    # point, that of the - chain 100 of them, each value repeated: every
    # level ties one of the other chain, in rows long enough that an
    # unstable sort moves ties
    levels = {+1: sorted(float(k % 7) for k in range(200)),
              -1: sorted(float(k % 7) for k in range(100))}

    def planted(rungs, couple, parity, n_blocks):
        return np.tile(levels[parity], (len(rungs), 1))

    monkeypatch.setattr(fockspace, "_chain_levels", planted)
    grid = [0.5, 0.9]
    table = spectrum_vs_g1(1.0, 2.0, 0.7, grid, n_blocks=1)
    for g1 in grid:
        rows = energies_at(table, g1)
        assert [i for i, _, _ in rows] == list(range(300))
        assert [e for _, _, e in rows] == sorted(levels[+1] + levels[-1])
        for value in set(levels[+1]):
            run = [tag for _, tag, e in rows if e == value]
            assert run == (["+"] * levels[+1].count(value)
                           + ["-"] * levels[-1].count(value)), value


def test_a_sweep_solves_all_points_in_one_stacked_call_per_parity(monkeypatch):
    # solving point by point made 24 calls for these 12 points
    sizes = []

    def spy(blocks):
        sizes.append(blocks.shape)
        return eigvals_stacked(blocks)

    monkeypatch.setattr(fockspace, "eigvals_stacked", spy)
    grid = [0.1 + 0.1 * k for k in range(12)]
    table = spectrum_vs_g1(1.0, 2.0, 0.7, grid, n_blocks=8)
    assert sizes == [(12 * 8, 4, 4)] * 2
    assert all(r.error is None for r in table_rows(table))


def test_spectrum_vs_g1_nonphysical_design_row():
    # small delta2 drives the derived delta1 negative at this coupling
    table = spectrum_vs_g1(1.0, 0.2, 0.5, [0.3], n_blocks=3)
    assert [r.error for r in table_rows(table)] == ["NonphysicalDesign"]


def test_spectrum_levels_continuous_on_fine_grid():
    grid = [round(0.5 + 0.02 * i, 10) for i in range(21)]
    table = spectrum_vs_g1(1.0, 2.0, 0.7, grid, n_blocks=4)
    n_levels = 8
    per_level = {lev: [] for lev in range(n_levels)}
    for g1 in grid:
        energies = [e for _, _, e in energies_at(table, g1)][:n_levels]
        for lev, e in enumerate(energies):
            per_level[lev].append(e)
    for lev, series in per_level.items():
        jumps = [abs(b - a) for a, b in zip(series, series[1:])]
        for i in range(1, len(jumps)):
            assert jumps[i] <= 10.0 * jumps[i - 1] + 1e-9, (lev, i)


def test_coefficient_tables_are_built_once_per_distinct_displacement(monkeypatch):
    # lambda2 is one float at every point of a sweep, and the last point
    # repeats the first's lambda1: 2 recurrences (G0 and F1) per distinct
    # displacement, and every table bit-equal to its per-point build
    calls = []
    laguerre = fockspace_model.laguerre_table

    def counted(n_max, k, x):
        calls.append((k, x))
        return laguerre(n_max, k, x)

    monkeypatch.setattr(fockspace_model, "laguerre_table", counted)
    ts = [TrwaParams(lambda1=lam1, lambda2=0.29797713043845475)
          for lam1 in (-0.1, -0.2, -0.3, -0.1)]
    n_max, mode = 41, CoefficientMode.EXACT
    tables = fockspace._chain_tables(ts, n_max, mode)
    assert len(calls) == 2 * 4
    monkeypatch.setattr(fockspace_model, "laguerre_table", laguerre)
    per_point = [
        [fockspace_model.coeff_g0_table(t.lambda1, n_max, mode) for t in ts],
        [fockspace_model.coeff_g0_table(t.lambda2, n_max, mode) for t in ts],
        [fockspace_model.coeff_f1_table(t.lambda1, n_max, mode) for t in ts],
        [fockspace_model.coeff_f1_table(t.lambda2, n_max, mode) for t in ts],
    ]
    for table, expected in zip(tables, per_point, strict=True):
        assert table.shape == (len(ts), n_max + 1)
        assert table.tobytes() == np.array(expected).tobytes()


def test_signed_zero_displacements_get_their_own_tables():
    ts = [TrwaParams(lambda1=0.0, lambda2=0.1), TrwaParams(lambda1=-0.0, lambda2=0.1)]
    f1_1 = fockspace._chain_tables(ts, 3, CoefficientMode.APPROX)[2]
    assert [math.copysign(1.0, row[1]) for row in f1_1] == [1.0, -1.0]


def _counted_solves(monkeypatch):
    calls = []
    solve = fockspace.solve_lambda2

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(fockspace, "solve_lambda2", counted)
    return calls


@pytest.mark.parametrize("omega, delta2, g2, token", [
    (1.0, 2.0, 0.7, None),
    (1.0, 2.0, 3.0, "Singular"),
    (1.0, 0.2, 2.0, "NoBracket"),
])
def test_the_sweep_solves_lambda2_once(monkeypatch, omega, delta2, g2, token):
    # a g1 = 0 point is degenerate before lambda2 is read; the first g1 > 0
    # point solves it, and every later point reads its value or its error
    calls = _counted_solves(monkeypatch)
    grid = [0.0, 0.3, 0.6, 0.9]
    table = spectrum_vs_g1(omega, delta2, g2, grid, n_blocks=2)
    assert calls == [(omega, delta2, g2)]
    assert table_rows(table) == reference_spectrum_rows(omega, delta2, g2, grid, 2,
                                                        CoefficientMode.APPROX)
    errors = [block[-1][0] for block in table.blocks]
    assert errors == ["DegenerateDesign"] + [token] * 3


def test_a_grid_of_zeros_never_solves_lambda2(monkeypatch):
    calls = _counted_solves(monkeypatch)
    table = spectrum_vs_g1(1.0, 2.0, 3.0, [0.0], n_blocks=2)
    assert calls == []
    assert [r.error for r in table_rows(table)] == ["DegenerateDesign"]


def test_design_reads_its_lambda2_solver_only_past_g1_zero():
    from rabi_spectra.resonance import _design

    calls = []

    def lambda2():
        calls.append(None)
        return 0.29797713043845475

    with pytest.raises(DegenerateDesignError):
        _design(1.0, 2.0, 0.7, 0.0, lambda2)
    assert calls == []
    assert _design(1.0, 2.0, 0.7, 0.9, lambda2) == design_resonant(1.0, 2.0, 0.7, 0.9)
    assert len(calls) == 1


@pytest.mark.parametrize("omega, delta2, g2", [(1.0, 2.0, 3.0), (1.0, 0.2, 2.0)])
def test_a_replayed_lambda2_error_holds_the_frames_of_one_call(omega, delta2, g2):
    # each raise of the one held error carries the traceback of its own
    # call, so a long grid of failed points keeps no more frames than one
    replay = fockspace._replayed(functools.partial(solve_lambda2, omega, delta2, g2))
    depths = []
    for _ in range(4):
        try:
            replay()
        except (SingularError, NoBracketError) as exc:
            depths.append(len(traceback.extract_tb(exc.__traceback__)))
    assert depths == [2] * 4  # this frame and replay's


def test_a_point_block_shares_its_parameter_cells():
    from rabi_spectra.serialize import Repeat

    table = spectrum_vs_g1(1.0, 2.0, 0.7, [0.0, 0.45], n_blocks=2)
    failed, solved = table.blocks
    assert all(len(column) == 1 for column in failed)
    shared = [k for k, column in enumerate(solved) if type(column) is Repeat]
    at = fockspace.SPECTRUM_FIELDS.index
    assert shared == [at(name) for name in ("g1", "delta1", "lambda1", "lambda2",
                                            "offset", "error")]
    n = len(solved[0])
    assert n == (3 + 4 * 2) + (1 + 4 * 2)  # each chain's boundary group and 2 blocks

