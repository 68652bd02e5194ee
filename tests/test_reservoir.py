"""Two-mode effective treatment: gated coefficients, chain windows, dark
states, and the six-state subspace reports."""

import dataclasses
import math
import re
import time

import numpy as np
import pytest

from rabi_spectra import (
    AsymmetricParamsError,
    CoefficientMode,
    ReservoirChainState,
    ReservoirParams,
    SingularDenominatorError,
    SingularEtaError,
    build_h_2w1_2w,
    build_reservoir_chain,
    build_reservoir_matrix,
    coeff_g0,
    compute_K,
    dark_state_energy,
    dark_state_residual,
    eq24_vector,
    quasi_exact_subspace,
    reservoir_constant,
    verify_eq24,
)
from rabi_spectra.reservoir import check_seed

SYM = ReservoirParams(
    omega=1.0, omega1=0.8, v=0.2, g1=0.3, g2=0.3,
    g1p=0.2, g2p=0.2, delta1=1.0, delta2=1.0,
)
ASYM = ReservoirParams(
    omega=1.0, omega1=0.8, v=0.25, g1=0.3, g2=0.45,
    g1p=0.15, g2p=0.2, delta1=0.9, delta2=1.3,
)


def test_compute_k_zero_coupling():
    r = dataclasses.replace(SYM, g1=0.0, g2=0.0)
    c = compute_K(r)
    assert c.k1 == 0.0 and c.k2 == 0.0
    assert c.lambda1 == 0.0 and c.lambda2 == 0.0


def test_compute_k_symmetry_is_bitwise():
    c = compute_K(SYM)
    assert c.k1 == c.k2
    assert c.eta1 == c.eta2
    assert c.lambda1 == c.lambda2


def test_compute_k_hand_transcription():
    # written out once more from scratch at omega=1, delta=2, g=0.3
    c = compute_K(dataclasses.replace(SYM, delta1=2.0, delta2=2.0))
    eta = 2 * 2.0 * math.exp(-((0.3 / (1.0 - 2 * 2.0)) ** 2))
    mu = 0.3 / (1.0 - eta)
    k = 0.3 - mu * 1.0 - 2 * 2.0 * mu * math.exp(-2 * mu * mu)
    assert c.eta1 == pytest.approx(eta, rel=1e-15)
    assert c.k1 == pytest.approx(k, rel=1e-14)
    assert c.lambda1 == pytest.approx(-mu, rel=1e-15)
    # and the frozen numbers, so a silent formula change cannot hide
    assert c.eta1 == pytest.approx(3.9601993349966724, abs=1e-14)
    assert c.k1 == pytest.approx(0.7984805302497873, abs=1e-14)


def test_compute_k_singular_eta():
    with pytest.raises(SingularEtaError):
        compute_K(dataclasses.replace(SYM, delta1=0.5, delta2=0.5))


def test_compute_k_singular_denominator():
    g = math.sqrt(math.log(1.5)) / 2.0  # tuned so eta == omega
    with pytest.raises(SingularDenominatorError):
        compute_K(
            dataclasses.replace(SYM, g1=g, g2=g, delta1=0.75, delta2=0.75)
        )


def test_chain_seed_window():
    chain = build_reservoir_chain(0, 0, 1)
    assert [s.ket() for s in chain] == [
        "|0,0,+,->", "|0,0,-,+>", "|1,0,-,->", "|0,1,+,+>",
    ]


def test_chain_six_state_window():
    chain = build_reservoir_chain(1, 1, 1)
    assert [s.ket() for s in chain] == [
        "|1,0,-,->", "|0,1,+,+>", "|1,1,+,->", "|1,1,-,+>", "|2,1,-,->", "|1,2,+,+>",
    ]
    assert [s.m + s.n - 2 for s in chain] == [-1, -1, 0, 0, 1, 1]


def test_chain_parity_is_uniform():
    for seed in ((0, 0), (1, 1), (2, 2), (3, 1)):
        chain = build_reservoir_chain(seed[0], seed[1], 2)
        parities = {s.parity for s in chain}
        assert len(parities) == 1


def test_chain_rejects_odd_seed():
    with pytest.raises(ValueError):
        build_reservoir_chain(1, 0, 1)


@pytest.mark.parametrize("m, n", [(-1, 1), (2, -2), (1, 0)])
def test_chain_and_matrix_check_the_seed_with_one_rule(m, n):
    with pytest.raises(ValueError) as chain_error:
        build_reservoir_chain(m, n, 1)
    with pytest.raises(ValueError) as seed_error:
        check_seed(m, n)
    with pytest.raises(ValueError) as matrix_error:
        build_reservoir_matrix(ASYM, build_reservoir_chain(2, 2, 1), seed=(m, n))
    assert str(chain_error.value) == str(seed_error.value) == str(matrix_error.value)


@pytest.mark.parametrize("m, n, depth, message", [
    (1.5, 0.5, 1, "m must be an integer, got 1.5"),
    (0, 2.5, 1, "n must be an integer, got 2.5"),
    (True, 1, 1, "m: expected a number, got True"),
    (2, 2, 1.5, "depth must be an integer, got 1.5"),
    (2, 2, True, "depth: expected a number, got True"),
])
def test_chain_seeds_and_depths_must_be_integers(m, n, depth, message):
    with pytest.raises(ValueError) as exc:
        build_reservoir_chain(m, n, depth)
    assert str(exc.value) == message
    if not message.startswith("depth"):
        for call in (lambda: check_seed(m, n), lambda: dark_state_residual(SYM, m, n),
                     lambda: quasi_exact_subspace(SYM, m, n),
                     lambda: build_reservoir_matrix(SYM, build_reservoir_chain(2, 2, 1),
                                                    seed=(m, n))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


def test_integer_valued_seeds_and_depths_are_taken_as_ints():
    chain = build_reservoir_chain(2.0, 2, 1.0)
    assert chain == build_reservoir_chain(2, 2, 1)
    assert all(type(x) is int for s in chain for x in (s.m, s.n))
    assert check_seed(2.0, 0.0) == (2, 0)
    assert dark_state_residual(SYM, 2.0, 0.0) == dark_state_residual(SYM, 2, 0) == 0.0


def test_pseudomode_hop_element():
    chain = build_reservoir_chain(1, 1, 1)
    c = compute_K(ASYM)
    h = build_reservoir_matrix(ASYM, chain, c)
    labels = list(h.labels)
    i = labels.index("|1,1,+,->")
    j = labels.index("|2,1,-,->")
    assert h.entry(i, j) == pytest.approx(ASYM.g1p * math.sqrt(2.0), rel=1e-15)


def test_window_matrix_matches_hand_transcription():
    """Six-state window around (1,1), fully written out."""
    r = ASYM
    c = compute_K(r)
    chain = build_reservoir_chain(1, 1, 1)
    h = np.asarray(build_reservoir_matrix(r, chain, c).data)

    m, n = 1, 1
    c0 = (
        c.lambda1**2 * r.omega + c.lambda2**2 * r.omega
        + 2 * c.lambda1 * r.g1 + 2 * c.lambda2 * r.g2
    )
    e1 = math.exp(-2 * c.lambda1**2)
    e2 = math.exp(-2 * c.lambda2**2)

    def diag(mm, nn, s1, s2):
        return (
            r.omega * nn + r.omega1 * mm + c0
            + s1 * r.delta1 * e1 + s2 * r.delta2 * e2
        )

    lit = np.zeros((6, 6))
    lit[0, 0] = diag(m, n - 1, -1, -1)
    lit[1, 1] = diag(m - 1, n, +1, +1)
    lit[2, 2] = diag(m, n, +1, -1)
    lit[3, 3] = diag(m, n, -1, +1)
    lit[4, 4] = diag(m + 1, n, -1, -1)
    lit[5, 5] = diag(m, n + 1, +1, +1)
    lit[0, 2] = math.sqrt(n) * c.k1
    lit[0, 3] = math.sqrt(n) * c.k2
    lit[1, 2] = r.g2p * math.sqrt(m)
    lit[1, 3] = r.g1p * math.sqrt(m)
    lit[2, 4] = r.g1p * math.sqrt(m + 1)
    lit[2, 5] = math.sqrt(n + 1) * c.k2
    lit[3, 4] = r.g2p * math.sqrt(m + 1)
    lit[3, 5] = math.sqrt(n + 1) * c.k1
    lit = np.triu(lit) + np.triu(lit, 1).T
    assert np.max(np.abs(h - lit)) <= 1e-12


def test_deep_band_off_diagonals_match_hand_transcription():
    """Ten-state band seeded at (2,2); the two deepest shells take the bare
    cavity couplings in the verbatim variant."""
    r = ASYM
    c = compute_K(r)
    chain = build_reservoir_chain(2, 2, 3)
    assert len(chain) == 10
    h = np.asarray(build_reservoir_matrix(r, chain, c, seed=(2, 2)).data)

    m, n = 2, 2
    lit = np.zeros((10, 10))
    lit[0, 2] = math.sqrt(n) * c.k1
    lit[0, 3] = math.sqrt(n) * c.k2
    lit[1, 2] = r.g2p * math.sqrt(m)
    lit[1, 3] = r.g1p * math.sqrt(m)
    lit[2, 4] = r.g1p * math.sqrt(m + 1)
    lit[2, 5] = math.sqrt(n + 1) * c.k2
    lit[3, 4] = r.g2p * math.sqrt(m + 1)
    lit[3, 5] = math.sqrt(n + 1) * c.k1
    lit[4, 6] = math.sqrt(n + 1) * c.k1
    lit[4, 7] = math.sqrt(n + 1) * c.k2
    lit[5, 6] = math.sqrt(m + 1) * r.g2
    lit[5, 7] = math.sqrt(m + 1) * r.g1
    lit[6, 8] = math.sqrt(m + 2) * r.g1
    lit[6, 9] = math.sqrt(n + 2) * c.k2
    lit[7, 8] = math.sqrt(m + 2) * r.g2
    lit[7, 9] = math.sqrt(n + 2) * c.k1
    lit = lit + np.triu(lit, 1).T
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off - lit)) <= 1e-12
    # shell partners never couple directly
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)):
        assert h[i, j] == 0.0
    # and neither do states two or more shells apart
    rung = [s.m + s.n for s in chain]
    for i in range(10):
        for j in range(i + 1, 10):
            if abs(rung[j] - rung[i]) >= 2:
                assert h[i, j] == 0.0


def test_deep_band_primed_by_default():
    r = ASYM
    c = compute_K(r)
    chain = build_reservoir_chain(2, 2, 3)
    h = np.asarray(build_reservoir_matrix(r, chain, c).data)
    # same entries as above but with primed pseudomode couplings throughout
    assert h[5, 6] == pytest.approx(math.sqrt(3.0) * r.g2p, rel=1e-15)
    assert h[6, 8] == pytest.approx(2.0 * r.g1p, rel=1e-15)


def _reference_pair(r, coeffs, a, b, unprimed_g=False):
    """Off-diagonal element between two distinct states by the selection
    rules, written pair by pair (0 when unlinked)."""
    dm = b.m - a.m
    dn = b.n - a.n
    flip1 = a.s1 != b.s1
    flip2 = a.s2 != b.s2
    if flip1 == flip2:
        return 0.0
    if dm == 0 and abs(dn) == 1:
        lo, hi = (a, b) if dn == 1 else (b, a)
        # photon coupling: the flipped spin must be raised with n
        if flip1 and lo.s1 == -1 and hi.s1 == 1:
            return coeffs.k1 * math.sqrt(hi.n)
        if flip2 and lo.s2 == -1 and hi.s2 == 1:
            return coeffs.k2 * math.sqrt(hi.n)
        return 0.0
    if dn == 0 and abs(dm) == 1:
        lo, hi = (a, b) if dm == 1 else (b, a)
        # pseudomode coupling: the flipped spin must be lowered with m
        if flip1 and lo.s1 == 1 and hi.s1 == -1:
            return (r.g1 if unprimed_g else r.g1p) * math.sqrt(hi.m)
        if flip2 and lo.s2 == 1 and hi.s2 == -1:
            return (r.g2 if unprimed_g else r.g2p) * math.sqrt(hi.m)
        return 0.0
    return 0.0


def _reference_matrix(r, coeffs, states, seed=None):
    """The reservoir matrix state by state and pair by pair; with seed
    (m0, n0), pseudomode hops into shells >= 2 above it take the bare g_i."""
    c0 = reservoir_constant(r, coeffs)
    dim = len(states)
    arr = np.zeros((dim, dim))
    for i, si in enumerate(states):
        spin = (
            si.s1 * r.delta1 * coeff_g0(coeffs.lambda1, si.n, CoefficientMode.APPROX)
            + si.s2 * r.delta2 * coeff_g0(coeffs.lambda2, si.n, CoefficientMode.APPROX)
        )
        arr[i, i] = r.omega * si.n + r.omega1 * si.m + c0 + spin
        for j in range(i + 1, dim):
            sj = states[j]
            unprimed = (
                seed is not None and sj.m != si.m
                and max(si.m + si.n, sj.m + sj.n) - sum(seed) >= 2
            )
            arr[i, j] = arr[j, i] = _reference_pair(r, coeffs, si, sj, unprimed)
    return arr


def _random_params(rng):
    while True:
        g, d, gp = rng.uniform(0.0, 1.2, 2), rng.uniform(0.0, 2.5, 2), rng.uniform(0.0, 1.0, 2)
        r = ReservoirParams(
            omega=rng.uniform(0.3, 2.0), omega1=rng.uniform(0.3, 2.0), v=rng.uniform(0.0, 0.5),
            g1=g[0], g2=g[1], g1p=gp[0], g2p=gp[1], delta1=d[0], delta2=d[1],
        )
        try:
            compute_K(r)
        except ArithmeticError:
            continue
        return r


_REFERENCE_PARAMS = {"sym": SYM, "asym": ASYM}
_REFERENCE_PARAMS.update(
    (f"random{k}", _random_params(np.random.default_rng(k))) for k in range(6)
)


@pytest.mark.parametrize("name", sorted(_REFERENCE_PARAMS))
def test_band_matrix_equals_the_pair_formula_reference(name):
    r = _REFERENCE_PARAMS[name]
    c = compute_K(r)
    rng = np.random.default_rng(list(_REFERENCE_PARAMS).index(name))
    seeds = [(m0, n0) for m0 in range(5) for n0 in range(5) if (m0 + n0) % 2 == 0]
    for m0, n0 in seeds:
        for depth in (1, 2, 3, 5):
            states = build_reservoir_chain(m0, n0, depth)
            # any subset of a chain, in any order, has the elements it has
            # inside the whole chain, with or without the bare-coupling seed
            pick = rng.permutation(len(states))[:rng.integers(1, len(states) + 1)]
            sub = [states[i] for i in pick]
            for seed in (None, (m0, n0)):
                for part in (states, states[::-1], sub):
                    h = build_reservoir_matrix(r, part, c, seed=seed)
                    ref = _reference_matrix(r, c, part, seed)
                    assert np.array_equal(h.data, ref), (m0, n0, depth, seed)
                    assert h.labels == tuple(s.ket() for s in part)


def test_band_matrix_rejects_states_on_two_chains():
    # seeds (0, 0) and (2, 0) lie on chains c = 0 and c = 2; a pair loop
    # would have returned a block-diagonal matrix
    states = build_reservoir_chain(0, 0, 1) + build_reservoir_chain(2, 0, 1)
    with pytest.raises(ValueError, match=r"one chain, got chains \[0, 2\]"):
        build_reservoir_matrix(SYM, states)
    with pytest.raises(ValueError, match="duplicate"):
        build_reservoir_matrix(SYM, [ReservoirChainState(1, 1, 1, -1)] * 2)
    # the bare-coupling seed must be the singlet pair of the states' chain
    with pytest.raises(ValueError, match=r"seed \(4, 0\) lies on chain 4, the states on chain 0"):
        build_reservoir_matrix(SYM, build_reservoir_chain(2, 2, 1), seed=(4, 0))


def test_all_couplings_zero_gives_diagonal_matrix():
    r = dataclasses.replace(SYM, g1=0.0, g2=0.0, g1p=0.0, g2p=0.0)
    chain = build_reservoir_chain(1, 1, 2)
    h = np.asarray(build_reservoir_matrix(r, chain).data)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_reservoir_constant_hand_value():
    c = compute_K(SYM)
    ref = (
        c.lambda1**2 * SYM.omega + c.lambda2**2 * SYM.omega
        + 2 * c.lambda1 * SYM.g1 + 2 * c.lambda2 * SYM.g2
    )
    assert reservoir_constant(SYM, c) == pytest.approx(ref, rel=1e-15)


def test_dark_state_residual_symmetric_cases():
    for m, n in ((0, 0), (3, 1), (2, 2), (4, 4)):
        assert dark_state_residual(SYM, m, n) <= 1e-12


def test_dark_state_residual_is_exactly_zero():
    # the builder groups the two spin terms before adding mode energies, so
    # the +-/-+ cancellation survives floating point with no residue at all
    assert dark_state_residual(SYM, 4, 4) == 0.0


def test_dark_state_energy_value():
    c = compute_K(SYM)
    expected = SYM.omega1 * 3 + SYM.omega * 1 + reservoir_constant(SYM, c)
    assert dark_state_energy(SYM, c, 3, 1) == pytest.approx(expected, rel=1e-15)


def test_dark_state_rejects_odd_window():
    with pytest.raises(ValueError):
        dark_state_residual(SYM, 1, 0)


def test_dark_state_asymmetric_params():
    skew = dataclasses.replace(SYM, g1p=0.25, g2p=0.1)
    with pytest.raises(AsymmetricParamsError, match="pass require_symmetric=False"):
        dark_state_residual(skew, 0, 0)
    # with the guard off, the leak is the singlet projection of the two
    # pseudomode channels: |g1'-g2'| * sqrt((2m+1)/2)
    for m, n in ((0, 0), (2, 0), (3, 1)):
        res = dark_state_residual(skew, m, n, require_symmetric=False)
        assert res == pytest.approx(
            abs(skew.g1p - skew.g2p) * math.sqrt((2 * m + 1) / 2.0), rel=1e-12
        )
        assert res > 0.0


def test_quasi_exact_subspace_one_one():
    mat, rep = quasi_exact_subspace(SYM, 1, 1)
    d = rep.to_dict()
    assert d["data"]["dim"] == 6
    c = compute_K(SYM)
    target = SYM.omega1 + SYM.omega + reservoir_constant(SYM, c)
    assert d["data"]["e_target"] == pytest.approx(target, rel=1e-14)
    assert d["residuals"]["eigenvalue_gap"] <= 1e-12
    assert d["residuals"]["dark_state_residual"] <= 1e-12
    assert d["residuals"]["closure_pseudomode"] == 0.0
    assert d["residuals"]["closure_photon"] == 0.0
    assert any("2(m+n-1)" in note for note in d["notes"])


def test_quasi_exact_subspace_two_two():
    mat, rep = quasi_exact_subspace(SYM, 2, 2)
    d = rep.to_dict()
    assert d["data"]["dim"] == 10
    c = compute_K(SYM)
    target = 2 * SYM.omega1 + 2 * SYM.omega + reservoir_constant(SYM, c)
    assert d["data"]["e_target"] == pytest.approx(target, rel=1e-14)
    assert d["residuals"]["eigenvalue_gap"] <= 1e-12 * max(1.0, abs(target))


def test_quasi_exact_subspace_broken_closure_quantified():
    skew = dataclasses.replace(SYM, g1p=0.25, g2p=0.1)
    _, rep = quasi_exact_subspace(skew, 1, 1)
    d = rep.to_dict()
    assert d["residuals"]["closure_pseudomode"] == pytest.approx(
        abs(0.25 - 0.1) / math.sqrt(2.0), rel=1e-14
    )
    assert any("asymmetric" in note for note in d["notes"])


def test_six_state_matrix_entries():
    h = build_h_2w1_2w(SYM, k_value=0.1)
    om, om1, gp, k = SYM.omega, SYM.omega1, SYM.g1p, 0.1
    assert h.entry(0, 2) == gp
    assert h.entry(0, 3) == k
    assert h.entry(1, 2) == gp
    assert h.entry(1, 3) == k
    assert h.entry(2, 4) == k
    assert h.entry(2, 5) == k
    assert h.entry(3, 4) == gp
    assert h.entry(3, 5) == gp
    diag = [h.entry(i, i) for i in range(6)]
    assert diag == [0.0, 0.0, om1 + om, om1 + om, 2 * om1 + 2 * om, 2 * om1 + 2 * om]
    arr = np.asarray(h.data)
    assert np.array_equal(arr, arr.T)


def test_six_state_matrix_zero_couplings_diagonal():
    r = dataclasses.replace(SYM, g1p=0.0, g2p=0.0)
    h = np.asarray(build_h_2w1_2w(r, k_value=0.0).data)
    np.testing.assert_array_equal(h, np.diag([0.0, 0.0, 1.8, 1.8, 3.6, 3.6]))


def test_eq24_vector_patterns():
    v, notes = eq24_vector(1.0, 0.8, 0.2, 0.1)
    assert notes == []
    assert v[0] == v[1]
    assert math.isfinite(v[0])
    assert v[2] == pytest.approx(-0.2 / 0.1, rel=1e-14)
    assert list(v[3:]) == [1.0, 1.0, -1.0]

    v0, notes0 = eq24_vector(1.0, 0.8, 0.0, 0.0)
    assert list(v0) == [0.0, 0.0, 0.0, 1.0, 1.0, -1.0]
    assert len(notes0) == 1

    v1, notes1 = eq24_vector(1.0, 0.8, 0.2, 0.0)
    assert not np.isfinite(v1[:3]).any()
    assert any("singular" in n for n in notes1)


def test_verify_eq24_report():
    t0 = time.perf_counter()
    rep = verify_eq24(SYM, k_value=0.1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    d = rep.to_dict()
    # frozen from an independent eigh run on the six-state matrix
    assert d["residuals"]["eigen_residual"] == pytest.approx(3.539980394868292, abs=1e-9)
    assert d["residuals"]["best_overlap"] == pytest.approx(0.9600368048822742, abs=1e-9)
    assert d["eigenvalues"][4] == pytest.approx(3.6, abs=1e-12)
    assert len(d["eigenvalues"]) == 6
    # the candidate vector is not an eigenvector here, and the comparison
    # against the chain generator flags exactly the four diagonal entries
    # of the middle and top shells
    mism = {(e["i"], e["j"]) for e in d["entry_mismatches"]}
    assert mism == {(2, 2), (3, 3), (4, 4), (5, 5)}
    by_pos = {(e["i"], e["j"]): e for e in d["entry_mismatches"]}
    assert by_pos[(4, 4)]["verbatim"] == pytest.approx(3.6, abs=1e-14)
    assert by_pos[(4, 4)]["generated"] == pytest.approx(1.8, abs=1e-14)


def test_params_validation_and_symmetry_flag():
    with pytest.raises(ValueError):
        dataclasses.replace(SYM, omega1=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(SYM, v=-0.1)
    assert SYM.symmetric
    assert not ASYM.symmetric


def test_record_to_dict_equals_asdict_in_field_order():
    coeffs = compute_K(SYM)
    assert list(coeffs.to_dict().items()) == list(dataclasses.asdict(coeffs).items())
    mismatches = verify_eq24(SYM, k_value=0.1).entry_mismatches
    assert mismatches
    for m in mismatches:
        assert list(m.to_dict().items()) == list(dataclasses.asdict(m).items())


@pytest.mark.parametrize("m, n, message", [
    (1.5, 0, "m must be an integer, got 1.5"),
    (0, True, "n: expected a number, got True"),
    (-1, 0, "mode indices must be nonnegative, got (-1, 0)"),
    (1, -2, "mode indices must be nonnegative, got (1, -2)"),
])
def test_mode_numbers_must_be_integers(m, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ReservoirChainState(m, n, 1, -1)


def test_an_integer_valued_mode_number_is_taken_as_an_int():
    state = ReservoirChainState(2.0, 1.0, 1, -1)
    assert (type(state.m), type(state.n)) == (int, int)
    assert state.ket() == "|2,1,+,->"
