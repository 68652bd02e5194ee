"""Brute-force diagonalization cross-checks for the effective treatment."""

import dataclasses
import math
import re

import numpy as np
import pytest

from rabi_spectra import (
    CoefficientMode,
    ModelParams,
    ReservoirParams,
    SymmetricMatrix,
    TrwaParams,
    build_full_pseudomode,
    build_full_rabi,
    build_parity_sector,
    build_rotated_rabi,
    compare_trwa_exact,
    design_resonant,
    eigvals_sym,
    exact_spectrum,
    spectrum_vs_g1,
)
from rabi_spectra import oracle
from rabi_spectra.fockspace import _chain_band, _chain_layout
from rabi_spectra.numerics import eigvals_lowest
from rabi_spectra.oracle import ConvergenceReport, _sector_band
from rabi_spectra.resonance import NonphysicalDesignError

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])
ONE = np.eye(2)


def kron_rabi(p, n_max):
    """omega a^dag a + g_i sx_i (a + a^dag) + delta_i sz_i as Kronecker
    products, photon number outermost: the operator definition, sharing no
    code with the package's builders."""
    photons = np.eye(n_max + 1)
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    x = a + a.T
    return (
        p.omega * np.kron(np.diag(np.arange(n_max + 1.0)), np.kron(ONE, ONE))
        + p.delta1 * np.kron(photons, np.kron(SZ, ONE))
        + p.delta2 * np.kron(photons, np.kron(ONE, SZ))
        + p.g1 * np.kron(x, np.kron(SX, ONE))
        + p.g2 * np.kron(x, np.kron(ONE, SX))
    )


def parity_operator(*cutoffs):
    """P = diag((-1)^n) [(x) diag((-1)^m)] (x) sz (x) sz, one photon-number
    parity per mode truncated at each cutoff, modes outermost."""
    p = np.kron(SZ, SZ)
    for cutoff in reversed(cutoffs):
        p = np.kron(np.diag((-1.0) ** np.arange(cutoff + 1)), p)
    return p


def parity_defect(h, parity):
    """Largest |element| of the commutator [H, P]."""
    h = np.asarray(h.data)
    return float(np.max(np.abs(h @ parity - parity @ h)))


def random_params(rng):
    return ModelParams(
        omega=float(rng.uniform(0.5, 1.5)),
        delta1=float(rng.uniform(0.0, 2.5)),
        delta2=float(rng.uniform(0.0, 2.5)),
        g1=float(rng.uniform(0.0, 1.2)),
        g2=float(rng.uniform(0.0, 1.2)),
    )


def test_full_matrix_coupling_elements():
    p = ModelParams(omega=1.0, delta1=0.5, delta2=0.5, g1=0.3, g2=0.2)
    h = build_full_rabi(p, 5)
    # qubit flips ride the photon ladder with sqrt(n+1)
    for n in range(4):
        base = 4 * n
        up = 4 * (n + 1)
        assert h.entry(up + 2, base + 0) == pytest.approx(
            0.3 * math.sqrt(n + 1), rel=1e-15
        )  # <n+1,g,e| H |n,e,e>
        assert h.entry(up + 1, base + 0) == pytest.approx(
            0.2 * math.sqrt(n + 1), rel=1e-15
        )  # <n+1,e,g| H |n,e,e>
    # diagonal carries omega*n + delta splittings
    assert h.entry(0, 0) == pytest.approx(0.5 + 0.5, rel=1e-15)
    assert h.entry(7, 7) == pytest.approx(1.0 - 0.5 - 0.5, rel=1e-15)


@pytest.mark.parametrize("n_max", [4, 20, 60])
def test_full_matrix_and_its_sectors_equal_the_kronecker_reference(n_max):
    rng = np.random.default_rng(1618 + n_max)
    for _ in range(5):
        p = random_params(rng)
        full = build_full_rabi(p, n_max)
        ref = kron_rabi(p, n_max)
        assert np.array_equal(full.data.view(np.uint64), ref.view(np.uint64))
        assert full.labels == tuple(
            f"|{n},{q1},{q2}>" for n in range(n_max + 1) for q1 in "eg" for q2 in "eg")
        for par in (1, -1):
            # a sector is the states whose parity eigenvalue is par
            idx = np.flatnonzero(np.diag(parity_operator(n_max)) == par)
            sector = build_parity_sector(p, n_max, par)
            assert np.array_equal(sector.data.view(np.uint64),
                                  ref[np.ix_(idx, idx)].view(np.uint64))


def test_ground_energy_matches_second_order_perturbation():
    # at g1 = g2 = 0.01 the level shift is -g1^2/2 - g2^2/2 with O(g^4)
    # corrections; both couplings connect |0,g,g> only to the n=1 states
    # one rung up with unit energy denominators at these splittings
    p = ModelParams(omega=1.0, delta1=0.5, delta2=0.5, g1=0.01, g2=0.01)
    evals, rep = exact_spectrum(p, 40, 2)
    assert rep.passed
    predicted = -1.0 - p.g1**2 / 2.0 - p.g2**2 / 2.0
    assert abs(evals[0] - (-1.0)) < 3e-4
    assert abs(evals[0] - predicted) < 1e-7


def test_rotated_and_plain_forms_are_isospectral_but_distinct():
    p = ModelParams(omega=1.0, delta1=0.8, delta2=1.7, g1=0.35, g2=0.6)
    plain = build_full_rabi(p, 30)
    rotated = build_rotated_rabi(p, 30)
    np.testing.assert_allclose(
        eigvals_sym(plain), eigvals_sym(rotated), rtol=0, atol=1e-10
    )
    assert np.max(np.abs(np.asarray(plain.data) - np.asarray(rotated.data))) > 0.1


def test_rotated_rabi_is_a_sign_gauge_of_the_plain_matrix():
    # G F G with G = 1 (x) sz (x) sz, bit for bit: the "rotated" builder
    # only negates the couplings, each of which flips one qubit label
    p = ModelParams(omega=1.0, delta1=0.8, delta2=1.7, g1=0.35, g2=0.6)
    for n_max in (4, 10):
        g = np.tile([1.0, -1.0, -1.0, 1.0], n_max + 1)  # z1 z2 per state
        plain = build_full_rabi(p, n_max).data
        gauged = g[:, None] * plain * g[None, :]
        assert np.array_equal(build_rotated_rabi(p, n_max).data, gauged)


def test_explicit_qubit_rotation_is_isospectral_with_rotated_rabi():
    # rotate each qubit by Ry(pi/2): sx -> -sz, sz -> sx, so the couplings
    # become -g_i sz_i (a + a^dag) and keep both qubit labels while the
    # splittings delta_i sx_i flip them; the rotation acts on the qubits
    # only, so it commutes with the photon cutoff
    p = ModelParams(omega=1.0, delta1=0.8, delta2=1.7, g1=0.35, g2=0.6)
    n_max = 20
    c = math.sqrt(0.5)
    ry = np.array([[c, -c], [c, c]])
    r = np.kron(np.eye(n_max + 1), np.kron(ry, ry))
    rotated = r @ build_full_rabi(p, n_max).data @ r.T
    rotated = (rotated + rotated.T) / 2.0
    for n in range(n_max):
        photon_step = rotated[4 * (n + 1):4 * (n + 2), 4 * n:4 * (n + 1)]
        assert np.max(np.abs(photon_step - np.diag(np.diag(photon_step)))) <= 1e-12
        np.testing.assert_allclose(
            np.diag(photon_step),
            -math.sqrt(n + 1) * np.array([p.g1 + p.g2, p.g1 - p.g2,
                                          -p.g1 + p.g2, -p.g1 - p.g2]),
            rtol=0, atol=1e-12,
        )
        same_n = rotated[4 * n:4 * (n + 1), 4 * n:4 * (n + 1)]
        assert abs(same_n[0, 2] - p.delta1) <= 1e-12  # delta1 sx1 flips q1
        assert abs(same_n[0, 1] - p.delta2) <= 1e-12  # delta2 sx2 flips q2
    np.testing.assert_allclose(
        eigvals_sym(SymmetricMatrix(rotated)),
        eigvals_sym(build_rotated_rabi(p, n_max)), rtol=0, atol=1e-10,
    )


def test_exact_spectrum_decoupled_energies():
    p = ModelParams(omega=1.0, delta1=0.4, delta2=1.3, g1=0.0, g2=0.0)
    evals, _ = exact_spectrum(p, 20, 8)
    expected = sorted(
        n + s1 * 0.4 + s2 * 1.3 for n in range(6) for s1 in (1, -1) for s2 in (1, -1)
    )[:8]
    np.testing.assert_allclose(evals, expected, rtol=0, atol=1e-12)


def test_exact_spectrum_self_convergence_at_strong_coupling():
    p = ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)
    evals40, rep40 = exact_spectrum(p, 40, 6)
    evals80, rep80 = exact_spectrum(p, 80, 6)
    assert rep40.passed and rep80.passed
    np.testing.assert_allclose(evals40, evals80, rtol=0, atol=1e-8)


def test_ground_energy_nonincreasing_in_truncation():
    # enlarging the variational space can only lower the lowest eigenvalue
    p = ModelParams(omega=1.0, delta1=1.0, delta2=2.0, g1=0.9, g2=0.7)
    prev = None
    for n_max in (4, 6, 8, 12, 20, 32):
        e0 = eigvals_sym(build_full_rabi(p, n_max))[0]
        if prev is not None:
            assert e0 <= prev + 1e-14
        prev = e0


def test_parity_defect_exactly_zero():
    # [H, P] = 0 for the plain matrix and its sign gauge; P is diagonal in
    # both bases, sigma-x eigenvalue + and sigma-z eigenvalue e both at +1
    rng = np.random.default_rng(314)
    params = [ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)]
    params += [random_params(rng) for _ in range(10)]
    for p in params:
        for n_max in (4, 20):
            parity = parity_operator(n_max)
            assert parity_defect(build_full_rabi(p, n_max), parity) == 0.0
            assert parity_defect(build_rotated_rabi(p, n_max), parity) == 0.0


def test_parity_defect_detector_reads_injected_term():
    # flipping one spin label at fixed photon number connects opposite
    # parity sectors, so seeding that element with eps must read back in
    # the commutator, as eps (P_j - P_i) = 2 eps
    p = ModelParams(omega=1.0, delta1=0.8, delta2=1.7, g1=0.35, g2=0.6)
    h = build_rotated_rabi(p, 6)
    parity = parity_operator(6)
    assert parity_defect(h, parity) == 0.0
    eps = 1e-3
    arr = np.asarray(h.data).copy()
    i, j = 0, 2  # |0,+,+> and |0,-,+>
    assert h.labels[i] == "|0,+,+>" and h.labels[j] == "|0,-,+>"
    assert parity[i, i] * parity[j, j] == -1
    arr[i, j] = arr[j, i] = eps
    assert parity_defect(SymmetricMatrix(arr, labels=h.labels), parity) == 2 * eps


def _sigma_z_parity(h):
    """(-1)^n z1 z2 of each state, read from the sigma-z labels."""
    signs = {"e": 1, "g": -1}
    parity = np.empty(h.dim)
    for i, lab in enumerate(h.labels):
        n_txt, q1, q2 = lab[1:-1].split(",")
        parity[i] = (-1) ** int(n_txt) * signs[q1] * signs[q2]
    return parity


@pytest.mark.parametrize("n_max", [6, 20, 40])
def test_parity_sectors_are_the_diagonal_blocks_of_the_full_matrix(n_max):
    rng = np.random.default_rng(2718 + n_max)
    for _ in range(3):
        p = random_params(rng)
        full = build_full_rabi(p, n_max)
        parity = _sigma_z_parity(full)
        even, odd = np.flatnonzero(parity == 1), np.flatnonzero(parity == -1)
        assert np.all(full.data[np.ix_(even, odd)] == 0.0)
        merged = []
        for par, idx in ((1, even), (-1, odd)):
            sector = build_parity_sector(p, n_max, par)
            assert np.array_equal(sector.data, full.data[np.ix_(idx, idx)])
            assert sector.labels == tuple(full.labels[i] for i in idx)
            rows, cols = np.nonzero(sector.data)
            assert np.max(np.abs(rows - cols)) == 3
            merged.extend(eigvals_sym(sector))
        np.testing.assert_allclose(
            np.sort(merged), eigvals_sym(full), rtol=0, atol=1e-12
        )


def test_parity_sector_rejects_an_unknown_parity():
    p = ModelParams(omega=1.0, delta1=0.8, delta2=1.7, g1=0.35, g2=0.6)
    for bad in (0, 2):
        with pytest.raises(ValueError):
            build_parity_sector(p, 6, bad)


def test_cross_sector_detector_reads_injected_term():
    # the zero cross-sector block above must be able to fail: one element
    # between |0,e,e> (parity +1) and |0,e,g> (parity -1) reads back in the
    # commutator
    p = ModelParams(omega=1.0, delta1=0.8, delta2=1.7, g1=0.35, g2=0.6)
    full = build_full_rabi(p, 6)
    parity = parity_operator(6)
    assert parity_defect(full, parity) == 0.0
    eps = 1e-3
    arr = np.asarray(full.data).copy()
    i, j = 0, 1
    assert parity[i, i] * parity[j, j] == -1
    arr[i, j] = arr[j, i] = eps
    assert parity_defect(SymmetricMatrix(arr, labels=full.labels), parity) == 2 * eps


@pytest.mark.parametrize("n_max", [6, 12, 20])
def test_truncation_check_still_fails_when_levels_move(n_max):
    p = ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)
    _, report = exact_spectrum(p, n_max, 6)
    assert not report.passed
    coarse = eigvals_sym(build_full_rabi(p, n_max))[:6]
    fine = eigvals_sym(build_full_rabi(p, 2 * n_max))[:6]
    np.testing.assert_allclose(report.deltas, np.abs(coarse - fine), rtol=0, atol=1e-10)


def two_solve_reference(p, n_max, n_levels):
    """exact_spectrum as two independent solves, n_max and then 2 n_max,
    through the public eigvals_lowest."""
    def lowest(n):
        k = min(n_levels, 2 * (n + 1))
        vals = [eigvals_lowest(*_sector_band(p, n, par), k) for par in (1, -1)]
        return np.sort(np.concatenate(vals))[:n_levels]

    coarse, fine = lowest(n_max), lowest(2 * n_max)
    deltas = tuple(float(abs(a - b)) for a, b in zip(coarse, fine))
    tol = 1e-8 * p.omega
    return coarse, ConvergenceReport(n_max=n_max, n_levels=n_levels, tol=tol,
                                     deltas=deltas, passed=max(deltas) <= tol)


def fig3_params():
    des = design_resonant(1.0, 2.0, 0.7, 0.9)
    return ModelParams(omega=1.0, delta1=des.delta1, delta2=2.0, g1=0.9, g2=0.7)


# a strong coupling: its 2 n_max solve reads 41 rungs, fig-3's 37
STRONG = ModelParams(omega=1.0, delta1=1.2, delta2=2.0, g1=1.2, g2=0.7)


@pytest.mark.parametrize("n_max", [4, 31, 32, 33, 36, 37, 38, 40, 41, 42, 63, 64, 65, 90, 300])
def test_one_solve_certifies_both_truncations_bit_for_bit(n_max):
    # exact_spectrum reuses the 2 n_max levels for n_max when that solve read
    # no rung past n_max; values and report must equal two separate solves
    rng = np.random.default_rng(4099)
    for p in [fig3_params(), STRONG] + [random_params(rng) for _ in range(10)]:
        vals, report = exact_spectrum(p, n_max, 6)
        ref_vals, ref_report = two_solve_reference(p, n_max, 6)
        assert np.array_equal(vals.view(np.uint64), ref_vals.view(np.uint64))
        assert report == ref_report


def test_the_n_max_solve_runs_only_when_the_fine_one_read_past_n_max(monkeypatch):
    solved = []
    certified = oracle._certified_lowest

    def spy(diag, couple, k):
        solved.append(len(diag))
        return certified(diag, couple, k)

    monkeypatch.setattr(oracle, "_certified_lowest", spy)
    p = fig3_params()
    for n_max in (4, 20, 31):
        # the first leading block of the 2 n_max band (37 rungs, or all of
        # them) is longer than n_max
        solved.clear()
        exact_spectrum(p, n_max, 6)
        assert solved == [2 * n_max + 1] * 2 + [n_max + 1] * 2
    solved.clear()
    _, report = exact_spectrum(p, 300, 6)
    assert solved == [601, 601]
    assert report.passed and report.deltas == (0.0,) * 6
    # the 2 n_max solve of STRONG reads 41 rungs
    for n_max, coarse in ((40, [41, 41]), (41, [])):
        solved.clear()
        exact_spectrum(STRONG, n_max, 6)
        assert solved == [2 * n_max + 1] * 2 + coarse


def test_oracle_to_dict_equals_asdict_in_field_order():
    cmp = compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=4, n_max=30, n_blocks=6)
    for row in cmp.rows:
        assert list(row.to_dict().items()) == list(dataclasses.asdict(row).items())
    conv = cmp.convergence
    expected = {**dataclasses.asdict(conv), "max_delta": conv.max_delta}
    assert list(conv.to_dict().items()) == list(expected.items())
    expected = {**dataclasses.asdict(cmp), "rows": [r.to_dict() for r in cmp.rows],
                "convergence": conv.to_dict()}
    assert list(cmp.to_dict().items()) == list(expected.items())


@pytest.mark.parametrize("mode", [CoefficientMode.APPROX, CoefficientMode.EXACT])
@pytest.mark.parametrize("parity", [+1, -1])
def test_undisplaced_chain_band_is_the_sector_band(parity, mode):
    # At lambda1 = lambda2 = 0 the TRWA is exact, so the two single-mode
    # builders must agree entry for entry, coupling signs included, once
    # each rung's chain slots are mapped onto the sector's slots (chain
    # state (n, s1, s2) is sector state (n, z1 = s1, z2 = s2)).  The
    # couplings are nonzero, so a wrong hop or diagonal term shows.
    rng = np.random.default_rng(1000 + 2 * (parity > 0) + (mode is CoefficientMode.EXACT))
    for _ in range(50):
        p = ModelParams(
            omega=float(rng.uniform(0.5, 1.5)),
            delta1=float(rng.uniform(0.1, 2.5)), delta2=float(rng.uniform(0.1, 2.5)),
            g1=float(rng.uniform(0.05, 1.2)), g2=float(rng.uniform(0.05, 1.2)),
        )
        n_max = int(rng.integers(4, 61))
        rungs, couple = _chain_band(p, TrwaParams(0.0, 0.0), parity, n_max, mode)
        _, s1, s2 = _chain_layout(parity, n_max)
        chain_pairs = list(zip(s1.tolist(), s2.tolist()))
        _, k = oracle._sector_states(n_max, parity)
        slot = np.array([
            [chain_pairs.index((1 - 2 * (kk >> 1), 1 - 2 * (kk & 1)), 2 * n) - 2 * n
             for kk in pair]
            for n, pair in enumerate(k.tolist())
        ])
        r = np.arange(n_max + 1)[:, None, None]
        mapped_rungs = rungs[r, slot[:, :, None], slot[:, None, :]]
        mapped_couple = couple[r[:-1], slot[:-1, :, None], slot[1:, None, :]]
        ref_rungs, ref_couple = _sector_band(p, n_max, parity)
        assert np.array_equal(mapped_rungs.view(np.uint64), ref_rungs.view(np.uint64))
        assert np.array_equal(mapped_couple.view(np.uint64), ref_couple.view(np.uint64))


def test_oracle_and_sweep_read_the_same_merged_levels():
    table = spectrum_vs_g1(1.0, 2.0, 0.7, [0.9], n_blocks=8)
    energies = [e for _, _, e in table.energies_for(0.9)]
    cmp = compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=6, n_max=40, n_blocks=8)
    assert cmp.trwa_ground == energies[0]
    assert [r.e_trwa for r in cmp.rows] == [e - energies[0] for e in energies[:6]]


def test_compare_trwa_exact_tiny_couplings():
    cmp = compare_trwa_exact(1.0, 2.0, 1e-4, 1e-4, n_levels=6, n_max=40, n_blocks=8)
    devs = [abs(row.abs_dev) for row in cmp.rows]
    assert max(devs) <= 1e-6


def test_compare_trwa_exact_improves_at_weaker_coupling():
    strong = compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=6, n_max=40, n_blocks=8)
    weak = compare_trwa_exact(1.0, 2.0, 0.7, 0.45, n_levels=6, n_max=40, n_blocks=8)
    assert max(abs(r.abs_dev) for r in weak.rows) < max(
        abs(r.abs_dev) for r in strong.rows
    )


def test_compare_trwa_exact_rejects_a_nonphysical_design():
    # the design derives delta1 < 0; the error names it before any
    # parameter class sees it
    delta1 = design_resonant(1.0, 0.2, 0.5, 0.3).delta1
    assert delta1 < 0
    with pytest.raises(NonphysicalDesignError, match=re.escape(f"delta1 = {delta1} <= 0")):
        compare_trwa_exact(1.0, 0.2, 0.5, 0.3)


def test_compare_trwa_exact_rejects_more_blocks_than_the_cap():
    with pytest.raises(ValueError, match="n_blocks must be <= 4999, got 1000000000"):
        compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=6, n_max=60, n_blocks=10**9)


def test_compare_trwa_exact_report_round_trips():
    cmp = compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=4, n_max=30, n_blocks=6)
    d = cmp.to_dict()
    assert len(d["rows"]) == 4
    assert d["rows"][0]["abs_dev"] == 0.0  # both sides aligned at the ground level


RESERVOIR = ReservoirParams(
    omega=1.0, omega1=0.8, v=0.2, g1=0.3, g2=0.3,
    g1p=0.2, g2p=0.2, delta1=1.0, delta2=1.0,
)


def test_pseudomode_hopping_element():
    h = build_full_pseudomode(RESERVOIR, 4, 4)
    labels = list(h.labels)
    # <m+1, n-1, s| V (b+a + a+b) |m, n, s> = V sqrt(m+1) sqrt(n)
    for (m, n) in ((0, 1), (1, 2), (2, 3)):
        i = labels.index(f"|{m},{n},e,g>")
        j = labels.index(f"|{m + 1},{n - 1},e,g>")
        assert h.entry(i, j) == pytest.approx(
            0.2 * math.sqrt(m + 1) * math.sqrt(n), rel=1e-15
        )
    # <m+1, n, flipped| g_i' sx_i (b + b^dag) |m, n, e,g> = g_i' sqrt(m+1)
    asym = dataclasses.replace(RESERVOIR, g1p=0.2, g2p=0.05)
    h = build_full_pseudomode(asym, 4, 4)
    labels = list(h.labels)
    for (m, n) in ((0, 1), (1, 2), (3, 0)):
        i = labels.index(f"|{m},{n},e,g>")
        for flipped, g in (("g,g", asym.g1p), ("e,e", asym.g2p)):
            j = labels.index(f"|{m + 1},{n},{flipped}>")
            assert h.entry(i, j) == pytest.approx(g * math.sqrt(m + 1), rel=1e-15)


def test_pseudomode_tensor_sum_oracle():
    # with V = 0 and no qubit-pseudomode coupling the spectrum is the plain
    # two-qubit spectrum shifted by omega1 * m, mode by mode
    import dataclasses

    r = dataclasses.replace(RESERVOIR, v=0.0, g1p=0.0, g2p=0.0)
    h = build_full_pseudomode(r, 3, 10)
    got = eigvals_sym(h)
    p = ModelParams(omega=r.omega, delta1=r.delta1, delta2=r.delta2, g1=r.g1, g2=r.g2)
    base = eigvals_sym(build_full_rabi(p, 10))
    expected = np.sort(np.concatenate([base + r.omega1 * m for m in range(4)]))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_pseudomode_parity_defect_exactly_zero():
    # the conserved parity multiplies both photon-number parities by both
    # qubit inversions; the index order is photon n, then pseudomode m
    asym = dataclasses.replace(RESERVOIR, g1=0.45, delta2=1.3, g2p=0.05, v=0.37)
    for r, m_max, n_max in ((RESERVOIR, 6, 6), (asym, 5, 7)):
        h = build_full_pseudomode(r, m_max, n_max)
        assert parity_defect(h, parity_operator(n_max, m_max)) == 0.0
