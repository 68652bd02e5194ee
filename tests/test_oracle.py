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
    build_parity_chain,
    build_parity_sector,
    build_rotated_rabi,
    compare_trwa_exact,
    design_resonant,
    eigvals_sym,
    exact_spectrum,
    spectrum_vs_g1,
)
from rabi_spectra import oracle
from rabi_spectra.fockspace import SPECTRUM_FIELDS, _chain_bands, _chain_layout, _merge_parities
from rabi_spectra.numerics import band_to_dense, eigvals_lowest
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
    for bad in (0, 2, True, False, 1.5):
        with pytest.raises(ValueError, match="parity must be"):
            build_parity_sector(p, 6, bad)


def test_parity_sector_takes_an_integer_valued_parity():
    p = ModelParams(omega=1.0, delta1=0.8, delta2=1.7, g1=0.35, g2=0.6)
    sector = build_parity_sector(p, 6, -1.0)
    assert sector.labels == build_parity_sector(p, 6, -1).labels
    np.testing.assert_array_equal(sector.data, build_parity_sector(p, 6, -1).data)


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
        rungs, couple = (x[0] for x in _chain_bands([p], [TrwaParams(0.0, 0.0)], parity,
                                                     n_max, mode))
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


def _displacement(n_fock):
    """c -> D(c) = exp(c (a^dag - a)) on n_fock Fock states, from eigh of
    the Hermitian i (a^dag - a): no Laguerre polynomial."""
    a = np.diag(np.sqrt(np.arange(1.0, n_fock)), 1)
    w, v = np.linalg.eigh(1j * (a.T - a))

    def displace(c):
        d = (v * np.exp(-1j * c * w)) @ v.conj().T
        assert np.abs(d.imag).max() < 1e-12
        return d.real

    return displace


@pytest.mark.parametrize("g1", [0.3, 0.9, 1.2])
def test_exact_chain_band_is_the_displaced_hamiltonian(g1):
    # Every element of the exact-mode chain band, derived from the
    # Hamiltonian: K = U^T H U with H = build_rotated_rabi at 160 Fock
    # states and U = sum_z |z><z| (x) D(lambda1 z1 + lambda2 z2), |z> =
    # (|+> - z|->)/sqrt(2) per qubit in H's sigma-x labels.  Chain state
    # |n, s1, s2> is U|n, s1, s2> in the gauge (-1)^n, fixed here and not
    # fitted, so a sign error in a whole hop shows.  Rungs 0..14 lie far
    # below the truncation.
    n_fock, n_max = 160, 14
    des = design_resonant(1.0, 2.0, 0.7, g1)
    p = ModelParams(omega=1.0, delta1=des.delta1, delta2=2.0, g1=g1, g2=0.7)
    t = TrwaParams(lambda1=des.lambda1, lambda2=des.lambda2)
    h = build_rotated_rabi(p, n_fock - 1)
    displace = _displacement(n_fock)
    u = np.zeros((4 * n_fock, 4 * n_fock))
    for z1 in (1, -1):
        for z2 in (1, -1):
            q = np.kron([1.0, -z1], [1.0, -z2]) / 2.0
            u += np.kron(displace(t.lambda1 * z1 + t.lambda2 * z2), np.outer(q, q))
    k = u.T @ h.data @ u
    index = {label: i for i, label in enumerate(h.labels)}
    sectors = {}
    for parity in (1, -1):
        states = build_parity_chain(parity, n_max).states
        idx = [index[s.ket()] for s in states]
        gauge = np.array([(-1.0) ** s.n for s in states])
        sectors[parity] = idx
        derived = gauge[:, None] * k[np.ix_(idx, idx)] * gauge[None, :]
        rungs, couple = (x[0] for x in _chain_bands([p], [t], parity, n_max,
                                                    CoefficientMode.EXACT))
        band = band_to_dense(rungs, couple)
        at = band_to_dense(np.ones_like(rungs), np.ones_like(couple)) != 0
        np.testing.assert_allclose(band[at], derived[at], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(np.where(at, derived, 0.0)),
                                   np.linalg.eigvalsh(band), rtol=0, atol=1e-12)
    # the chains are the parity sectors: U^T H U has no element between them
    assert np.abs(k[np.ix_(sectors[1], sectors[-1])]).max() < 1e-12


@pytest.mark.parametrize("n_max, n_levels", [(60, 6), (4, 12), (4, 20), (5, 3)])
def test_each_exact_sector_is_the_lowest_levels_of_its_band(n_max, n_levels):
    # exact_spectrum's levels are the merge of its two sectors' levels,
    # each tagged with its own sector
    p = fig3_params()
    levels, _ = oracle._lowest_levels(p, n_max, n_levels)
    k = min(n_levels, 2 * (n_max + 1))
    for parity, sector in zip((1, -1), levels):
        assert sector.tobytes() == eigvals_lowest(*_sector_band(p, n_max, parity), k).tobytes()
    merged, tags = _merge_parities(*levels)
    assert exact_spectrum(p, n_max, n_levels)[0].tobytes() == merged[:n_levels].tobytes()
    assert merged[tags == "+"].tobytes() == levels[0].tobytes()
    assert merged[tags == "-"].tobytes() == levels[1].tobytes()


def sector_levels(p, parity, k, n_max=120):
    """The lowest k levels of one parity sector, by the oracle's solve."""
    return eigvals_lowest(*_sector_band(p, n_max, parity), k)


def distance_to_a_level(levels, energy):
    return float(np.min(np.abs(levels - energy)))


@pytest.mark.parametrize("parity", [1, -1])
def test_uncoupled_sectors_are_n_omega_plus_or_minus_each_splitting(parity):
    # g1 = g2 = 0: the state (n, z1, z2) is an eigenstate, of energy
    # n omega + z1 delta1 + z2 delta2, in the sector (-1)^n z1 z2
    p = ModelParams(omega=1.0, delta1=0.4, delta2=1.3, g1=0.0, g2=0.0)
    expected = sorted(n * 1.0 + z1 * 0.4 + z2 * 1.3 for n in range(121)
                      for z1 in (1, -1) for z2 in (1, -1) if (-1) ** n * z1 * z2 == parity)
    np.testing.assert_allclose(sector_levels(p, parity, 10), expected[:10], rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(5))
def test_identical_qubits_keep_the_singlet_ladder(n):
    # g1 = g2 and delta1 = delta2: the singlet (|eg> - |ge>)/sqrt(2) is
    # annihilated by sx1 + sx2 and by sz1 + sz2, so singlet (x) |n> has
    # E = n omega, in the sector of z1 z2 = -1, parity -(-1)^n
    p = ModelParams(omega=1.0, delta1=0.8, delta2=0.8, g1=0.3, g2=0.3)
    parity = -(-1) ** n
    assert distance_to_a_level(sector_levels(p, parity, 12), n * 1.0) < 1e-12
    assert distance_to_a_level(sector_levels(p, -parity, 12), n * 1.0) > 1e-2


@pytest.mark.parametrize("g1", [0.1, 0.3, 0.45])
def test_juddian_level_of_the_decoupled_qubit_pair(g1):
    # g2 = 0 decouples qubit 2: the spectrum is the one-qubit Rabi spectrum
    # (omega a^dag a + g1 sx (a + a^dag) + delta1 sz) shifted by +-delta2.
    # On delta1^2 + 4 g1^2 = omega^2 that spectrum holds the N = 1 Juddian
    # (exceptional) level omega - g1^2/omega, so both parity sectors hold
    # it shifted by each sign of delta2
    omega, delta2 = 1.0, 1.3

    def misses(delta1):
        p = ModelParams(omega=omega, delta1=delta1, delta2=delta2, g1=g1, g2=0.0)
        return [distance_to_a_level(sector_levels(p, parity, 8),
                                    omega - g1**2 / omega + sign * delta2)
                for parity in (1, -1) for sign in (1, -1)]

    on_curve = math.sqrt(omega**2 - 4 * g1**2)
    assert max(misses(on_curve)) < 1e-12
    # with delta1 5% off the curve every one of them misses
    assert min(misses(1.05 * on_curve)) > 1e-3


@pytest.mark.parametrize("g1", [0.3, 0.5, 0.7, 0.9, 1.1])
def test_the_fig3_designed_points_hold_no_baseline_level(g1):
    # The paper's "exceptional spectra": where the design closes the TRWA's
    # blocks, no exact level of either sector lies on a two-qubit baseline
    # n omega - (g1 +- g2)^2/omega, n <= 5.  The nearest miss measured is
    # 8.3e-3 (g1 = 1.1, - sector); the Juddian test above is the control
    # that the same helpers find a baseline level where there is one.
    omega, delta2, g2 = 1.0, 2.0, 0.7
    p = ModelParams(omega=omega, delta1=design_resonant(omega, delta2, g2, g1).delta1,
                    delta2=delta2, g1=g1, g2=g2)
    baselines = [n * omega - (g1 + sign * g2) ** 2 / omega for n in range(6) for sign in (1, -1)]
    for parity in (1, -1):
        levels = sector_levels(p, parity, 12)
        assert min(distance_to_a_level(levels, e) for e in baselines) > 1e-3, parity


@pytest.mark.parametrize("n_blocks, message", [
    (-1, "n_blocks must be >= 1, got -1"),
    (2.5, "n_blocks must be an integer, got 2.5"),
    (True, "n_blocks: expected a number, got True"),
])
def test_compare_checks_the_block_count_before_it_sizes_the_level_count(n_blocks, message):
    # check_n_levels sizes its top by the block count, so that count is
    # checked first
    with pytest.raises(ValueError) as exc:
        compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=30, n_blocks=n_blocks)
    assert str(exc.value) == message


@pytest.mark.parametrize("n_levels, message", [
    (2.5, "n_levels must be an integer, got 2.5"),
    (True, "n_levels: expected a number, got True"),
    (0, "n_levels must be >= 1, got 0"),
])
def test_level_counts_are_checked_as_integers(n_levels, message):
    p = fig3_params()
    for solve in (lambda: oracle.check_n_levels(n_levels, 60),
                  lambda: exact_spectrum(p, 60, n_levels),
                  lambda: compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=n_levels)):
        with pytest.raises(ValueError) as exc:
            solve()
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        eigvals_lowest(*_sector_band(p, 20, 1), n_levels)
    assert str(exc.value) == "k" + message[len("n_levels"):]


def test_integer_valued_counts_are_taken_as_ints():
    p = fig3_params()
    vals, report = exact_spectrum(p, 24.0, 6.0)
    assert (report.n_max, report.n_levels) == (24, 6) and type(report.n_levels) is int
    assert vals.tobytes() == exact_spectrum(p, 24, 6)[0].tobytes()
    floats = compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=4.0, n_max=24.0, n_blocks=4.0)
    assert floats == compare_trwa_exact(1.0, 2.0, 0.7, 0.9, n_levels=4, n_max=24, n_blocks=4)
    for build in (build_rotated_rabi, lambda p, n: build_parity_sector(p, n, 1)):
        h, ref = build(p, 5.0), build(p, 5)
        assert np.array_equal(h.data, ref.data) and h.labels == ref.labels


def test_oracle_and_sweep_read_the_same_merged_levels():
    table = spectrum_vs_g1(1.0, 2.0, 0.7, [0.9], n_blocks=8)
    (block,) = table.blocks
    energies = list(block[SPECTRUM_FIELDS.index("energy")])
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


@pytest.mark.parametrize("m_max, n_max, message", [
    (2.5, 3, "m_max must be an integer, got 2.5"),
    (2, 3.5, "n_max must be an integer, got 3.5"),
    (True, 2, "m_max: expected a number, got True"),
    (0, 3, "need m_max, n_max >= 1, got (0, 3)"),
])
def test_pseudomode_rejects_a_count_that_is_not_a_positive_integer(m_max, n_max, message):
    with pytest.raises(ValueError) as exc:
        build_full_pseudomode(RESERVOIR, m_max, n_max)
    assert str(exc.value) == message


def test_pseudomode_takes_an_integer_valued_count_as_an_int():
    h, ref = build_full_pseudomode(RESERVOIR, 2, 3.0), build_full_pseudomode(RESERVOIR, 2, 3)
    assert np.array_equal(h.data, ref.data) and h.labels == ref.labels


def test_pseudomode_parity_defect_exactly_zero():
    # the conserved parity multiplies both photon-number parities by both
    # qubit inversions; the index order is photon n, then pseudomode m
    asym = dataclasses.replace(RESERVOIR, g1=0.45, delta2=1.3, g2p=0.05, v=0.37)
    for r, m_max, n_max in ((RESERVOIR, 6, 6), (asym, 5, 7)):
        h = build_full_pseudomode(r, m_max, n_max)
        assert parity_defect(h, parity_operator(n_max, m_max)) == 0.0
