"""Checks for the shared numerical kernel: generalized Laguerre evaluation,
bracketed root finding, the symmetric eigensolver wrapper, and the
certified lowest-k band solve."""

import math
import re
import warnings

import numpy as np
import pytest

from rabi_spectra import (
    ConvergenceFailureError,
    EigenDecomposition,
    ModelParams,
    NoBracketError,
    NonFiniteError,
    SymmetricMatrix,
    build_parity_sector,
    eigh,
    eigvals_sym,
    eval_laguerre,
    find_root,
    laguerre_table,
)
from rabi_spectra import numerics
from rabi_spectra.numerics import (
    band_to_dense,
    eigvals_lowest,
    eigvals_stacked,
    inertia_count,
    sym_set,
)
from rabi_spectra.oracle import _sector_band


def laguerre_series(n, k, x):
    """Alternating-sum definition, evaluated term by term.

    Independent of the recurrence used in eval_laguerre; safe for n <= 20
    where no catastrophic cancellation occurs at the x values tested.
    """
    total = 0.0
    for j in range(n + 1):
        total += (-1) ** j * math.comb(n + k, n - j) * x**j / math.factorial(j)
    return total


def test_laguerre_spot_values():
    assert eval_laguerre(0, 0, 0.5) == 1.0
    assert eval_laguerre(3, 1, 0.0) == 4.0  # binomial C(4, 3)
    assert abs(eval_laguerre(1, 0, 0.04) - 0.96) < 1e-15


def test_laguerre_matches_series():
    for n in range(21):
        for k in (0, 1):
            for x in (0.01, 0.04, 0.25, 1.0, 2.0):
                ref = laguerre_series(n, k, x)
                got = eval_laguerre(n, k, x)
                assert got == pytest.approx(ref, rel=1e-12), (n, k, x)


def laguerre_restarted(n, k, x):
    """The scalar recurrence restarted at degree 0 for each n, written out
    as the reference for laguerre_table's float operations."""
    if n == 0:
        return 1.0
    lm1, lm = 1.0, 1.0 + k - x
    for m in range(1, n):
        lm, lm1 = ((2.0 * m + k + 1.0 - x) * lm - (m + k) * lm1) / (m + 1.0), lm
    return lm


def test_laguerre_table_is_bit_identical_to_scalar_evaluation():
    n_max = 2000
    sampled = sorted({0, 1, 2, 3, 17, 250, 999, 1500, n_max})
    for k in (0, 1):
        for x in (0.0, 0.04, 1.7, 9.0):
            table = laguerre_table(n_max, k, x)
            assert table.shape == (n_max + 1,)
            # one pass of the scalar loop yields every restarted value
            ref = np.zeros(n_max + 1)
            ref[0], ref[1] = lm1, lm = 1.0, 1.0 + k - x
            for m in range(1, n_max):
                lm, lm1 = ((2.0 * m + k + 1.0 - x) * lm - (m + k) * lm1) / (m + 1.0), lm
                ref[m + 1] = lm
            assert np.array_equal(table.view(np.uint64), ref.view(np.uint64)), (k, x)
            for n in sampled:
                assert eval_laguerre(n, k, x) == table[n] == laguerre_restarted(n, k, x)


def test_laguerre_table_shares_validation():
    assert laguerre_table(0, 1, 0.3).tolist() == [1.0]
    assert laguerre_table(3, 1, 0.0).tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        laguerre_table(-1, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre_table(10001, 0, 1.0)
    with pytest.raises(ValueError):
        laguerre_table(2, -1, 1.0)
    with pytest.raises(NonFiniteError):
        laguerre_table(3, 1, float("nan"))


def test_laguerre_rejects_bad_orders():
    with pytest.raises(ValueError):
        eval_laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError):
        eval_laguerre(10001, 0, 1.0)
    with pytest.raises(ValueError):
        eval_laguerre(2, -1, 1.0)


def test_laguerre_rejects_nonfinite_argument():
    with pytest.raises(NonFiniteError):
        eval_laguerre(3, 1, float("nan"))
    with pytest.raises(NonFiniteError):
        eval_laguerre(3, 1, float("inf"))


def test_find_root_linear_is_exact():
    assert find_root(lambda x: x - 1.0, 0.0, 2.0) == 1.0


def test_find_root_endpoint_root_returned_immediately():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root(lambda x: x - 1.0, 0.5, 1.0) == 1.0


def bisect(f, lo, hi, iters=60):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_find_root_agrees_with_plain_bisection():
    got = find_root(lambda x: x * x - 2.0, 0.0, 2.0)
    ref = bisect(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(got - ref) < 1e-10
    assert abs(got - math.sqrt(2.0)) < 1e-12


def test_find_root_no_sign_change_raises():
    with pytest.raises(NoBracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_residual_bound_on_monotone_functions():
    # |f(root)| <= |slope| * tol * 10 for well-behaved monotone f
    cases = [
        (lambda x: 3.0 * x - 1.0, 0.0, 1.0, 3.0),
        (lambda x: math.exp(x) - 2.0, 0.0, 2.0, math.e**2),
        (lambda x: x**3 - 0.3, 0.0, 1.0, 3.0),
    ]
    for f, lo, hi, slope in cases:
        root = find_root(f, lo, hi, tol=1e-12)
        assert abs(f(root)) <= slope * 1e-12 * 10


def test_find_root_rejects_nonfinite_values():
    with pytest.raises(NonFiniteError):
        find_root(lambda x: float("nan"), 0.0, 1.0)


def test_symmetric_matrix_validation():
    with pytest.raises(ValueError):
        SymmetricMatrix(((1.0, 2.0),))  # not square
    with pytest.raises(ValueError):
        SymmetricMatrix(((1.0, 2.0), (2.1, 1.0)))  # not symmetric
    with pytest.raises(NonFiniteError):
        SymmetricMatrix(((float("inf"), 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        SymmetricMatrix(((1.0, 0.0), (0.0, 1.0)), labels=("just one",))


def test_symmetric_matrix_entry_and_submatrix():
    m = SymmetricMatrix(((2.0, 1.0), (1.0, 5.0)), labels=("a", "b"))
    assert m.dim == 2
    assert m.entry(0, 1) == 1.0
    sub = m.submatrix((1,))
    assert sub.dim == 1
    assert sub.labels == ("b",)
    assert sub.entry(0, 0) == 5.0
    three = SymmetricMatrix(np.diag([1.0, 2.0, 3.0]), ("a", "b", "c"))
    assert three.submatrix([2, 0]).labels == ("c", "a")
    # a negative index would wrap to the last state, and a repeated one
    # gives [[1, 1], [1, 1]], whose eigenvalues belong to no set of states
    for bad in ([-1], [0, 0], [3], [1, 0, 1]):
        with pytest.raises(ValueError, match=re.escape(f"indices {tuple(bad)}")):
            three.submatrix(bad)


def test_sym_set_writes_both_triangles():
    arr = np.zeros((3, 3))
    sym_set(arr, 0, 2, 7.0)
    assert arr[0, 2] == 7.0 and arr[2, 0] == 7.0


def test_eigh_identity():
    d = eigh(SymmetricMatrix(np.eye(3)))
    np.testing.assert_allclose(d.values, [1.0, 1.0, 1.0], rtol=0, atol=1e-15)


def test_eigh_off_diagonal_pair():
    d = eigh(SymmetricMatrix(((0.0, 1.0), (1.0, 0.0))))
    np.testing.assert_allclose(d.values, [-1.0, 1.0], rtol=0, atol=1e-15)


def test_eigh_shifted_pair():
    d = eigh(SymmetricMatrix(((2.0, 1.0), (1.0, 2.0))))
    np.testing.assert_allclose(d.values, [1.0, 3.0], rtol=0, atol=1e-14)


def test_eigh_sign_convention_deterministic():
    d = eigh(SymmetricMatrix(((2.0, 1.0), (1.0, 2.0))))
    # every column's first appreciable component is nonnegative
    for col in d.vectors.T:
        lead = col[np.abs(col) > 1e-12 * np.max(np.abs(col))][0]
        assert lead > 0


def test_eigh_random_matrices_residual_and_orthonormality():
    rng = np.random.default_rng(20260816)
    for dim in (2, 3, 7, 16, 33, 64):
        a = rng.uniform(-10.0, 10.0, size=(dim, dim))
        m = (a + a.T) / 2.0
        scale = max(1.0, float(np.max(np.abs(m)) * dim))
        d = eigh(SymmetricMatrix(m))
        assert d.residual(SymmetricMatrix(m)) <= 1e-10 * scale
        gram = d.vectors.T @ d.vectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        rebuilt = d.vectors @ np.diag(d.values) @ d.vectors.T
        assert np.max(np.abs(rebuilt - m)) <= 1e-9 * float(np.max(np.abs(m)))
        assert np.all(np.diff(d.values) >= 0.0)


def test_eigensolvers_reject_anything_but_a_symmetric_matrix():
    # LAPACK reads one triangle only: this upper-triangular array would come
    # back with eigenvalues [1, 1] instead of raising
    raw = np.array([[1.0, 5.0], [0.0, 1.0]])
    for solve in (eigh, eigvals_sym):
        with pytest.raises(TypeError):
            solve(raw)
        with pytest.raises(TypeError):
            solve(raw.tolist())
    with pytest.raises(ValueError):
        SymmetricMatrix(raw)


def test_eigvals_stacked_matches_one_eigh_per_matrix():
    rng = np.random.default_rng(11)
    a = rng.uniform(-5.0, 5.0, size=(9, 4, 4))
    stack = (a + a.transpose(0, 2, 1)) / 2.0
    vals = eigvals_stacked(stack)
    assert vals.shape == (9, 4)
    for block, row in zip(stack, vals):
        np.testing.assert_array_equal(row, eigh(SymmetricMatrix(block)).values)


def test_eigvals_sym_permutation_invariance():
    rng = np.random.default_rng(7)
    a = rng.uniform(-5.0, 5.0, size=(12, 12))
    m = SymmetricMatrix((a + a.T) / 2.0)
    perm = tuple(rng.permutation(12))
    ref = eigvals_sym(m)
    shuffled = eigvals_sym(m.submatrix(perm))
    np.testing.assert_allclose(shuffled, ref, rtol=0, atol=1e-10)


def test_eigen_decomposition_residual_of_exact_pair_is_zero():
    m = SymmetricMatrix(((0.0, 1.0), (1.0, 0.0)))
    vals = np.array([-1.0, 1.0])
    vecs = np.array([[-1.0, 1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    assert EigenDecomposition(vals, vecs).residual(m) < 1e-15


@pytest.mark.parametrize("error, token", [
    ("NoBracketError", "NoBracket"),
    ("NonFiniteError", "NonFinite"),
    ("ConvergenceFailureError", "ConvergenceFailure"),
    ("SingularError", "Singular"),
    ("DegenerateDesignError", "DegenerateDesign"),
    ("SingularEtaError", "SingularEta"),
    ("SingularDenominatorError", "SingularDenominator"),
    ("AsymmetricParamsError", "AsymmetricParams"),
])
def test_error_token_of_each_named_error(error, token):
    import rabi_spectra
    from rabi_spectra.numerics import error_token

    assert error_token(getattr(rabi_spectra, error)("message")) == token
    assert error_token(ValueError("message")) == "Value"


# --- certified lowest-k solve of a block-tridiagonal band ------------------

def _random_params(rng, equal_qubits=False):
    g1, d1 = float(rng.uniform(0.0, 1.2)), float(rng.uniform(0.0, 2.5))
    g2, d2 = (g1, d1) if equal_qubits else (float(rng.uniform(0.0, 1.2)),
                                            float(rng.uniform(0.0, 2.5)))
    return ModelParams(omega=float(rng.uniform(0.5, 1.5)), delta1=d1, delta2=d2, g1=g1, g2=g2)


def _lowest_error(band, dense, k):
    """Largest deviation of eigvals_lowest on `band` from a dense solve of
    `dense`."""
    return float(np.max(np.abs(eigvals_lowest(*band, k) - np.linalg.eigvalsh(dense)[:k])))


def _count_mismatches(band, dense, shifts):
    """Shifts at which inertia_count on `band` differs from counting the
    dense eigenvalues of `dense` below the shift."""
    vals = np.linalg.eigvalsh(dense)
    expected = np.sum(vals[None, :] < shifts[:, None], axis=1)
    return int(np.sum(inertia_count(*band, shifts) != expected))


def _sector(p, n_max, parity):
    return _sector_band(p, n_max, parity), build_parity_sector(p, n_max, parity).data


# the first leading block holds the whole band at n_max 6, part of it at
# 90 for most parameters, and either at 20 and 40, by the parameters
@pytest.mark.parametrize("n_max", [6, 20, 40, 90])
@pytest.mark.parametrize("equal_qubits", [False, True])
def test_eigvals_lowest_matches_a_dense_solve_of_the_sector(n_max, equal_qubits):
    # equal_qubits is the exchange-symmetric point g1 = g2, delta1 = delta2,
    # where the singlet decouples from the field
    rng = np.random.default_rng(31 * n_max + equal_qubits)
    for _ in range(3):
        p = _random_params(rng, equal_qubits)
        for parity in (1, -1):
            band, dense = _sector(p, n_max, parity)
            for k in (1, 6, 12):
                assert _lowest_error(band, dense, k) <= 1e-12


def test_eigvals_lowest_holds_on_exactly_degenerate_levels():
    # g1 = g2 = 0 and delta1 = delta2: every rung of the odd-qubit pair holds
    # a double level n omega, so the certificate meets exact degeneracies
    p = ModelParams(omega=1.0, delta1=0.7, delta2=0.7, g1=0.0, g2=0.0)
    for parity in (1, -1):
        band, dense = _sector(p, 40, parity)
        vals = eigvals_lowest(*band, 8)
        assert np.any(np.diff(vals) == 0.0)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(dense)[:8], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_max", [6, 40, 90])
def test_inertia_count_matches_the_dense_spectrum(n_max):
    rng = np.random.default_rng(7 + n_max)
    for _ in range(3):
        band, dense = _sector(_random_params(rng), n_max, 1)
        vals = np.linalg.eigvalsh(dense)
        shifts = np.concatenate([
            rng.uniform(vals[0] - 1.0, vals[min(20, len(vals) - 1)], 12),
            rng.uniform(vals[0] - 1.0, vals[-1] + 1.0, 12),
        ])
        assert _count_mismatches(band, dense, shifts) == 0


def test_rungs_read_covers_the_rung_of_the_stop_tests_gershgorin_bound():
    # the count stops after 24 rungs of this band, where the smallest
    # Gershgorin bound of the later rungs sits at rung 24; lowering rung 80
    # below that bound moves it there, though no level moves
    p = ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)
    rungs, couple = _sector_band(p, 100, 1)
    low = numerics._row_sums(rungs, couple)[0].min(axis=1)
    shifts = [-4.0, -3.0, 0.5]
    count, read = numerics._inertia_count(rungs, couple, shifts)
    assert read == 25 and low[24] == low[24:].min()
    dipped = rungs.copy()
    dipped[80] -= (low[80] - low[24] + 0.5) * np.eye(2)
    dipped_count, dipped_read = numerics._inertia_count(dipped, couple, shifts)
    assert dipped_read == 81
    assert np.array_equal(dipped_count, count)
    theta, rungs_read = numerics._certified_lowest(rungs, couple, 6)
    dipped_theta, dipped_rungs_read = numerics._certified_lowest(dipped, couple, 6)
    assert np.array_equal(dipped_theta, theta)
    assert (rungs_read, dipped_rungs_read) == (37, 81)


def test_leading_levels_equal_the_checked_dense_solve_bit_for_bit():
    # the leading block is written from the band checked once per solve;
    # its levels are those of the checked dense block of the same rungs
    p = ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)
    band = numerics._band(*_sector_band(p, 100, -1))
    for lead in (4, 37, 101):
        dense = band_to_dense(band.rungs[:lead], band.couple[:lead - 1])
        checked = eigvals_sym(SymmetricMatrix(dense))[:6]
        assert np.array_equal(numerics._leading_levels(band, lead, 6), checked)


def test_first_lead_reads_of_later_rungs_only_that_they_pass_the_probe_level():
    # the first leading block of this band holds 37 rungs, 16 past the
    # crossing rung 21; lowering rung 80 to a Gershgorin bound still above
    # the probe's sixth level keeps it, lowering it below that level moves
    # the crossing rung past rung 80
    p = ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)
    rungs, couple = _sector_band(p, 100, 1)
    band = numerics._band(rungs, couple)
    theta_hat = numerics._leading_levels(band, 4, 6)[-1]
    assert numerics._first_lead(band, 6) == 37 and band.tail[21] > theta_hat >= band.tail[20]
    for bound, lead in ((theta_hat + 0.01, 37), (theta_hat - 0.01, 97)):
        dipped = rungs.copy()
        dipped[80] -= (band.low[80] - bound) * np.eye(2)
        assert numerics._first_lead(numerics._band(dipped, couple), 6) == lead


def test_inertia_count_of_a_random_band():
    # couplings of both signs, a diagonal that is not increasing, and rung
    # blocks with off-diagonals of both signs (a + a^T is exactly symmetric)
    rng = np.random.default_rng(11)
    half, couple = rng.normal(size=(30, 2, 2)), rng.normal(size=(29, 2, 2))
    rungs = half + half.transpose(0, 2, 1)
    assert np.all(rungs[:, 0, 1] != 0.0)
    dense = band_to_dense(rungs, couple)
    shifts = rng.uniform(-6.0, 6.0, 40)
    assert _count_mismatches((rungs, couple), dense, shifts) == 0


def test_stop_test_bounds_rows_with_the_rung_off_diagonal():
    # rung 30 holds diag 31 and off-diagonal 40, so a level near -9 sits
    # far down the band; a Gershgorin bound that missed the off-diagonal
    # would prove the band positive definite past rung 0 and stop there
    n = np.arange(40.0)
    rungs = np.zeros((40, 2, 2))
    rungs[:, (0, 1), (0, 1)] = np.stack([n + 1.0, n + 1.5], axis=1)
    rungs[30, 0, 1] = rungs[30, 1, 0] = 40.0
    couple = np.full((39, 2, 2), 0.1)
    dense = band_to_dense(rungs, couple)
    shifts = np.array([-12.0, -5.0, 0.5, 3.0])
    assert _count_mismatches((rungs, couple), dense, shifts) == 0
    assert inertia_count(rungs, couple, [0.5]).tolist() == [1]
    assert _lowest_error((rungs, couple), dense, 3) <= 1e-12


def test_solver_checks_fail_when_a_coupling_diagonal_is_dropped():
    # the two checks above against a band that lost the couplings
    # couple[:, 0, 1] while the dense sector keeps them
    p = ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)
    for n_max in (20, 90):
        (rungs, couple), dense = _sector(p, n_max, 1)
        mutated = couple.copy()
        mutated[:, 0, 1] = 0.0
        assert _lowest_error((rungs, couple), dense, 6) <= 1e-12
        assert _lowest_error((rungs, mutated), dense, 6) > 1e-3
        shifts = np.linspace(-5.0, 3.0, 17)
        assert _count_mismatches((rungs, couple), dense, shifts) == 0
        assert _count_mismatches((rungs, mutated), dense, shifts) > 0


@pytest.mark.parametrize("offset", [1e-6, -1e-6])
def test_eigvals_lowest_raises_when_the_certificate_fails(monkeypatch, offset):
    # leading-block levels off by 1e-6 are refused at every block size: the
    # sized first block (37 rungs after a 4-rung probe) and each doubling,
    # up to the whole band
    leading = numerics._leading_levels
    sizes = []

    def shifted(band, lead, k):
        sizes.append(lead)
        return leading(band, lead, k) + offset

    monkeypatch.setattr(numerics, "_leading_levels", shifted)
    p = ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)
    with pytest.raises(ConvergenceFailureError, match="not certified"):
        eigvals_lowest(*_sector_band(p, 90, 1), 6)
    assert sizes == [4, 37, 74, 91]


def test_eigvals_lowest_grows_the_leading_block_until_certified(monkeypatch):
    # a level at rung 0 coupled into a strongly coupled continuum whose
    # Gershgorin bounds pass it from rung 1 on, but only just: its
    # eigenvector decays slowly past that rung, so the sized first block
    # (17 rungs) fails the certificate and the doubled one holds
    leading = numerics._leading_levels
    sizes = []

    def recorded(band, lead, k):
        sizes.append(lead)
        return leading(band, lead, k)

    monkeypatch.setattr(numerics, "_leading_levels", recorded)
    rungs = np.zeros((120, 2, 2))
    rungs[:, 0, 0] = rungs[:, 1, 1] = 4.0 + 0.001 * np.arange(120)
    rungs[0] = np.diag([-1.0, 3.0])
    couple = np.full((119, 2, 2), 1.0)
    couple[0] = 0.3
    assert _lowest_error((rungs, couple), band_to_dense(rungs, couple), 1) <= 1e-12
    assert sizes == [4, 17, 34]


def test_inertia_count_handles_zero_pivots_without_warnings():
    # shifts equal to diagonal entries give exactly zero pivots: at every
    # rung of a decoupled band, and at the first rung of a coupled one
    p = ModelParams(omega=1.0, delta1=0.7, delta2=0.7, g1=0.0, g2=0.0)
    rungs, couple = _sector_band(p, 10, 1)
    diag = np.diagonal(rungs, axis1=1, axis2=2)
    coupled = (rungs, couple + 0.3)
    shifts = np.unique(diag)
    vals = np.linalg.eigvalsh(band_to_dense(*coupled))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decoupled_count = inertia_count(rungs, couple, shifts)
        coupled_count = inertia_count(*coupled, [diag[0, 0]])
    # a zero pivot counts as negative: a level at the shift is counted
    assert decoupled_count.tolist() == [int(np.sum(diag <= s)) for s in shifts]
    assert coupled_count.tolist() == [int(np.sum(vals < diag[0, 0]))]


def _numpy_inertia_count(rungs, couple, shifts):
    """The count loop the package ran on numpy arrays, every shift at once,
    before its scalar kernel: the reference that kernel must equal, in
    counts and rungs read, bit for bit."""
    rungs, couple = numerics._check_band(rungs, couple)
    s = np.atleast_1d(np.asarray(shifts, dtype=float))
    low, rows = numerics._row_sums(rungs, couple)
    low = low.min(axis=1)
    tail = np.minimum.accumulate(low[::-1])[::-1]
    pivmin = np.maximum(numerics._EPS * (rows.max(axis=1) + np.max(np.abs(s))), numerics._TINY)
    s_max = float(np.max(s))
    shifted = np.diagonal(rungs, axis1=1, axis2=2)[:, :, None] - s
    count = np.zeros(s.shape, dtype=int)
    s00, s01, s11 = shifted[0, 0], float(rungs[0, 0, 1]), shifted[0, 1]
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for n in range(len(rungs)):
                tiny = float(pivmin[n])
                p1 = np.where(np.abs(s00) < tiny, -tiny, s00)
                l = s01 / p1
                p2 = s11 - l * s01
                p2 = np.where(np.abs(p2) < tiny, -tiny, p2)
                count += p1 < 0.0
                count += p2 < 0.0
                if n == len(rungs) - 1:
                    break
                (b00, b01), (b10, b11) = couple[n].tolist()
                r1, r2 = 1.0 / p1, 1.0 / p2
                w0, w1 = b10 - l * b00, b11 - l * b01
                v0, v1 = w0 * r2, w1 * r2
                f00 = b00 * b00 * r1 + w0 * v0
                f01 = b00 * b01 * r1 + w0 * v1
                f11 = b01 * b01 * r1 + w1 * v1
                bound = float(tail[n + 1])
                if bound > s_max:
                    f_norm = np.maximum(np.abs(f00), np.abs(f11)) + np.abs(f01)
                    if np.max(f_norm + s) < bound:
                        break
                s00 = shifted[n + 1, 0] - f00
                s01 = float(rungs[n + 1, 0, 1]) - f01
                s11 = shifted[n + 1, 1] - f11
    except FloatingPointError as exc:
        raise ConvergenceFailureError(f"inertia count failed: {exc}") from exc
    if n == len(rungs) - 1:
        return count, len(rungs)
    return count, n + 2 + int(np.argmin(low[n + 1:]))


def _assert_count_is_the_numpy_loops(rungs, couple, shifts):
    count, read = numerics._inertia_count(rungs, couple, shifts)
    want_count, want_read = _numpy_inertia_count(rungs, couple, shifts)
    assert count.dtype == want_count.dtype
    assert count.tolist() == want_count.tolist() and read == want_read


def _diagonal_shifts(rungs, m):
    """m shifts, each a diagonal entry of the band."""
    return np.diagonal(rungs, axis1=1, axis2=2).ravel()[:m]


def test_scalar_count_equals_the_numpy_loop_on_random_bands():
    rng = np.random.default_rng(2024)
    for trial in range(120):
        size = int(rng.integers(1, 60))
        half = rng.normal(size=(size, 2, 2)) * rng.uniform(0.1, 5.0)
        rungs = half + half.transpose(0, 2, 1)
        if trial % 2:
            # a rising diagonal, so the count can stop early
            rungs += rng.uniform(0.0, 3.0) * np.arange(size)[:, None, None] * np.eye(2)
        couple = rng.normal(size=(size - 1, 2, 2)) * rng.uniform(0.0, 3.0)
        for m in (1, 12):
            shifts = rng.uniform(-8.0, 3.0 * size, m)
            _assert_count_is_the_numpy_loops(rungs, couple, shifts)
            _assert_count_is_the_numpy_loops(rungs, couple, _diagonal_shifts(rungs, m))


@pytest.mark.parametrize("n_max", [6, 40, 300])
def test_scalar_count_equals_the_numpy_loop_on_sector_bands(n_max):
    rng = np.random.default_rng(3 + n_max)
    for _ in range(3):
        p = _random_params(rng)
        for parity in (1, -1):
            rungs, couple = _sector_band(p, n_max, parity)
            # the certificate's shifts: the lowest six levels of a leading
            # block, each minus and plus a tolerance
            theta = np.linalg.eigvalsh(band_to_dense(rungs[:32], couple[:31]))[:6]
            for shifts in (np.concatenate([theta - 1e-12, theta + 1e-12]), theta[:1],
                           _diagonal_shifts(rungs, 12), _diagonal_shifts(rungs, 1)):
                _assert_count_is_the_numpy_loops(rungs, couple, shifts)


def test_scalar_count_equals_the_numpy_loop_on_zero_pivots_and_a_dipped_rung():
    p = ModelParams(omega=1.0, delta1=0.7, delta2=0.7, g1=0.0, g2=0.0)
    rungs, couple = _sector_band(p, 10, 1)
    diag = np.diagonal(rungs, axis1=1, axis2=2)
    _assert_count_is_the_numpy_loops(rungs, couple, np.unique(diag))
    _assert_count_is_the_numpy_loops(rungs, couple + 0.3, [diag[0, 0]])
    p = ModelParams(omega=1.0, delta1=1.357, delta2=2.0, g1=0.9, g2=0.7)
    rungs, couple = _sector_band(p, 100, 1)
    low = numerics._row_sums(rungs, couple)[0].min(axis=1)
    dipped = rungs.copy()
    dipped[80] -= (low[80] - low[24] + 0.5) * np.eye(2)
    for band in (rungs, dipped):
        _assert_count_is_the_numpy_loops(band, couple, [-4.0, -3.0, 0.5])


def test_an_overflowing_count_raises_and_never_counts():
    # pivots of order eps * 1e200 against couplings 1e200 overflow F
    rungs = np.zeros((6, 2, 2))
    rungs[:, 0, 0] = rungs[:, 1, 1] = 1e-300
    couple = np.full((5, 2, 2), 1e200)
    for shifts in ([0.0], np.linspace(-1.0, 1.0, 12)):
        with pytest.raises(ConvergenceFailureError, match="inertia count failed"):
            _numpy_inertia_count(rungs, couple, shifts)
        with pytest.raises(ConvergenceFailureError, match="inertia count failed"):
            inertia_count(rungs, couple, shifts)
    with pytest.raises(ConvergenceFailureError, match="inertia count failed"):
        eigvals_lowest(rungs, couple, 1)


def test_band_solver_rejects_bad_input():
    rungs, couple = np.zeros((4, 2, 2)), np.zeros((3, 2, 2))
    with pytest.raises(ValueError, match="couplings"):
        eigvals_lowest(rungs, couple[:2], 1)
    with pytest.raises(ValueError, match="k=9"):
        eigvals_lowest(rungs, couple, 9)
    with pytest.raises(NonFiniteError):
        inertia_count(np.full((4, 2, 2), np.nan), couple, [0.0])
    assert eigvals_lowest(rungs, couple, 8).tolist() == [0.0] * 8


def test_band_check_rejects_the_old_layout_an_asymmetric_and_a_nonfinite_rung():
    rungs, couple = np.zeros((4, 2, 2)), np.zeros((3, 2, 2))
    with pytest.raises(ValueError, match="rung blocks of shape"):
        numerics._check_band(np.zeros((4, 2)), couple)
    with pytest.raises(ValueError, match="rung blocks of shape"):
        band_to_dense(np.zeros((4, 2)), couple)
    lopsided = rungs.copy()
    lopsided[2, 0, 1] = 0.5
    with pytest.raises(ValueError, match="not exactly symmetric"):
        numerics._check_band(lopsided, couple)
    with pytest.raises(ValueError, match="not exactly symmetric"):
        inertia_count(lopsided, couple, [0.0])
    for value in (np.nan, np.inf):
        poisoned = rungs.copy()
        poisoned[1, 0, 1] = poisoned[1, 1, 0] = value
        with pytest.raises(NonFiniteError):
            numerics._check_band(poisoned, couple)
    # a batch of bands is for band_to_dense only
    with pytest.raises(ValueError, match="rung blocks of shape"):
        numerics._check_band(rungs[None], couple[None])
    assert band_to_dense(rungs[None], couple[None]).shape == (1, 8, 8)
