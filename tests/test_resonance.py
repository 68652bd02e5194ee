"""Displacement-root solvers, joint resonant designs, and window scans."""

import math

import numpy as np
import pytest

from rabi_spectra import (
    DegenerateDesignError,
    NoBracketError,
    SingularError,
    design_resonant,
    residual_eq8,
    residual_eq9,
    resonance_residual,
    scan_delta1_window,
    scan_lambda2_window,
    solve_lambda1,
    solve_lambda2,
    spectrum_vs_g1,
)

# Frozen from an independent oracle: sign-change scan of the residual on a
# 10^6-point grid over the admissible bracket followed by 200 plain
# bisection steps inside the bracketing cell.
LAM1_ORACLE = -0.7551713119529724  # omega=1, delta1=0.3, g1=0.9
LAM2_ORACLE = 0.29797713043845475  # omega=1, delta2=2.0, g2=0.7


def test_solve_lambda1_matches_grid_bisection_oracle():
    lam = solve_lambda1(1.0, 0.3, 0.9)
    assert lam < 0
    assert abs(lam - LAM1_ORACLE) < 1e-10
    assert abs(residual_eq8(1.0, 0.3, 0.9, lam)) < 1e-12


def test_solve_lambda2_matches_grid_bisection_oracle():
    lam = solve_lambda2(1.0, 2.0, 0.7)
    assert abs(lam - LAM2_ORACLE) < 1e-10
    assert abs(residual_eq9(1.0, 2.0, 0.7, lam)) < 1e-12


def test_zero_coupling_roots_are_exactly_zero():
    assert solve_lambda1(1.0, 0.7, 0.0) == 0.0
    assert solve_lambda2(1.0, 0.7, 0.0) == 0.0


def test_zero_splitting_gives_bare_displacement():
    # delta = 0 reduces both conditions to g + lam*omega = 0
    assert solve_lambda1(1.0, 0.0, 0.5) == pytest.approx(-0.5, abs=1e-12)
    assert solve_lambda2(1.0, 0.0, 0.5) == pytest.approx(-0.5, abs=1e-12)
    assert solve_lambda2(2.0, 0.0, 0.5) == pytest.approx(-0.25, abs=1e-12)


def test_solve_lambda2_positive_branch_picks_smallest_root():
    # for 2*delta2 > omega the admissible root sits left of the residual dip
    lam = solve_lambda2(1.0, 2.0, 0.3)
    assert 0 < lam < math.sqrt(0.5 * math.log(4.0))
    fprime_scale = 1.0  # df/dlam ~ O(1) near the root
    assert abs(residual_eq9(1.0, 2.0, 0.3, lam)) < 1e-11 * fprime_scale


def test_solve_lambda2_singular_when_dip_stays_positive():
    # at omega=1, delta2=2 the residual dip bottoms out near g2 ~ 0.762
    with pytest.raises(SingularError):
        solve_lambda2(1.0, 2.0, 0.85)


def test_no_bracket_when_residual_never_changes_sign():
    # monotone branch of the qubit-2 condition, residual positive on [-1, 0]
    with pytest.raises(NoBracketError):
        solve_lambda2(1.0, 0.4, 0.95)
    # qubit-1 condition with the root pushed outside the bracket
    with pytest.raises(NoBracketError):
        solve_lambda1(0.5, 0.0, 0.9)


def test_design_resonant_all_residuals_vanish():
    d = design_resonant(1.0, 2.0, 0.7, 0.9)
    assert abs(d.res_eq8) < 1e-10
    assert abs(d.res_eq9) < 1e-10
    assert abs(d.res_eq10) < 1e-10
    assert abs(resonance_residual(d.lambda1, d.lambda2, d.g1, d.g2, d.omega)) < 1e-10


def test_design_resonant_frozen_values():
    # frozen from this solver once cross-checked against the grid oracle;
    # guards against regressions in the closed-form delta1 expression
    d = design_resonant(1.0, 2.0, 0.7, 0.9)
    assert d.lambda2 == pytest.approx(0.29797713043845475, abs=1e-12)
    assert d.lambda1 == pytest.approx(-0.26872300898998197, abs=1e-12)
    assert d.delta1 == pytest.approx(1.3570870471315373, abs=1e-11)
    assert d.physical


def test_design_resonant_rejects_degenerate_inputs():
    with pytest.raises(DegenerateDesignError):
        design_resonant(1.0, 2.0, 0.7, 0.0)


def test_design_scale_invariance():
    # scaling (omega, delta2, g2, g1) by c leaves both displacement roots
    # unchanged and scales the derived delta1 by c
    c = 2.0
    base = design_resonant(1.0, 2.0, 0.7, 0.9)
    scaled = design_resonant(c * 1.0, c * 2.0, c * 0.7, c * 0.9)
    assert scaled.lambda1 == pytest.approx(base.lambda1, abs=1e-12)
    assert scaled.lambda2 == pytest.approx(base.lambda2, abs=1e-12)
    assert scaled.delta1 == pytest.approx(c * base.delta1, rel=1e-12)


def test_solve_lambda2_continuity_on_fine_grid():
    # no branch jumps: successive roots move by at most 5x the previous
    # secant step on a 0.01-spaced grid below the singular region
    grid = np.arange(0.1, 0.7501, 0.01)
    lams = [solve_lambda2(1.0, 2.0, float(g)) for g in grid]
    diffs = np.diff(lams)
    assert np.all(diffs > 0)
    for i in range(1, len(diffs)):
        assert abs(diffs[i]) <= 5.0 * abs(diffs[i - 1]) + 1e-12


def test_scan_lambda2_window_shape_and_monotonicity():
    rows = scan_lambda2_window(
        omega_values=[1.0],
        delta2_values=[1.0, 2.0],
        g2_grid=[0.1, 0.2, 0.3, 0.5, 0.7],
        threshold=0.1,
    )
    assert len(rows) == 10
    for key in ((1.0, 1.0), (1.0, 2.0)):
        lam_prev = None
        for r in rows:
            if (r.omega, r.delta2) != key or r.error is not None:
                continue
            if lam_prev is not None:
                assert r.lambda2 >= lam_prev
            lam_prev = r.lambda2
    # the small-g2 rows sit inside the default window, larger ones outside
    by = {(r.omega, r.delta2, r.g2): r for r in rows}
    assert by[(1.0, 2.0, 0.1)].in_window
    assert not by[(1.0, 2.0, 0.5)].in_window


def test_scan_lambda2_window_g2_zero_row():
    rows = scan_lambda2_window([1.0], [2.0], [0.0])
    assert rows[0].lambda2 == 0.0
    assert rows[0].error is None
    assert rows[0].in_window


def test_scan_lambda2_window_error_rows_recorded_not_raised():
    rows = scan_lambda2_window([1.0], [2.0], [0.3, 0.9])
    assert rows[0].error is None
    assert rows[1].error == "Singular"
    assert rows[1].lambda2 is None


def test_scan_delta1_window_spot_matches_design():
    rows = scan_delta1_window(
        omega_values=[1.0], delta2_values=[2.0], g2_grid=[0.7], g1=0.9
    )
    assert len(rows) == 1
    d = design_resonant(1.0, 2.0, 0.7, 0.9)
    assert rows[0].delta1 == d.delta1  # same code path, bitwise equal
    assert rows[0].lambda1 == d.lambda1


def test_scan_grids_must_be_strictly_increasing():
    with pytest.raises(ValueError):
        scan_lambda2_window([1.0], [2.0], [0.3, 0.3])
    with pytest.raises(ValueError):
        scan_lambda2_window([1.0], [2.0], [])


@pytest.mark.parametrize("grids, message", [
    (([0.0, 1.0], [2.0], [0.3]), "omega_values must be > 0, got 0.0"),
    (([1.0], [-2.0], [0.3]), "delta2_values must be >= 0, got -2.0"),
    (([1.0], [2.0], [-0.3, 0.3]), "g2_grid must be >= 0, got -0.3"),
])
def test_scan_grids_hold_the_bound_of_the_parameter_they_sweep(grids, message):
    with pytest.raises(ValueError, match=message):
        scan_lambda2_window(*grids)
    omegas, deltas, g2_grid = grids
    with pytest.raises(ValueError, match=message):
        scan_delta1_window(omegas, deltas, 0.9, g2_grid)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.1, 0.0])
def test_scans_reject_a_threshold_that_is_not_finite_and_positive(threshold):
    with pytest.raises(ValueError, match="threshold"):
        scan_lambda2_window([1.0], [2.0], [0.3], threshold)
    with pytest.raises(ValueError, match="threshold"):
        scan_delta1_window([1.0], [2.0], 0.9, [0.3], threshold)


def test_to_dict_equals_asdict_in_field_order():
    import dataclasses

    rows = scan_lambda2_window([1.0], [2.0], [0.0, 0.3, 0.9])
    rows += scan_delta1_window([1.0], [2.0], g1=0.9, g2_grid=[0.7])
    assert any(r.error for r in rows) and any(r.error is None for r in rows)
    for r in rows:
        assert list(r.to_dict().items()) == list(dataclasses.asdict(r).items())
    d = design_resonant(1.0, 2.0, 0.7, 0.9)
    expected = {**dataclasses.asdict(d), "approx_valid": d.approx_valid,
                "physical": d.physical}
    assert list(d.to_dict().items()) == list(expected.items())


@pytest.mark.parametrize("g1", [math.nan, math.inf, -0.5, True, 10 ** 400],
                         ids=["nan", "inf", "negative", "True", "huge"])
@pytest.mark.parametrize("call", [
    lambda g1: design_resonant(1.0, 2.0, 0.7, g1),
    lambda g1: scan_delta1_window([1.0], [2.0], g1, [0.7]),
    lambda g1: spectrum_vs_g1(1.0, 2.0, 0.7, [g1], n_blocks=1),
], ids=["design_resonant", "scan_delta1_window", "spectrum_vs_g1"])
def test_a_g1_that_is_not_a_finite_non_negative_number_is_rejected(call, g1):
    # a nan g1 used to give a design, or a scan row, of nan numbers
    with pytest.raises(ValueError, match="g1"):
        call(g1)
