"""Displaced-frame coefficient functions and residual definitions."""

import dataclasses
import math

import pytest

from rabi_spectra import (
    CoefficientMode,
    ModelParams,
    TrwaParams,
    coeff_f1,
    coeff_g0,
    constant_offset,
    design_resonant,
    resonance_residual,
    residual_eq8,
    residual_eq9,
)
from rabi_spectra.model import in_lambda_window


def test_coeff_g0_spot_values():
    assert coeff_g0(0.0, 0) == 1.0
    # at n = 0 the Laguerre factor is 1, so exact == approx
    e = math.exp(-2 * 0.1**2)
    assert coeff_g0(0.1, 0, CoefficientMode.EXACT) == pytest.approx(e, rel=1e-15)
    assert coeff_g0(0.1, 0, CoefficientMode.APPROX) == pytest.approx(e, rel=1e-15)
    # n = 1 exact picks up L_1(4 lam^2) = 1 - 0.04
    assert coeff_g0(0.1, 1, CoefficientMode.EXACT) == pytest.approx(
        e * (1.0 - 0.04), rel=1e-15
    )
    assert coeff_g0(0.1, 1, CoefficientMode.APPROX) == pytest.approx(e, rel=1e-15)


def test_coeff_f1_spot_values():
    assert coeff_f1(0.0, 0) == 0.0
    val = 2 * 0.1 * math.exp(-2 * 0.1**2)
    assert coeff_f1(0.1, 0, CoefficientMode.EXACT) == pytest.approx(val, rel=1e-15)
    assert coeff_f1(0.1, 0, CoefficientMode.APPROX) == pytest.approx(val, rel=1e-15)


def test_coeff_f1_exact_vs_approx_diverge_at_higher_rungs():
    # exact carries L_2^1(4 lam^2)/3 where approx has 1 (after the sqrt(n+1)
    # normalizations are folded in)
    lam = 0.1
    x = 4 * lam * lam
    l21 = 3.0 - 3.0 * x + x * x / 2.0
    exact = coeff_f1(lam, 2, CoefficientMode.EXACT)
    approx = coeff_f1(lam, 2, CoefficientMode.APPROX)
    assert exact == pytest.approx(approx * l21 / 3.0, rel=1e-13)
    assert exact != approx


def test_small_lambda_coefficient_error_bound():
    # relative exact-vs-approx difference stays below 8 n lam^2 for the
    # ladder range used anywhere in the package
    for lam in (-0.01, -0.004, 0.003, 0.01):
        for n in range(1, 21):
            bound = 4.0 * lam * lam * n * 2.0
            g_ex = coeff_g0(lam, n, CoefficientMode.EXACT)
            g_ap = coeff_g0(lam, n, CoefficientMode.APPROX)
            assert abs(g_ex - g_ap) / abs(g_ex) <= bound
            f_ex = coeff_f1(lam, n, CoefficientMode.EXACT)
            f_ap = coeff_f1(lam, n, CoefficientMode.APPROX)
            assert abs(f_ex - f_ap) / abs(f_ex) <= bound


def test_residual_eq8_hand_value():
    # (g1 + lam*omega) + 2 delta1 lam e^{-2 lam^2} written out by hand
    got = residual_eq8(1.0, 0.3, 0.9, -0.5)
    ref = 0.9 - 0.5 + 2 * 0.3 * (-0.5) * math.exp(-0.5)
    assert got == pytest.approx(ref, rel=1e-15)


def test_residual_eq9_hand_value():
    got = residual_eq9(1.0, 2.0, 0.7, 0.2)
    ref = 0.7 + 0.2 - 2 * 2.0 * 0.2 * math.exp(-2 * 0.04)
    assert got == pytest.approx(ref, rel=1e-15)


def test_resonance_residual_hand_value():
    got = resonance_residual(-0.2, 0.25, 0.9, 0.7, 1.0)
    ref = 2 * 0.25 * 0.9 + 2 * 0.7 * (-0.2) + 2 * (-0.2) * 0.25 * 1.0
    assert got == pytest.approx(ref, rel=1e-15)


def test_residual_eq8_strictly_increasing_in_g1():
    prev = None
    for g1 in (0.0, 0.2, 0.4, 0.8, 1.6):
        cur = residual_eq8(1.0, 0.7, g1, -0.3)
        if prev is not None:
            assert cur > prev
        prev = cur


def test_residuals_odd_in_lambda_at_zero_coupling():
    # with g = 0 both conditions reduce to odd functions of lambda
    for lam in (0.1, 0.37, 0.8):
        assert residual_eq8(1.0, 0.6, 0.0, lam) == -residual_eq8(1.0, 0.6, 0.0, -lam)
        assert residual_eq9(1.0, 0.6, 0.0, lam) == -residual_eq9(1.0, 0.6, 0.0, -lam)


def test_constant_offset_hand_value():
    p = ModelParams(omega=1.0, delta1=0.5, delta2=1.5, g1=0.2, g2=0.4)
    t = TrwaParams(lambda1=-0.1, lambda2=0.3)
    ref = 0.01 * 1.0 + 0.09 * 1.0 + 2 * (-0.1) * 0.2 + 2 * 0.3 * 0.4
    assert constant_offset(p, t) == pytest.approx(ref, rel=1e-15)


def test_model_params_validation_and_flags():
    with pytest.raises(ValueError):
        ModelParams(omega=0.0, delta1=1.0, delta2=1.0, g1=0.1, g2=0.1)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, delta1=1.0, delta2=1.0, g1=-0.1, g2=0.1)
    assert ModelParams(omega=1.0, delta1=1.0, delta2=1.0, g1=0.5, g2=0.9).ultrastrong
    assert not ModelParams(omega=1.0, delta1=1.0, delta2=1.0, g1=0.05, g2=0.9).ultrastrong
    assert TrwaParams(lambda1=-0.1, lambda2=0.05).approx_valid
    assert not TrwaParams(lambda1=-0.3, lambda2=0.05).approx_valid


@pytest.mark.parametrize("lambda1, lambda2", [
    (-0.1, 0.05), (-0.3, 0.05), (0.1, -0.1), (0.05, 0.1000000000000001), (0.0, -0.2),
])
def test_both_displacement_records_read_one_window(lambda1, lambda2):
    inside = abs(lambda1) <= 0.1 and abs(lambda2) <= 0.1
    design = dataclasses.replace(design_resonant(1.0, 2.0, 0.7, 0.9),
                                 lambda1=lambda1, lambda2=lambda2)
    assert in_lambda_window(lambda1, lambda2) is inside
    assert TrwaParams(lambda1=lambda1, lambda2=lambda2).approx_valid is inside
    assert design.approx_valid is inside


def test_coefficient_mode_accepts_strings_and_rejects_junk():
    assert coeff_g0(0.1, 1, "approx") == coeff_g0(0.1, 1, CoefficientMode.APPROX)
    assert coeff_g0(0.1, 1, "exact") == coeff_g0(0.1, 1, CoefficientMode.EXACT)
    with pytest.raises(ValueError):
        coeff_g0(0.1, 1, "bogus")
    with pytest.raises(ValueError):
        coeff_f1(0.1, 1, "bogus")
