"""Displacement solvers and the resonant parameter design.

Two scalar conditions fix the displacements:

  qubit 1:  (g1 + lam1*omega) + 2*delta1*lam1*exp(-2*lam1^2) = 0,  lam1 <= 0
  qubit 2:  (g2 + lam2*omega) - 2*delta2*lam2*exp(-2*lam2^2) = 0

and a cross condition ties them together,

  2*lam2*g1 + 2*g2*lam1 + 2*lam1*lam2*omega = 0.

The design flow solves the qubit-2 condition for lam2, takes lam1 from the
cross condition, and then inverts the qubit-1 condition for delta1 (g1 is
the last adjustable variable).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .model import LAMBDA_WINDOW, in_lambda_window, residual_eq8, residual_eq9, resonance_residual
from .numerics import (
    NoBracketError,
    NonFiniteError,
    check_bound,
    check_grid,
    error_token,
    find_root,
)
from .serialize import record_dict

# Bracket width used by the solvers.  Downstream block-closure checks need
# residuals near machine precision, so the solvers polish well past the
# 1e-12 residual contract.
_LAMBDA_TOL = 1e-15


class SingularError(ArithmeticError):
    """No root exists inside the admissible bracket (parameters out of regime)."""


class DegenerateDesignError(ValueError):
    """The design formulas degenerate (division by zero coupling or displacement)."""


class NonphysicalDesignError(ValueError):
    """A resonant design derived a qubit-1 splitting delta1 <= 0.  Its
    token, NonphysicalDesign, is the one spectrum rows record for such a
    point."""


def solve_lambda1(omega: float, delta1: float, g1: float) -> float:
    """Solve the qubit-1 condition for lambda1 in [-1, 0].

    g1 = 0 returns 0.0 exactly.  delta1 = 0 reduces to g1 + lam*omega = 0.
    Raises NoBracketError when no sign change exists on [-1, 0], which
    signals parameters outside the method's regime.  Raises ValueError
    unless omega > 0 and delta1, g1 >= 0, all finite numbers.
    """
    check_bound("omega", omega, ">", 0)
    check_bound("delta1", delta1, ">=", 0)
    check_bound("g1", g1, ">=", 0)
    if g1 == 0.0:
        return 0.0
    return find_root(lambda lam: residual_eq8(omega, delta1, g1, lam), -1.0, 0.0, _LAMBDA_TOL)


def solve_lambda2(omega: float, delta2: float, g2: float) -> float:
    """Solve the qubit-2 condition for the root of smallest magnitude.

    When 2*delta2 > omega the admissible bracket is (0, lam_star) with
    lam_star = sqrt(ln(2*delta2/omega)/2), the point where the linear and
    dressed terms change dominance.  The residual there dips below zero
    between two positive crossings; the smaller crossing is returned.
    Raises SingularError when the dip never reaches zero.

    Otherwise (2*delta2 <= omega) the residual is monotone and the unique
    root is negative; the bracket is [-1, 0].  Raises ValueError unless
    omega > 0 and delta2, g2 >= 0, all finite numbers.
    """
    check_bound("omega", omega, ">", 0)
    check_bound("delta2", delta2, ">=", 0)
    check_bound("g2", g2, ">=", 0)
    if g2 == 0.0:
        return 0.0

    def f(lam: float) -> float:
        return residual_eq9(omega, delta2, g2, lam)

    if 2.0 * delta2 > omega:
        lam_star = math.sqrt(0.5 * math.log(2.0 * delta2 / omega))

        # Locate the single interior minimum of f on (0, lam_star): f' is
        # negative at 0, positive by lam = 1/2 at the latest, and strictly
        # increasing in between.
        def fp(lam: float) -> float:
            return omega - 2.0 * delta2 * math.exp(-2.0 * lam * lam) * (1.0 - 4.0 * lam * lam)

        lam_dip = find_root(fp, 0.0, min(0.5, lam_star), _LAMBDA_TOL)
        f_dip = f(lam_dip)
        if f_dip > 0.0:
            raise SingularError(
                f"no root of the qubit-2 condition in (0, {lam_star:.6g}): "
                f"minimum residual {f_dip:.3g} at lambda2={lam_dip:.6g}"
            )
        if f_dip == 0.0:
            return lam_dip
        return find_root(f, 0.0, lam_dip, _LAMBDA_TOL)

    # monotone branch: root, if any, lies in [-1, 0)
    if f(-1.0) > 0.0:
        raise NoBracketError(
            f"qubit-2 residual has no sign change on [-1, 0] "
            f"(omega={omega}, delta2={delta2}, g2={g2})"
        )
    return find_root(f, -1.0, 0.0, _LAMBDA_TOL)


@dataclass(frozen=True)
class ResonantDesign:
    """Solved displacements plus the derived qubit-1 splitting.

    res_eq8/res_eq9/res_eq10 record the absolute residuals of the three
    design conditions at the returned values.
    """
    omega: float
    delta2: float
    g2: float
    g1: float
    lambda1: float
    lambda2: float
    delta1: float
    res_eq8: float
    res_eq9: float
    res_eq10: float

    @property
    def approx_valid(self) -> bool:
        return in_lambda_window(self.lambda1, self.lambda2)

    @property
    def physical(self) -> bool:
        """delta1 > 0 is required for a physical qubit splitting."""
        return self.delta1 > 0.0

    def to_dict(self) -> dict:
        d = record_dict(self)
        d["approx_valid"] = self.approx_valid
        d["physical"] = self.physical
        return d


def design_resonant(omega: float, delta2: float, g2: float, g1: float) -> ResonantDesign:
    """Complete a resonant parameter set from (omega, delta2, g2, g1).

    lam2 from the qubit-2 condition, lam1 = -lam2*g1/(g2 + lam2*omega) from
    the cross condition, delta1 by inverting the qubit-1 condition.  The
    derived delta1 may come out nonphysical (<= 0); that is reported via
    the ``physical`` flag, not raised.  Raises ValueError unless g1 >= 0
    and finite (and omega, delta2, g2 as solve_lambda2 checks them).
    """
    return _design(omega, delta2, g2, g1, functools.partial(solve_lambda2, omega, delta2, g2))


def _design(omega: float, delta2: float, g2: float, g1: float,
            lambda2: Callable[[], float]) -> ResonantDesign:
    """design_resonant, with lambda2() in place of solve_lambda2(omega,
    delta2, g2), called once g1 has passed its checks; a sweep over g1
    passes one that solves only once."""
    check_bound("g1", g1, ">=", 0)
    if g1 == 0.0:
        raise DegenerateDesignError("g1 = 0 leaves lambda1 = 0 and delta1 undetermined")
    lam2 = lambda2()
    denom = g2 + lam2 * omega
    if denom == 0.0:
        raise DegenerateDesignError("g2 + lambda2*omega = 0: cross condition degenerate")
    lam1 = -lam2 * g1 / denom
    if lam1 == 0.0:
        raise DegenerateDesignError(
            "lambda1 = 0 (lambda2 vanished): cannot invert the qubit-1 condition"
        )
    delta1 = -(g1 + lam1 * omega) / (2.0 * lam1 * math.exp(-2.0 * lam1 * lam1))
    return ResonantDesign(
        omega=omega,
        delta2=delta2,
        g2=g2,
        g1=g1,
        lambda1=lam1,
        lambda2=lam2,
        delta1=delta1,
        res_eq8=abs(residual_eq8(omega, delta1, g1, lam1)),
        res_eq9=abs(residual_eq9(omega, delta2, g2, lam2)),
        res_eq10=abs(resonance_residual(lam1, lam2, g1, g2, omega)),
    )


@dataclass(frozen=True)
class WindowScanRow:
    """One sweep point of a window scan.

    Fields that a given scan kind does not produce stay None.  ``error``
    holds a short token (NoBracket, Singular, ...) when the point failed;
    failed points never abort a sweep.
    """
    omega: float
    delta2: float
    g2: float
    g1: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    delta1: float | None = None
    in_window: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return record_dict(self)


# the failures a scan records per row instead of raising
_POINT_ERRORS = (NoBracketError, SingularError, NonFiniteError, DegenerateDesignError)


def _scan(
    omega_values: Sequence[float],
    delta2_values: Sequence[float],
    g2_grid: Sequence[float],
    threshold: float,
    g1: float | None,
    point: Callable[[float, float, float], dict],
) -> list[WindowScanRow]:
    """One WindowScanRow per grid point, in nested grid order (omega
    outermost, g2 innermost): the fields point(omega, delta2, g2) returns,
    or the error token of a failure it raises."""
    grids = [check_grid(name, values, op, 0) for name, values, op in (
        ("omega_values", omega_values, ">"), ("delta2_values", delta2_values, ">="),
        ("g2_grid", g2_grid, ">="))]
    check_bound("threshold", threshold, ">", 0)
    rows = []
    for omega, delta2, g2 in itertools.product(*grids):
        try:
            fields = point(omega, delta2, g2)
        except _POINT_ERRORS as exc:
            fields = {"error": error_token(exc)}
        rows.append(WindowScanRow(omega, delta2, g2, g1=g1, **fields))
    return rows


def scan_lambda2_window(
    omega_values: Sequence[float],
    delta2_values: Sequence[float],
    g2_grid: Sequence[float],
    threshold: float = LAMBDA_WINDOW,
) -> list[WindowScanRow]:
    """Sweep lambda2 over (omega, delta2, g2) and flag |lambda2| <= threshold.

    Row order is the nested grid order: omega outermost, g2 innermost.
    Raises ValueError unless every grid passes numerics.check_grid
    (non-empty, finite, strictly increasing, within the bound of the
    parameter it sweeps) and threshold is positive and finite.
    """
    def point(omega: float, delta2: float, g2: float) -> dict:
        lam2 = solve_lambda2(omega, delta2, g2)
        return {"lambda2": lam2, "in_window": abs(lam2) <= threshold}

    return _scan(omega_values, delta2_values, g2_grid, threshold, None, point)


def scan_delta1_window(
    omega_values: Sequence[float],
    delta2_values: Sequence[float],
    g1: float,
    g2_grid: Sequence[float],
    threshold: float = LAMBDA_WINDOW,
) -> list[WindowScanRow]:
    """Sweep the designed delta1 over (omega, delta2, g2) at fixed g1.

    A point is in the window when the derived delta1 is physical (> 0) and
    |lambda1| <= threshold.  Inputs are checked as in scan_lambda2_window,
    and g1 must be >= 0 and finite.
    """
    check_bound("g1", g1, ">=", 0)

    def point(omega: float, delta2: float, g2: float) -> dict:
        des = design_resonant(omega, delta2, g2, g1)
        return {"lambda1": des.lambda1, "lambda2": des.lambda2, "delta1": des.delta1,
                "in_window": des.physical and abs(des.lambda1) <= threshold}

    return _scan(omega_values, delta2_values, g2_grid, threshold, g1, point)
