"""Model parameters and displaced-frame coefficient functions.

The Hamiltonian is a single bosonic mode of frequency omega coupled to two
qubits with splittings delta1, delta2 and couplings g1, g2 (units of omega
throughout).  After displacing the mode by lambda_i per qubit, the dressed
qubit operators pick up photon-number dependent weights built from
generalized Laguerre polynomials:

    G0(n)      = exp(-2 lam^2) L_n(4 lam^2)
    F1(n+1, n) = 2 lam exp(-2 lam^2) L_n^1(4 lam^2) / sqrt(n+1)

The small-lambda approximation replaces L_n -> 1 and L_n^1 -> n+1, which
turns F1(n+1, n) into 2 lam exp(-2 lam^2) sqrt(n+1).  Primed coefficients
(G0', F1') are the same functions evaluated at lambda2.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_bound, check_number, laguerre_table

# Half-width of the small-displacement window |lambda| <= LAMBDA_WINDOW, where
# the small-lambda treatment of the Laguerre weights is controlled.
LAMBDA_WINDOW = 0.1


def in_lambda_window(*lambdas: float) -> bool:
    """Every |lambda| <= LAMBDA_WINDOW: the one statement of the window."""
    return all(abs(lam) <= LAMBDA_WINDOW for lam in lambdas)


# Smallest photon truncation of the exact-diagonalization builders (oracle).
MIN_N_MAX = 4

# Ket labels of the spin-x eigenvalues +1 and -1.
SPIN_CHARS = {1: "+", -1: "-"}

# sigma-z product labels, lexicographic: e < g, e -> +1, g -> -1
_ZLABELS = (("e", "e"), ("e", "g"), ("g", "e"), ("g", "g"))


class CoefficientMode(str, enum.Enum):
    """Laguerre treatment: full polynomials or the small-lambda limit."""
    APPROX = "approx"
    EXACT = "exact"


@dataclass(frozen=True)
class ModelParams:
    """Two-qubit one-mode parameters, all in units where hbar = 1.

    omega must be positive; splittings and couplings nonnegative; all
    finite numbers (numerics.check_bound).
    """
    omega: float
    delta1: float
    delta2: float
    g1: float
    g2: float

    def __post_init__(self):
        check_bound("omega", self.omega, ">", 0, type(self).__name__)
        for name in ("delta1", "delta2", "g1", "g2"):
            check_bound(name, getattr(self, name), ">=", 0, type(self).__name__)

    @property
    def ultrastrong(self) -> bool:
        """Advisory flag: both couplings within 0.1 <= g/omega <= 1."""
        return all(0.1 <= g / self.omega <= 1.0 for g in (self.g1, self.g2))


@dataclass(frozen=True)
class TrwaParams:
    """Displacement parameters of the two qubit-conditioned mode shifts."""
    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            check_number(name, getattr(self, name))

    @property
    def approx_valid(self) -> bool:
        """Small-displacement regime where the Laguerre truncation is controlled."""
        return in_lambda_window(self.lambda1, self.lambda2)


def coeff_g0_table(lam: float, n_max: int,
                   mode: CoefficientMode = CoefficientMode.EXACT) -> np.ndarray:
    """Diagonal dressing weights G0(n) at displacement lam, n = 0 .. n_max,
    from one Laguerre recurrence.

    exact:  exp(-2 lam^2) L_n(4 lam^2)
    approx: exp(-2 lam^2)
    """
    mode = CoefficientMode(mode)
    if n_max < 0:
        raise ValueError(f"photon number n_max={n_max} must be nonnegative")
    damp = math.exp(-2.0 * lam * lam)
    if mode == CoefficientMode.APPROX:
        return np.full(n_max + 1, damp)
    return damp * laguerre_table(n_max, 0, 4.0 * lam * lam)


def coeff_f1_table(lam: float, n_max: int,
                   mode: CoefficientMode = CoefficientMode.EXACT) -> np.ndarray:
    """One-photon dressing weights F1(n+1, n) at displacement lam,
    n = 0 .. n_max, from one Laguerre recurrence.

    exact:  2 lam exp(-2 lam^2) L_n^1(4 lam^2) / sqrt(n+1)
    approx: 2 lam exp(-2 lam^2) sqrt(n+1)
    """
    mode = CoefficientMode(mode)
    if n_max < 0:
        raise ValueError(f"photon number n_max={n_max} must be nonnegative")
    damp = 2.0 * lam * math.exp(-2.0 * lam * lam)
    root = np.sqrt(np.arange(n_max + 1) + 1.0)
    if mode == CoefficientMode.APPROX:
        return damp * root
    return damp * laguerre_table(n_max, 1, 4.0 * lam * lam) / root


def coeff_g0(lam: float, n: int, mode: CoefficientMode = CoefficientMode.EXACT) -> float:
    """Diagonal dressing weight G0(n) at displacement lam: the last entry
    of coeff_g0_table(lam, n, mode)."""
    return float(coeff_g0_table(lam, n, mode)[n])


def coeff_f1(lam: float, n: int, mode: CoefficientMode = CoefficientMode.EXACT) -> float:
    """One-photon dressing weight F1(n+1, n) at displacement lam: the last
    entry of coeff_f1_table(lam, n, mode)."""
    return float(coeff_f1_table(lam, n, mode)[n])


def residual_eq8(omega: float, delta1: float, g1: float, lambda1: float) -> float:
    """Qubit-1 resonance residual (g1 + lambda1*omega) + 2*delta1*lambda1*exp(-2*lambda1^2).

    Zero at the displacement that cancels the qubit-1 one-photon coupling
    in the small-lambda limit.  Odd in lambda1 when g1 = 0.
    """
    return (g1 + lambda1 * omega) + 2.0 * delta1 * lambda1 * math.exp(-2.0 * lambda1 * lambda1)


def residual_eq9(omega: float, delta2: float, g2: float, lambda2: float) -> float:
    """Qubit-2 resonance residual (g2 + lambda2*omega) - 2*delta2*lambda2*exp(-2*lambda2^2).

    Note the relative minus sign against residual_eq8: the qubit-2 branch
    cancels with a positive displacement when 2*delta2 > omega.
    """
    return (g2 + lambda2 * omega) - 2.0 * delta2 * lambda2 * math.exp(-2.0 * lambda2 * lambda2)


def resonance_residual(lambda1: float, lambda2: float, g1: float, g2: float, omega: float) -> float:
    """Cross condition 2*lambda2*g1 + 2*g2*lambda1 + 2*lambda1*lambda2*omega.

    This is the same-photon-number matrix element between the two
    double-spin-flip partners inside a parity chain; a resonant design
    drives it to zero.
    """
    return 2.0 * lambda2 * g1 + 2.0 * g2 * lambda1 + 2.0 * lambda1 * lambda2 * omega


def constant_offset(p: ModelParams, t: TrwaParams) -> float:
    """Global diagonal shift produced by the displacements.

    lambda1^2 omega + lambda2^2 omega + 2 lambda1 g1 + 2 lambda2 g2.
    Reported separately so spectra can be compared shift-free.
    """
    return (
        t.lambda1 * t.lambda1 * p.omega
        + t.lambda2 * t.lambda2 * p.omega
        + 2.0 * t.lambda1 * p.g1
        + 2.0 * t.lambda2 * p.g2
    )
