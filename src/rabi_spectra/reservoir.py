"""Pseudomode reservoir: effective two-mode chains, dark states, and the
quasi-exact truncated subspace.

A structured reservoir is modeled as a single pseudomode b (frequency
omega1, Lorentzian weight) exchanging excitations with the cavity a.  After
eliminating the direct exchange and displacing the cavity per qubit, the
photon couplings collapse into single coefficients

    eta_i = 2 delta_i exp(-(g_i/(omega - 2 delta_i))^2)
    K_i   = g_i - mu_i omega - 2 delta_i mu_i exp(-2 mu_i^2),
    mu_i  = g_i / (omega - eta_i)

while the pseudomode couplings g_i' stay bare.  Chain selection rules in
the spin-x labeled basis: a photon coupling raises the flipped spin as it
raises n (weight K_i sqrt(n+1)); a pseudomode coupling lowers the flipped
spin as it raises m (weight g_i' sqrt(m+1)); nothing else connects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import SPIN_CHARS, CoefficientMode, coeff_g0
from .numerics import SymmetricMatrix, eigh, sym_set
from .serialize import record_dict

class SingularEtaError(ArithmeticError):
    """omega = 2*delta makes the eta exponent blow up."""


class SingularDenominatorError(ArithmeticError):
    """omega - eta is (numerically) zero, so mu = g/(omega - eta) diverges."""


class AsymmetricParamsError(ValueError):
    """An operation that assumes g1 = g2, delta1 = delta2, g1' = g2' got
    asymmetric parameters."""


@dataclass(frozen=True)
class ReservoirParams:
    """Cavity a (omega), pseudomode b (omega1), exchange V, qubit couplings
    g_i to the cavity and g_i' to the pseudomode, splittings delta_i."""
    omega: float
    omega1: float
    v: float
    g1: float
    g2: float
    g1p: float
    g2p: float
    delta1: float
    delta2: float

    def __post_init__(self):
        for name in ("omega", "omega1"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        for name in ("v", "g1", "g2", "g1p", "g2p", "delta1", "delta2"):
            val = getattr(self, name)
            if val < 0.0 or not math.isfinite(val):
                raise ValueError(f"{name} must be nonnegative and finite, got {val}")

    @property
    def symmetric(self) -> bool:
        """Exact symmetry between the two qubits (float equality intended)."""
        return self.g1 == self.g2 and self.delta1 == self.delta2 and self.g1p == self.g2p


def check_seed(m: int, n: int) -> None:
    """Raise ValueError unless the singlet seed (m, n) has m + n even."""
    if (m + n) % 2 != 0:
        raise ValueError(f"m + n must be even for a singlet seed, got ({m}, {n})")


def lorentzian_density(omega_eval: float, gamma: float, omega_c: float) -> float:
    """Reservoir spectral weight gamma / ((omega - omega_c)^2 + (gamma/2)^2).

    Peak value 4/gamma at omega_c, half maximum at omega_c +/- gamma/2.
    """
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    for name, value in (("omega_eval", omega_eval), ("omega_c", omega_c)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    d = omega_eval - omega_c
    half = 0.5 * gamma
    return gamma / (d * d + half * half)


@dataclass(frozen=True)
class ReservoirCoefficients:
    """Folded photon couplings K_i plus the implied displacements."""
    eta1: float
    eta2: float
    k1: float
    k2: float
    lambda1: float
    lambda2: float

    def to_dict(self) -> dict:
        return record_dict(self)


def _k_one(omega: float, delta: float, g: float) -> tuple[float, float, float]:
    if omega == 2.0 * delta:
        raise SingularEtaError(f"omega = 2*delta = {omega}: eta undefined")
    eta = 2.0 * delta * math.exp(-((g / (omega - 2.0 * delta)) ** 2))
    den = omega - eta
    if abs(den) < 1e-12:
        raise SingularDenominatorError(f"omega - eta = {den:.3e} too close to zero")
    mu = g / den
    k = g - mu * omega - 2.0 * delta * mu * math.exp(-2.0 * mu * mu)
    return eta, k, -mu


def compute_K(r: ReservoirParams) -> ReservoirCoefficients:
    """Fold each qubit's cavity coupling into a single coefficient K_i.

    Identical inputs for the two qubits give bitwise identical K's, which
    downstream symmetry cancellations rely on.
    """
    eta1, k1, lam1 = _k_one(r.omega, r.delta1, r.g1)
    eta2, k2, lam2 = _k_one(r.omega, r.delta2, r.g2)
    return ReservoirCoefficients(eta1=eta1, eta2=eta2, k1=k1, k2=k2,
                                 lambda1=lam1, lambda2=lam2)


def reservoir_constant(r: ReservoirParams, coeffs: ReservoirCoefficients) -> float:
    """Global diagonal shift from the implied displacements."""
    return (
        coeffs.lambda1 ** 2 * r.omega
        + coeffs.lambda2 ** 2 * r.omega
        + 2.0 * coeffs.lambda1 * r.g1
        + 2.0 * coeffs.lambda2 * r.g2
    )


@dataclass(frozen=True)
class ReservoirChainState:
    """|m, n, s1, s2>: pseudomode m, photon n, spin-x labels +/-1."""
    m: int
    n: int
    s1: int
    s2: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"mode indices must be nonnegative, got ({self.m}, {self.n})")
        if self.s1 not in (-1, 1) or self.s2 not in (-1, 1):
            raise ValueError(f"spin labels must be +1 or -1, got ({self.s1}, {self.s2})")

    @property
    def parity(self) -> int:
        """Eigenvalue of the two-mode parity (photon and pseudomode number
        parities times both qubit inversions)."""
        return (1 if (self.m + self.n) % 2 == 0 else -1) * self.s1 * self.s2

    def ket(self) -> str:
        return f"|{self.m},{self.n},{SPIN_CHARS[self.s1]},{SPIN_CHARS[self.s2]}>"


def _shell_states(m0: int, n0: int, k: int) -> list[ReservoirChainState]:
    """States of excitation shell k relative to the seed pair at (m0, n0).

    Even shells hold the two +-/-+ states at (m0+j, n0+j), odd shells the
    --/++ pair one step up either mode.  Candidates with a negative index
    are dropped (lattice boundary)."""
    out = []
    if k % 2 == 0:
        j = k // 2
        m, n = m0 + j, n0 + j
        if m >= 0 and n >= 0:
            out.append(ReservoirChainState(m, n, 1, -1))
            out.append(ReservoirChainState(m, n, -1, 1))
    else:
        j = (k - 1) // 2
        if m0 + j + 1 >= 0 and n0 + j >= 0:
            out.append(ReservoirChainState(m0 + j + 1, n0 + j, -1, -1))
        if m0 + j >= 0 and n0 + j + 1 >= 0:
            out.append(ReservoirChainState(m0 + j, n0 + j + 1, 1, 1))
    return out


@dataclass(frozen=True)
class ReservoirChain:
    """Chain window around the seed pair at (m0, n0), shells -1 .. depth."""
    m0: int
    n0: int
    depth: int
    states: tuple[ReservoirChainState, ...]

    def index(self, state: ReservoirChainState) -> int:
        return self.states.index(state)

    def labels(self) -> tuple[str, ...]:
        return tuple(s.ket() for s in self.states)

    def shell_of(self, state: ReservoirChainState) -> int:
        return (state.m + state.n) - (self.m0 + self.n0)


def build_reservoir_chain(m0: int, n0: int, depth: int) -> ReservoirChain:
    """Enumerate the chain window: shells k = -1 .. depth around the seed.

    The seed (m0, n0) must have m0 + n0 even so the +-/-+ pair carries the
    odd two-mode parity; every listed state shares that parity.
    """
    if m0 < 0 or n0 < 0:
        raise ValueError(f"seed indices must be nonnegative, got ({m0}, {n0})")
    if (m0 + n0) % 2 != 0:
        raise ValueError(f"seed must have m0 + n0 even, got ({m0}, {n0})")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    states: list[ReservoirChainState] = []
    for k in range(-1, depth + 1):
        states.extend(_shell_states(m0, n0, k))
    chain = ReservoirChain(m0=m0, n0=n0, depth=depth, states=tuple(states))
    seed_parity = -1 if (m0 + n0) % 2 == 0 else 1
    assert all(s.parity == seed_parity for s in chain.states)
    return chain


def _reservoir_pair(
    r: ReservoirParams,
    coeffs: ReservoirCoefficients,
    a: ReservoirChainState,
    b: ReservoirChainState,
    unprimed_g: bool = False,
) -> float:
    """Off-diagonal element between two distinct states (0 when unlinked)."""
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
            g = r.g1 if unprimed_g else r.g1p
            return g * math.sqrt(hi.m)
        if flip2 and lo.s2 == 1 and hi.s2 == -1:
            g = r.g2 if unprimed_g else r.g2p
            return g * math.sqrt(hi.m)
        return 0.0
    return 0.0


def build_reservoir_matrix(
    r: ReservoirParams,
    chain: ReservoirChain | Sequence[ReservoirChainState],
    coeffs: ReservoirCoefficients | None = None,
    verbatim_unprimed: bool = False,
) -> SymmetricMatrix:
    """Effective two-mode Hamiltonian on a chain window.

    Diagonal: omega n + omega1 m + c0 + s1 delta1 G0(n) + s2 delta2 G0'(n)
    with the displacement constant c0 included (reservoir_constant reports
    it separately) and G0 taken in the small-lambda limit, consistent with
    the approximation already folded into the K coefficients.

    ``verbatim_unprimed`` reproduces a variant where pseudomode couplings
    into shells two or more above the seed use the bare cavity couplings
    g_i instead of g_i'; it exists only so discrepancy reports can show
    both readings, and requires a ReservoirChain (shell bookkeeping).
    """
    if coeffs is None:
        coeffs = compute_K(r)
    if isinstance(chain, ReservoirChain):
        states = chain.states
        shell = {s: chain.shell_of(s) for s in states}
    else:
        states = tuple(chain)
        shell = None
        if verbatim_unprimed:
            raise ValueError("verbatim_unprimed needs a ReservoirChain, not a bare state list")
    if len(set(states)) != len(states):
        raise ValueError("chain contains duplicate states")
    c0 = reservoir_constant(r, coeffs)
    dim = len(states)
    arr = np.zeros((dim, dim))
    for i, si in enumerate(states):
        # the spin terms are summed before touching the mode energies so
        # that the +-/-+ pair's exact cancellation under symmetric
        # parameters survives in floating point (x + (-x) is exactly 0.0,
        # (base + x) - x generally is not base)
        spin = (
            si.s1 * r.delta1 * coeff_g0(coeffs.lambda1, si.n, CoefficientMode.APPROX)
            + si.s2 * r.delta2 * coeff_g0(coeffs.lambda2, si.n, CoefficientMode.APPROX)
        )
        arr[i, i] = r.omega * si.n + r.omega1 * si.m + c0 + spin
        for j in range(i + 1, dim):
            sj = states[j]
            unprimed = False
            if verbatim_unprimed and sj.m != si.m:
                upper = max(shell[si], shell[sj])
                unprimed = upper >= 2
            v = _reservoir_pair(r, coeffs, si, sj, unprimed_g=unprimed)
            if v != 0.0:
                sym_set(arr, i, j, v)
    labels = tuple(s.ket() for s in states)
    return SymmetricMatrix(arr, labels)


def _singlet_vector(states: Sequence[ReservoirChainState], m: int, n: int) -> np.ndarray:
    v = np.zeros(len(states))
    i_pm = states.index(ReservoirChainState(m, n, 1, -1))
    i_mp = states.index(ReservoirChainState(m, n, -1, 1))
    v[i_pm] = 1.0 / math.sqrt(2.0)
    v[i_mp] = -1.0 / math.sqrt(2.0)
    return v


def dark_state_energy(r: ReservoirParams, coeffs: ReservoirCoefficients,
                      m: int, n: int) -> float:
    """Eigenvalue claimed for the (m, n) singlet, constant shift included."""
    return r.omega * n + r.omega1 * m + reservoir_constant(r, coeffs)


def dark_state_residual(
    r: ReservoirParams, m: int, n: int, require_symmetric: bool = True
) -> float:
    """Residual ||(H - E) v|| for the singlet (|m,n,+,-> - |m,n,-,+>)/sqrt(2)
    with E = omega1 m + omega n + c0, on a chain window holding every
    neighbor of the two kets.

    Exactly zero for symmetric parameters: all four escape amplitudes are
    differences of identical floats.  With require_symmetric the asymmetric
    case raises AsymmetricParamsError; pass False to get the (positive)
    residual anyway.
    """
    check_seed(m, n)
    if require_symmetric and not r.symmetric:
        raise AsymmetricParamsError(
            "dark state requires g1 = g2, delta1 = delta2, g1' = g2' "
            "(pass require_symmetric=False to compute the residual anyway)"
        )
    coeffs = compute_K(r)
    chain = build_reservoir_chain(m, n, depth=1)
    h = build_reservoir_matrix(r, chain, coeffs)
    v = _singlet_vector(chain.states, m, n)
    e0 = dark_state_energy(r, coeffs, m, n)
    return float(np.linalg.norm(h.data @ v - e0 * v))


@dataclass(frozen=True)
class EntryMismatch:
    """One disagreeing entry between a verbatim matrix and the generator."""
    i: int
    j: int
    verbatim: float
    generated: float

    def to_dict(self) -> dict:
        return record_dict(self)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Everything a comparison produced; nothing here is asserted.

    residuals maps named checks to numbers, entry_mismatches lists
    entrywise disagreements, notes carries free-form flags (dimension
    formulas, singular limits, asymmetry).
    """
    label: str
    residuals: dict
    entry_mismatches: tuple[EntryMismatch, ...] = ()
    eigenvalues: tuple[float, ...] | None = None
    notes: tuple[str, ...] = ()
    data: dict | None = None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "residuals": dict(self.residuals),
            "entry_mismatches": [m.to_dict() for m in self.entry_mismatches],
            "eigenvalues": list(self.eigenvalues) if self.eigenvalues is not None else None,
            "notes": list(self.notes),
            "data": self.data,
        }


def quasi_exact_subspace(
    r: ReservoirParams, m: int, n: int
) -> tuple[SymmetricMatrix, DiscrepancyReport]:
    """Truncated subspace below the (m, n) singlet and its eigen-check.

    Keeps every chain shell from the seed pair downward (amplitudes above
    the seed are closed off by the two conditions g1' c1 + g2' c2 = 0 and
    K2 c1 + K1 c2 = 0, which the singlet satisfies when the parameters are
    symmetric).  The report records the subspace dimension against the
    quadratic-case formula 2(m+n-1), the closure combinations, the distance
    of the claimed eigenvalue omega1 m + omega n (+c0) from the spectrum,
    and the embedded singlet's residual.  Nothing is raised on mismatch.
    """
    check_seed(m, n)
    coeffs = compute_K(r)
    shells: list[list[ReservoirChainState]] = []
    k = 0
    while True:
        block = _shell_states(m, n, k)
        if not block:
            break
        shells.append(block)
        k -= 1
    states: list[ReservoirChainState] = []
    for block in reversed(shells):
        states.extend(block)
    h = build_reservoir_matrix(r, states, coeffs)

    e_target = dark_state_energy(r, coeffs, m, n)
    dec = eigh(h)
    gap = float(np.min(np.abs(dec.values - e_target)))
    v = _singlet_vector(states, m, n)
    dark_res = float(np.linalg.norm(h.data @ v - e_target * v))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    closure_g = (r.g1p - r.g2p) * inv_sqrt2
    closure_k = (coeffs.k2 - coeffs.k1) * inv_sqrt2

    formula_dim = 2 * (m + n - 1)
    notes = []
    if len(states) != formula_dim:
        notes.append(
            f"subspace dimension {len(states)} != 2(m+n-1) = {formula_dim} "
            f"for (m, n) = ({m}, {n}); recorded, not resolved"
        )
    if not r.symmetric:
        notes.append("parameters are asymmetric: closure combinations do not cancel")

    report = DiscrepancyReport(
        label=f"quasi-exact subspace at (m, n) = ({m}, {n})",
        residuals={
            "eigenvalue_gap": gap,
            "dark_state_residual": dark_res,
            "closure_pseudomode": closure_g,
            "closure_photon": closure_k,
        },
        eigenvalues=tuple(float(x) for x in dec.values),
        notes=tuple(notes),
        data={
            "dim": len(states),
            "formula_dim": formula_dim,
            "e_target": e_target,
            "constant": reservoir_constant(r, coeffs),
            "labels": [s.ket() for s in states],
        },
    )
    return h, report


# ---------------------------------------------------------------------------
# the printed 6x6 window at E = 2 omega1 + 2 omega and its claimed eigenvector
# ---------------------------------------------------------------------------

_H6_LABELS = (
    "|0,0,+,->", "|0,0,-,+>", "|1,0,-,->", "|0,1,+,+>", "|1,1,+,->", "|1,1,-,+>",
)


def build_h_2w1_2w(r: ReservoirParams, k_value: float | None = None) -> SymmetricMatrix:
    """Verbatim 6x6 matrix over {|0,0,+,->, |0,0,-,+>, |1,0,-,->, |0,1,+,+>,
    |1,1,+,->, |1,1,-,+>} exactly as printed, including its diagonal
    (0, 0, w1+w, w1+w, 2w1+2w, 2w1+2w).

    K defaults to compute_K(r); pass k_value to use a symbolic K directly
    (the matrix is stated in terms of the symbols g', K).
    """
    if k_value is None:
        coeffs = compute_K(r)
        k1, k2 = coeffs.k1, coeffs.k2
    else:
        k1 = k2 = float(k_value)
    g1p, g2p = r.g1p, r.g2p
    w, w1 = r.omega, r.omega1
    arr = np.zeros((6, 6))
    arr[2, 2] = w1 + w
    arr[3, 3] = w1 + w
    arr[4, 4] = 2.0 * w1 + 2.0 * w
    arr[5, 5] = 2.0 * w1 + 2.0 * w
    sym_set(arr, 0, 2, g1p)
    sym_set(arr, 0, 3, k2)
    sym_set(arr, 1, 2, g2p)
    sym_set(arr, 1, 3, k1)
    sym_set(arr, 2, 4, k1)
    sym_set(arr, 2, 5, k2)
    sym_set(arr, 3, 4, g2p)
    sym_set(arr, 3, 5, g1p)
    return SymmetricMatrix(arr, _H6_LABELS)


def eq24_vector(omega: float, omega1: float, gp: float, k: float) -> tuple[np.ndarray, list[str]]:
    """The printed eigenvector candidate at E = 2 omega1 + 2 omega.

    Component pattern (c, c, -g'/K, 1, 1, -1) with

      c = (g'/K) [ (-w1-w)/g' - g'/(-2w1-2w) - K/(-2w1-2w)
                   - (K^2/g') (-w1-w)/(g'^2 - K^2) ]

    Degenerate limits are reported, not raised: g' = K = 0 reduces the
    vector to its last four components; other singular denominators leave
    infinities in place.
    """
    notes: list[str] = []
    e2 = -2.0 * omega1 - 2.0 * omega
    e1 = -omega1 - omega
    if gp == 0.0 and k == 0.0:
        notes.append("g' = K = 0: head coefficients drop, vector reduces to last four terms")
        head = 0.0
        third = 0.0
    elif k == 0.0 or gp == 0.0 or gp * gp == k * k:
        notes.append("singular coefficient: g' = 0, K = 0, or g'^2 = K^2")
        head = math.inf
        third = math.inf if k == 0.0 else -gp / k
    else:
        head = (gp / k) * (
            e1 / gp - gp / e2 - k / e2 - (k * k / gp) * e1 / (gp * gp - k * k)
        )
        third = -gp / k
    v = np.array([head, head, third, 1.0, 1.0, -1.0])
    return v, notes


def verify_eq24(r: ReservoirParams, k_value: float | None = None) -> DiscrepancyReport:
    """Check the printed eigenvector claim against the printed 6x6 window.

    Reports the eigen-residual of the candidate vector at E = 2w1 + 2w, the
    full eigendecomposition of the printed matrix, the best-overlap
    eigenvector, and the entrywise differences between the printed matrix
    and the generator-built one (constant shift removed).  All outcomes are
    report content; nothing is asserted.
    """
    coeffs = compute_K(r)
    if k_value is not None:
        coeffs = replace(coeffs, k1=float(k_value), k2=float(k_value))
    k = coeffs.k1
    gp = r.g1p
    notes = []
    if not r.symmetric:
        notes.append("parameters are asymmetric; the printed form assumes g1'=g2', K1=K2")
    h6 = build_h_2w1_2w(r, k_value=k_value)
    e_claim = 2.0 * r.omega1 + 2.0 * r.omega
    v, vec_notes = eq24_vector(r.omega, r.omega1, gp, k)
    notes.extend(vec_notes)

    if np.all(np.isfinite(v)):
        norm = float(np.linalg.norm(v))
        residual = float(np.linalg.norm(h6.data @ v - e_claim * v)) / norm
        v_hat = v / norm
    else:
        residual = math.inf
        v_hat = None

    dec = eigh(h6)
    if v_hat is not None:
        overlaps = np.abs(dec.vectors.T @ v_hat)
        best = int(np.argmax(overlaps))
        best_overlap = float(overlaps[best])
        best_eigenvalue = float(dec.values[best])
        best_vector = [float(x) for x in dec.vectors[:, best]]
    else:
        best, best_overlap, best_eigenvalue, best_vector = -1, 0.0, math.nan, None

    chain = build_reservoir_chain(0, 0, depth=2)
    gen = build_reservoir_matrix(r, chain, coeffs)
    c0 = reservoir_constant(r, coeffs)
    gen_shifted = gen.data - c0 * np.eye(gen.dim)
    mismatches = []
    for i in range(6):
        for j in range(i, 6):
            a = float(h6.data[i, j])
            b = float(gen_shifted[i, j])
            if abs(a - b) > 1e-12:
                mismatches.append(EntryMismatch(i=i, j=j, verbatim=a, generated=b))

    return DiscrepancyReport(
        label="printed window at E = 2*omega1 + 2*omega vs generator",
        residuals={
            "eigen_residual": residual,
            "claimed_eigenvalue": e_claim,
            "best_overlap": best_overlap,
            "best_eigenvalue": best_eigenvalue,
            "k_used": k,
            "gp_used": gp,
        },
        entry_mismatches=tuple(mismatches),
        eigenvalues=tuple(float(x) for x in dec.values),
        notes=tuple(notes),
        data={
            "candidate_vector": [float(x) for x in v],
            "best_vector": best_vector,
            "best_index": best,
            "labels": list(_H6_LABELS),
            "constant_removed": c0,
        },
    )
