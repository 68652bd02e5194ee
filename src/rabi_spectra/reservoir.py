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

Both hops keep c = m - n + (s1 + s2)/2, so every state |m, n, s1, s2> lies
on one closed chain c, and a chain is a block-tridiagonal band in the
numerics layout (_reservoir_band), the one source of its elements.  Rung t
of the band is the excitation number t = m + n.  It holds the +-/-+ pair
when t - c is even and the --/++ pair when it is odd, and a state sits in
slot (s2 + 1)/2 of its rung.  Shell partners differ in both spins, so the
rung blocks are diagonal; every state of rung t differs from every state
of rung t + 1 in one spin, flipped the way the selection rules allow.

A chain window is the tuple of its states: build_reservoir_chain and
quasi_exact_subspace list them from the same layout, and
build_reservoir_matrix cuts the band's dense form down to any list of
distinct states of one chain.  dark_state_residual and
quasi_exact_subspace measure the singlet on their matrices with one helper
(_singlet_residual).

build_full_pseudomode is the untransformed two-mode Hamiltonian, with no
displacement and no folding into K_i, for exact cross-checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import _ZLABELS, SPIN_CHARS, CoefficientMode, coeff_g0
from .numerics import (
    SingularDenominatorError,
    SingularEtaError,
    SymmetricMatrix,
    band_to_dense,
    check_bound,
    eigh,
    sym_set,
)
from .serialize import record_dict


class AsymmetricParamsError(ValueError):
    """An operation that assumes g1 = g2, delta1 = delta2, g1' = g2' got
    asymmetric parameters."""


@dataclass(frozen=True)
class ReservoirParams:
    """Cavity a (omega), pseudomode b (omega1), exchange V, qubit couplings
    g_i to the cavity and g_i' to the pseudomode, splittings delta_i;
    omega and omega1 positive, the rest nonnegative, all finite."""
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
        owner = type(self).__name__
        for name in ("omega", "omega1"):
            check_bound(name, getattr(self, name), ">", 0, owner)
        for name in ("v", "g1", "g2", "g1p", "g2p", "delta1", "delta2"):
            check_bound(name, getattr(self, name), ">=", 0, owner)

    @property
    def symmetric(self) -> bool:
        """Exact symmetry between the two qubits (float equality intended)."""
        return self.g1 == self.g2 and self.delta1 == self.delta2 and self.g1p == self.g2p


def check_seed(m: int, n: int) -> None:
    """Raise ValueError unless the singlet seed (m, n) has m, n >= 0 and
    m + n even."""
    if m < 0 or n < 0:
        raise ValueError(f"seed indices must be nonnegative, got ({m}, {n})")
    if (m + n) % 2 != 0:
        raise ValueError(f"m + n must be even for a singlet seed, got ({m}, {n})")


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


def _chain_slots(c: int, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """m, n, s1, s2 of the two slots of each rung t of chain c, each
    (len(t), 2); a slot past the lattice boundary has m or n = -1."""
    t = t[:, None]
    s2 = np.array([-1, 1])
    s1 = np.where((t - c) % 2 == 1, s2, -s2)
    half = (s1 + s2) // 2
    return (t + c - half) // 2, (t - c + half) // 2, s1, np.broadcast_to(s2, s1.shape)


def _chain_states(c: int, t: np.ndarray) -> tuple[ReservoirChainState, ...]:
    """States of chain c on rungs t, rung by rung and slot by slot, leaving
    out the slots past the lattice boundary."""
    m, n, s1, s2 = _chain_slots(c, t)
    keep = (m >= 0) & (n >= 0)
    return tuple(
        ReservoirChainState(*k) for k in zip(*(a[keep].tolist() for a in (m, n, s1, s2)))
    )


def build_reservoir_chain(m0: int, n0: int, depth: int) -> tuple[ReservoirChainState, ...]:
    """The states of the chain window: shells k = -1 .. depth around the
    seed, that is rungs m0 + n0 - 1 .. m0 + n0 + depth of chain m0 - n0,
    rung by rung.  A state's shell is its m + n - (m0 + n0).

    The seed must pass check_seed, so the +-/-+ pair carries the odd
    two-mode parity; every listed state shares that parity.
    """
    check_seed(m0, n0)
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _chain_states(m0 - n0, np.arange(m0 + n0 - 1, m0 + n0 + depth + 1))


def _reservoir_band(
    r: ReservoirParams,
    coeffs: ReservoirCoefficients,
    c: int,
    t: np.ndarray,
    bare_from: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Band of chain c over the consecutive rungs t: diagonal rung blocks,
    and couple[t, a, b] the photon hop K_q sqrt(n_b) where n rises, else the
    pseudomode hop g_q' sqrt(m_b) (the bare g_q into rungs >= bare_from),
    q being the qubit whose spin flips between the two slots."""
    m, n, s1, s2 = _chain_slots(c, t)
    # the spin terms are summed before touching the mode energies so that
    # the +-/-+ pair's exact cancellation under symmetric parameters
    # survives in floating point (x + (-x) is exactly 0.0, (base + x) - x
    # generally is not base)
    spin = (
        s1 * r.delta1 * coeff_g0(coeffs.lambda1, 0, CoefficientMode.APPROX)
        + s2 * r.delta2 * coeff_g0(coeffs.lambda2, 0, CoefficientMode.APPROX)
    )
    rungs = np.zeros((len(t), 2, 2))
    rungs[:, (0, 1), (0, 1)] = r.omega * n + r.omega1 * m + reservoir_constant(r, coeffs) + spin
    flip1 = s1[:-1, :, None] != s1[1:, None, :]
    g_pseudo = np.where(flip1, r.g1p, r.g2p)
    if bare_from is not None:
        bare = (t[1:] >= bare_from)[:, None, None]
        g_pseudo = np.where(bare, np.where(flip1, r.g1, r.g2), g_pseudo)
    # boundary slots hold m or n = -1; their hops are cut away with them
    n_b = np.maximum(n[1:, None, :], 0)
    m_b = np.maximum(m[1:, None, :], 0)
    couple = np.where(
        n_b > n[:-1, :, None],
        np.where(flip1, coeffs.k1, coeffs.k2) * np.sqrt(n_b),
        g_pseudo * np.sqrt(m_b),
    )
    return rungs, couple


def build_reservoir_matrix(
    r: ReservoirParams,
    states: Sequence[ReservoirChainState],
    coeffs: ReservoirCoefficients | None = None,
    seed: tuple[int, int] | None = None,
) -> SymmetricMatrix:
    """Effective two-mode Hamiltonian on distinct states of one chain c, in
    any order: the dense band of the rungs they span (_reservoir_band), cut
    down to their slots.  States on two chains raise ValueError.

    Diagonal: omega n + omega1 m + c0 + s1 delta1 G0(n) + s2 delta2 G0'(n)
    with the displacement constant c0 included (reservoir_constant reports
    it separately) and G0 taken in the small-lambda limit, consistent with
    the approximation already folded into the K coefficients.

    ``seed=(m0, n0)``, checked by check_seed and lying on chain c,
    reproduces the printed variant where pseudomode couplings into rungs
    m0 + n0 + 2 and above, two or more shells above the seed, use the bare
    cavity couplings g_i instead of g_i'; it is the only record of that
    reading.
    """
    if coeffs is None:
        coeffs = compute_K(r)
    states = tuple(states)
    if len(set(states)) != len(states):
        raise ValueError("chain contains duplicate states")
    m, n, s1, s2 = np.array([(s.m, s.n, s.s1, s.s2) for s in states], dtype=int).reshape(-1, 4).T
    chains = np.unique(m - n + (s1 + s2) // 2)
    if len(chains) != 1:
        raise ValueError(f"states must lie on one chain, got chains {chains.tolist()}")
    c = int(chains[0])
    bare_from = None
    if seed is not None:
        check_seed(*seed)
        if seed[0] - seed[1] != c:
            raise ValueError(f"seed {tuple(seed)} lies on chain {seed[0] - seed[1]}, "
                             f"the states on chain {c}")
        bare_from = sum(seed) + 2
    t = m + n
    band = _reservoir_band(r, coeffs, c, np.arange(t.min(), t.max() + 1), bare_from)
    pos = 2 * (t - t.min()) + (s2 + 1) // 2
    return SymmetricMatrix(band_to_dense(*band)[np.ix_(pos, pos)], tuple(s.ket() for s in states))


def _singlet_residual(h: SymmetricMatrix, m: int, n: int, energy: float) -> float:
    """||(H - E) v|| of the singlet v = (|m,n,+,-> - |m,n,-,+>)/sqrt(2) on
    the states of h (both kets among its labels), E = energy."""
    v = np.zeros(h.dim)
    v[h.labels.index(ReservoirChainState(m, n, 1, -1).ket())] = 1.0 / math.sqrt(2.0)
    v[h.labels.index(ReservoirChainState(m, n, -1, 1).ket())] = -1.0 / math.sqrt(2.0)
    return float(np.linalg.norm(h.data @ v - energy * v))


def dark_state_energy(r: ReservoirParams, coeffs: ReservoirCoefficients,
                      m: int, n: int) -> float:
    """Eigenvalue claimed for the (m, n) singlet, constant shift included."""
    return r.omega * n + r.omega1 * m + reservoir_constant(r, coeffs)


def _check_dark_symmetric(r: ReservoirParams, override: str) -> None:
    """Raise AsymmetricParamsError unless r has the dark state's symmetry;
    the message names override, the caller's way to get the residual
    anyway (a keyword for the library, a switch for the command line)."""
    if not r.symmetric:
        raise AsymmetricParamsError(
            "dark state requires g1 = g2, delta1 = delta2, g1' = g2' "
            f"(pass {override} to compute the residual anyway)"
        )


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
    if require_symmetric:
        _check_dark_symmetric(r, "require_symmetric=False")
    coeffs = compute_K(r)
    h = build_reservoir_matrix(r, build_reservoir_chain(m, n, depth=1), coeffs)
    return _singlet_residual(h, m, n, dark_state_energy(r, coeffs, m, n))


def build_full_pseudomode(r: ReservoirParams, m_max: int, n_max: int) -> SymmetricMatrix:
    """Two-mode Hamiltonian: cavity a, pseudomode b, both qubits, sigma-z basis.

    omega a^dag a + omega1 b^dag b + V (b^dag a + a^dag b)
    + sum_i [ g_i sx_i (a + a^dag) + g_i' sx_i (b + b^dag) + delta_i sz_i ]

    written as a Kronecker sum over photon, pseudomode, qubit 1 and qubit 2.
    Dimension 4 (m_max + 1)(n_max + 1); index order photon n, then
    pseudomode m, then qubit labels.
    """
    if m_max < 1 or n_max < 1:
        raise ValueError(f"need m_max, n_max >= 1, got ({m_max}, {n_max})")
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    b = np.diag(np.sqrt(np.arange(1.0, m_max + 1)), 1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    one = np.eye(2)

    def op(photon=np.eye(n_max + 1), mode=np.eye(m_max + 1), q1=one, q2=one) -> np.ndarray:
        return np.kron(photon, np.kron(mode, np.kron(q1, q2)))

    h = (
        r.omega * op(photon=np.diag(np.arange(n_max + 1.0)))
        + r.omega1 * op(mode=np.diag(np.arange(m_max + 1.0)))
        + op(photon=a, mode=r.v * b.T) + op(photon=a.T, mode=r.v * b)
        + r.g1 * op(photon=a + a.T, q1=sx) + r.g2 * op(photon=a + a.T, q2=sx)
        + r.g1p * op(mode=b + b.T, q1=sx) + r.g2p * op(mode=b + b.T, q2=sx)
        + r.delta1 * op(q1=sz) + r.delta2 * op(q2=sz)
    )
    labels = tuple(
        f"|{m},{n},{q1},{q2}>"
        for n in range(n_max + 1) for m in range(m_max + 1) for q1, q2 in _ZLABELS
    )
    return SymmetricMatrix(h, labels)


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

    Keeps every chain shell from the seed pair downward, rungs 0 .. m + n
    of chain m - n, to the states with nonnegative indices (amplitudes above
    the seed are closed off by the two conditions g1' c1 + g2' c2 = 0 and
    K2 c1 + K1 c2 = 0, which the singlet satisfies when the parameters are
    symmetric).  The report records the subspace dimension against the
    quadratic-case formula 2(m+n-1), the closure combinations, the distance
    of the claimed eigenvalue omega1 m + omega n (+c0) from the spectrum,
    and the embedded singlet's residual.  Nothing is raised on mismatch.
    """
    check_seed(m, n)
    coeffs = compute_K(r)
    states = _chain_states(m - n, np.arange(m + n + 1))
    h = build_reservoir_matrix(r, states, coeffs)

    e_target = dark_state_energy(r, coeffs, m, n)
    dec = eigh(h)
    gap = float(np.min(np.abs(dec.values - e_target)))
    dark_res = _singlet_residual(h, m, n, e_target)
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

    gen = build_reservoir_matrix(r, build_reservoir_chain(0, 0, depth=2), coeffs)
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
