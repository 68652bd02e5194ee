"""Parity chains of the effective Hamiltonian and its block decomposition.

In the displaced, spin-x labeled frame the effective Hamiltonian conserves
the Z2 parity exp(i pi a^dag a) (x1) sx1 (x) sx2, so the Fock (x) spin basis
splits into two chains, each holding exactly two states per photon number.
Within a chain, adjacent photon numbers differ by exactly one spin flip and
the matrix elements follow three patterns:

  diagonal        omega*n + c0 + s1*delta1*G0(n; lam1) + s2*delta2*G0(n; lam2)
  same n          2*lam2*g1 + 2*g2*lam1 + 2*lam1*lam2*omega   (double flip)
  n <-> n+1       (g_i + lam_i*omega)*sqrt(n+1) + s_i'*delta_i*F1(n+1, n; lam_i)

where qubit i is the one that flips and s_i' is its sign in the
higher-photon state.  Under a resonant design in approx mode the elements
with s_1' = +1 or s_2' = -1 vanish identically, which tiles each chain into
closed 4x4 blocks plus a small boundary block at photon number zero.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .model import (
    SPIN_CHARS,
    CoefficientMode,
    ModelParams,
    TrwaParams,
    coeff_f1_table,
    coeff_g0_table,
    constant_offset,
    resonance_residual,
)
from .numerics import (
    NoBracketError,
    NonFiniteError,
    SymmetricMatrix,
    band_to_dense,
    check_grid,
    eigh,
    eigvals_stacked,
    error_token,
)
from .resonance import DegenerateDesignError, SingularError, design_resonant
from .serialize import record_dict

@dataclass(frozen=True)
class ChainState:
    """One Fock (x) spin-x basis state |n, s1, s2> with s in {+1, -1}."""
    n: int
    s1: int
    s2: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"photon number must be nonnegative, got {self.n}")
        if self.s1 not in (-1, 1) or self.s2 not in (-1, 1):
            raise ValueError(f"spin labels must be +1 or -1, got ({self.s1}, {self.s2})")

    @property
    def parity(self) -> int:
        """Eigenvalue of exp(i pi a^dag a) (x) sx1 (x) sx2."""
        return (1 if self.n % 2 == 0 else -1) * self.s1 * self.s2

    def ket(self) -> str:
        return f"|{self.n},{SPIN_CHARS[self.s1]},{SPIN_CHARS[self.s2]}>"


def _normalize_parity(parity) -> int:
    if parity in (1, -1):
        return parity
    if parity == "+":
        return 1
    if parity == "-":
        return -1
    raise ValueError(f"parity must be +1/-1 or '+'/'-', got {parity!r}")


@dataclass(frozen=True)
class ParityChain:
    """Ordered basis of one parity sector up to photon number n_max."""
    parity: int
    n_max: int
    states: tuple[ChainState, ...]

    def index(self, state: ChainState) -> int:
        return self.states.index(state)

    def labels(self) -> tuple[str, ...]:
        return tuple(s.ket() for s in self.states)


def build_parity_chain(parity, n_max: int) -> ParityChain:
    """Enumerate the parity sector: two states per photon number, ascending n.

    At each n the spin pair is fixed by parity = (-1)^n s1 s2; the (-,+)
    member precedes (+,-) and (+,+) precedes (-,-).
    """
    par = _normalize_parity(parity)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    states = []
    for n in range(n_max + 1):
        product = par * (1 if n % 2 == 0 else -1)
        if product == -1:
            states.append(ChainState(n, -1, 1))
            states.append(ChainState(n, 1, -1))
        else:
            states.append(ChainState(n, 1, 1))
            states.append(ChainState(n, -1, -1))
    chain = ParityChain(parity=par, n_max=n_max, states=tuple(states))
    assert all(s.parity == par for s in chain.states)
    return chain


def _chain_layout(parity, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Photon number, s1 and s2 of every chain index, in build_parity_chain order.

    At photon number n the spin product s1*s2 is parity*(-1)^n; the first
    member of the pair has s1 equal to that product, the second its negative.
    """
    par = _normalize_parity(parity)
    idx = np.arange(2 * n_max + 2)
    ns = idx // 2
    product = par * (1 - 2 * (ns % 2))
    s1 = product * (1 - 2 * (idx % 2))
    return ns, s1, product * s1


def _chain_band(
    p: ModelParams,
    t: TrwaParams,
    parity,
    n_max: int,
    mode: CoefficientMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Band of one chain: rung blocks (R, 2, 2) and couplings (R-1, 2, 2),
    laid out as in numerics.band_to_dense.

    The one source of chain elements: the three patterns of the module
    docstring, applied elementwise over coefficient tables of the chain
    (one Laguerre recurrence per displacement and order).  Rung n holds
    chain indices 2n and 2n + 1, the two states at photon number n; they
    differ in both spins, so the rung's off-diagonal is the double flip.
    The spin product s1*s2 = parity*(-1)^n alternates with n, so a state of
    rung n and one of rung n + 1 differ in exactly one spin, and
    couple[n, a, b] is that qubit's hop.  Raises NonFiniteError when an
    entry is not finite.
    """
    ns, s1, s2 = _chain_layout(parity, n_max)
    g0_1 = coeff_g0_table(t.lambda1, n_max, mode)
    g0_2 = coeff_g0_table(t.lambda2, n_max, mode)
    rungs = np.empty((n_max + 1, 2, 2))
    rungs[:, (0, 1), (0, 1)] = (
        p.omega * ns
        + constant_offset(p, t)
        + s1 * p.delta1 * g0_1[ns]
        + s2 * p.delta2 * g0_2[ns]
    ).reshape(-1, 2)
    rungs[:, 0, 1] = rungs[:, 1, 0] = resonance_residual(
        t.lambda1, t.lambda2, p.g1, p.g2, p.omega)

    # n <-> n+1 over (n, a, b): state a of rung n to state b of rung n + 1;
    # s_hi is the flipped qubit's sign in the higher-photon state
    s1, s2 = s1.reshape(-1, 2), s2.reshape(-1, 2)
    s1_hi, s2_hi = s1[1:, None, :], s2[1:, None, :]
    root = np.sqrt(np.arange(n_max) + 1.0)[:, None, None]
    f1_1 = coeff_f1_table(t.lambda1, n_max, mode)[:n_max, None, None]
    f1_2 = coeff_f1_table(t.lambda2, n_max, mode)[:n_max, None, None]
    couple = np.where(
        s1[:-1, :, None] != s1_hi,
        (p.g1 + t.lambda1 * p.omega) * root + s1_hi * p.delta1 * f1_1,
        (p.g2 + t.lambda2 * p.omega) * root + s2_hi * p.delta2 * f1_2,
    )
    if not (np.all(np.isfinite(rungs)) and np.all(np.isfinite(couple))):
        raise NonFiniteError("chain matrix entries must be finite")
    return rungs, couple


def _block4_stack(rungs: np.ndarray, couple: np.ndarray, first: int, count: int) -> np.ndarray:
    """(count, 4, 4) stack of chain indices 2 first + 4k + 1 .. + 4, the
    middle of rungs first + 2k .. first + 2k + 2; band entries that couple
    two blocks, or leave them, are dropped."""
    r = first + 2 * np.arange(count)[:, None] + np.arange(3)
    return band_to_dense(rungs[r], couple[r[:, :2]])[:, 1:5, 1:5]


def build_effective_chain_matrix(
    p: ModelParams,
    t: TrwaParams,
    chain: ParityChain,
    mode: CoefficientMode = CoefficientMode.APPROX,
) -> SymmetricMatrix:
    """Assemble the effective Hamiltonian restricted to one parity chain.

    The dense form of the chain band (_chain_band), labeled by the chain's
    kets.  The chain must be laid out as build_parity_chain lays it out.
    """
    states = chain.states
    n_max = len(states) // 2 - 1
    layout = np.array([(s.n, s.s1, s.s2) for s in states]).reshape(-1, 3).T
    if n_max < 0 or not np.array_equal(layout, _chain_layout(chain.parity, n_max)):
        raise ValueError(
            "chain must hold two states per photon number, ascending from 0, "
            "in build_parity_chain order"
        )
    band = _chain_band(p, t, chain.parity, n_max, mode)
    return SymmetricMatrix(band_to_dense(*band), chain.labels())


def _block4_states(n: int) -> tuple[ChainState, ...]:
    return (
        ChainState(2 * n + 1, 1, -1),
        ChainState(2 * n + 2, 1, 1),
        ChainState(2 * n + 2, -1, -1),
        ChainState(2 * n + 3, -1, 1),
    )


@dataclass(frozen=True)
class Block4:
    """One 4x4 block of the resonant decomposition, window index n.

    Basis order: |2n+1,+,->, |2n+2,+,+>, |2n+2,-,->, |2n+3,-,+>.  The
    elements are those of the plus chain; couplings that leave the block
    are dropped.
    """
    n: int
    matrix: SymmetricMatrix

    @property
    def x(self) -> float:
        """Upper coupling of |2n+1,+,-> to |2n+2,+,+> (qubit 2 raised)."""
        return self.matrix.entry(0, 1)

    @property
    def states(self) -> tuple[ChainState, ...]:
        return _block4_states(self.n)


def build_block4(
    p: ModelParams,
    t: TrwaParams,
    n: int,
    mode: CoefficientMode = CoefficientMode.APPROX,
) -> Block4:
    """The window-n block of the plus chain (photons 2n+1 .. 2n+3), cut
    from the chain band (_chain_band)."""
    if n < 0:
        raise ValueError(f"block index must be nonnegative, got {n}")
    arr = _block4_stack(*_chain_band(p, t, 1, 2 * n + 3, mode), 1 + 2 * n, 1)[0]
    labels = tuple(s.ket() for s in _block4_states(n))
    return Block4(n=n, matrix=SymmetricMatrix(arr, labels))


def block_eigenvector_to_wavefunction(
    block: Block4, eigvec: Sequence[float]
) -> list[tuple[str, float]]:
    """Attach ket labels to a block eigenvector, normalized to unit norm."""
    v = np.asarray(eigvec, dtype=float)
    if v.shape != (4,):
        raise ValueError(f"expected a 4-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("zero eigenvector")
    v = v / norm
    return [(lab, float(c)) for lab, c in zip(block.matrix.labels, v)]


def closed_block_index_groups(parity, n_blocks: int) -> list[tuple[int, ...]]:
    """Index sets of the closed blocks of a chain under a resonant design.

    The plus chain opens with a 3-state boundary group {|0,+,+>, |0,-,->,
    |1,-,+>} followed by 4-blocks starting at |2k+1,+,->; the minus chain
    opens with the lone state |0,-,+> followed by 4-blocks starting at
    |2k,+,->.  Indices refer to positions in build_parity_chain order.
    """
    par = _normalize_parity(parity)
    if n_blocks < 1:
        raise ValueError("need at least one block")
    if par == 1:
        groups = [(0, 1, 2)]
        start = 3
    else:
        groups = [(0,)]
        start = 1
    for k in range(n_blocks):
        base = start + 4 * k
        groups.append((base, base + 1, base + 2, base + 3))
    return groups


def chain_n_max_for_blocks(n_blocks: int) -> int:
    """Photon truncation that contains every group from closed_block_index_groups."""
    return 2 * n_blocks + 3


def trwa_block_energies(
    p: ModelParams,
    t: TrwaParams,
    parity,
    n_blocks: int,
    mode: CoefficientMode = CoefficientMode.APPROX,
) -> list[float]:
    """Eigenvalues of all closed blocks of one parity chain, ascending.

    Blocks are cut from the chain band (_chain_band) without building the
    dense chain matrix.  The 4x4 blocks are diagonalized in one stacked
    call; the boundary group at photon number zero on its own.
    """
    par = _normalize_parity(parity)
    groups = closed_block_index_groups(par, n_blocks)
    rungs, couple = _chain_band(p, t, par, chain_n_max_for_blocks(n_blocks), mode)
    size = len(groups[0])
    edge = band_to_dense(rungs[:2], couple[:1])[:size, :size]
    quads = _block4_stack(rungs, couple, groups[1][0] // 2, n_blocks)
    energies = [float(v) for v in eigh(SymmetricMatrix(edge)).values]
    energies.extend(eigvals_stacked(quads).ravel().tolist())
    energies.sort()
    return energies


def block_leakage(h: SymmetricMatrix, groups: Sequence[Sequence[int]]) -> float:
    """Largest |element| of h that the block split drops.

    That is every element coupling a state of one group to a state outside
    it, including states past the last group.  Zero means the groups are
    closed blocks of h; elements among ungrouped states are not counted.
    Raises ValueError unless each group holds distinct indices in
    [0, h.dim) that no earlier group holds.
    """
    member = np.full(h.dim, -1)
    for k, group in enumerate(groups):
        idx = list(group)
        if len(set(idx)) != len(idx) or not all(0 <= i < h.dim for i in idx):
            raise ValueError(f"group {k} {tuple(idx)} needs distinct indices in [0, {h.dim})")
        if np.any(member[idx] >= 0):
            raise ValueError(f"group {k} overlaps an earlier group")
        member[idx] = k
    dropped = (member[:, None] >= 0) & (member[:, None] != member[None, :])
    return float(np.max(np.abs(h.data[dropped]), initial=0.0))


@dataclass(frozen=True)
class SpectrumRow:
    """One labeled energy level of the block spectrum sweep."""
    g1: float
    delta1: float | None
    lambda1: float | None
    lambda2: float | None
    parity: str
    level_index: int | None
    energy: float | None
    offset: float | None
    error: str | None = None

    def to_dict(self) -> dict:
        return record_dict(self)


SPECTRUM_FIELDS = tuple(f.name for f in fields(SpectrumRow))


@dataclass(frozen=True)
class SpectrumTable:
    """Block-spectrum sweep over g1 at fixed (omega, delta2, g2).

    The levels are stored as columns: one tuple per SpectrumRow field, in
    SPECTRUM_FIELDS order, with one cell per level row.  A point's
    parameter and offset cells repeat one float object.  rows and
    energies_for are views of the columns.
    """
    omega: float
    delta2: float
    g2: float
    mode: str
    n_blocks: int
    columns: tuple[tuple, ...]

    @property
    def rows(self) -> tuple[SpectrumRow, ...]:
        return tuple(SpectrumRow(*cells) for cells in zip(*self.columns))

    def energies_for(self, g1: float) -> list[tuple[int, str, float]]:
        col = dict(zip(SPECTRUM_FIELDS, self.columns))
        return [
            (i, tag, e)
            for x, tag, i, e, err in zip(col["g1"], col["parity"], col["level_index"],
                                         col["energy"], col["error"])
            if x == g1 and err is None
        ]


_SPECTRUM_ERRORS = (NoBracketError, SingularError, NonFiniteError, DegenerateDesignError)

# parity tag of each chain, in the order its energies are concatenated
_PARITY_TAGS = np.array(["+", "-"], dtype=object)


def _failed_point(g1, delta1, lambda1, lambda2, token: str) -> tuple[tuple, ...]:
    """The columns of a g1 point whose design failed: one row, no level."""
    return tuple((cell,) for cell in (g1, delta1, lambda1, lambda2, "", None, None, None, token))


def _point_columns(
    omega: float,
    delta2: float,
    g2: float,
    g1: float,
    n_blocks: int,
    mode: CoefficientMode,
) -> tuple[Sequence, ...]:
    """The SPECTRUM_FIELDS columns of one g1 point: its levels, or one
    error row."""
    try:
        des = design_resonant(omega, delta2, g2, g1)
    except _SPECTRUM_ERRORS as exc:
        return _failed_point(g1, None, None, None, error_token(exc))
    if not des.physical:
        return _failed_point(g1, des.delta1, des.lambda1, des.lambda2, "NonphysicalDesign")
    p = ModelParams(omega=omega, delta1=des.delta1, delta2=delta2, g1=g1, g2=g2)
    t = TrwaParams(lambda1=des.lambda1, lambda2=des.lambda2)
    plus = trwa_block_energies(p, t, 1, n_blocks, mode)
    minus = trwa_block_energies(p, t, -1, n_blocks, mode)
    energies = np.array(plus + minus)
    # stable: a tie keeps the plus level first, as it is concatenated first
    order = np.argsort(energies, kind="stable")
    tags = np.repeat(_PARITY_TAGS, (len(plus), len(minus)))[order]
    n = len(order)
    return (
        (g1,) * n, (des.delta1,) * n, (des.lambda1,) * n, (des.lambda2,) * n,
        tags.tolist(), range(n), energies[order].tolist(),
        (constant_offset(p, t),) * n, (None,) * n,
    )


def spectrum_vs_g1(
    omega: float,
    delta2: float,
    g2: float,
    g1_grid: Sequence[float],
    n_blocks: int = 8,
    mode: CoefficientMode = CoefficientMode.APPROX,
) -> SpectrumTable:
    """Sweep g1, re-deriving the resonant design at each point, and emit the
    sorted block eigenvalues of both parity chains.

    Each level row carries the global level index within its g1 point
    (energies ascending across both parities, a tie putting the + level
    first), the parity label of the block the level came from, and the
    constant diagonal offset so spectra can be compared shift-free.  Design
    failures become single rows with the error token and empty numeric
    fields.  Raises ValueError unless check_grid accepts g1_grid with
    entries >= 0 and design_resonant accepts each g1.
    """
    g1_grid = check_grid("g1_grid", g1_grid, ">=", 0)
    points = [_point_columns(omega, delta2, g2, g1, n_blocks, mode) for g1 in g1_grid]
    columns = tuple(
        tuple(itertools.chain.from_iterable(point[k] for point in points))
        for k in range(len(SPECTRUM_FIELDS))
    )
    return SpectrumTable(
        omega=omega, delta2=delta2, g2=g2, mode=str(mode.value),
        n_blocks=n_blocks, columns=columns,
    )
