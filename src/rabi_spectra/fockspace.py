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

Each structural fact has one home: _chain_layout states the chain order
(build_parity_chain, the band and the layout check read it), and
closed_block_index_groups states the block tiling (the stacked block
solve and Block4 read it; _block_level_count beside it counts its states
in O(1), and check_n_blocks caps n_blocks for it and the command line).

The g1 sweep solves its points stacked.  Each point's design stays its
own, but _chain_bands builds each chain's band at all points at once, a
leading point axis on the same elementwise operations, and the 4x4
blocks of every point of a chain go through one eigvals_stacked call
(_chain_levels; each point's boundary group through eigh).
_stacked_levels merges the two chains' levels of every point.  A grid
goes through in chunks of at most _STACK_BLOCKS blocks per chain.
trwa_block_energies, _block_levels (the oracle comparison's levels) and
_chain_band are the one-point views of the same code.
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
    LAGUERRE_MAX_DEGREE,
    NonFiniteError,
    SymmetricMatrix,
    _dense,
    band_to_dense,
    check_bound,
    check_grid,
    eigh,
    eigvals_stacked,
    error_token,
)
from .resonance import _POINT_ERRORS, design_resonant
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
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity!r}")
    return parity


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


def _chain_layout(parity, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Photon number, s1 and s2 of every chain index: the one statement of
    the chain order.

    Two states per photon number, ascending n.  At photon number n the spin
    product s1*s2 is parity*(-1)^n; the first member of the pair has s1
    equal to that product, the second its negative.  So (-,+) precedes
    (+,-) and (+,+) precedes (-,-).
    """
    par = _normalize_parity(parity)
    idx = np.arange(2 * n_max + 2)
    ns = idx // 2
    product = par * (1 - 2 * (ns % 2))
    s1 = product * (1 - 2 * (idx % 2))
    return ns, s1, product * s1


def build_parity_chain(parity, n_max: int) -> ParityChain:
    """Enumerate the parity sector up to photon number n_max, in
    _chain_layout order."""
    par = _normalize_parity(parity)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    layout = (a.tolist() for a in _chain_layout(par, n_max))
    return ParityChain(parity=par, n_max=n_max, states=tuple(map(ChainState, *layout)))


def _chain_tables(ts: Sequence[TrwaParams], n_max: int,
                  mode: CoefficientMode) -> tuple[np.ndarray, ...]:
    """The coefficient tables the chain bands of len(ts) points read up to
    photon number n_max, each (P, n_max + 1): G0 at lambda1 and lambda2,
    then F1 at each, one Laguerre recurrence per point and table.  They
    depend on the displacements, not on the parity, so both chains of one
    design share them."""
    per_point = [
        (coeff_g0_table(t.lambda1, n_max, mode), coeff_g0_table(t.lambda2, n_max, mode),
         coeff_f1_table(t.lambda1, n_max, mode), coeff_f1_table(t.lambda2, n_max, mode))
        for t in ts
    ]
    return tuple(np.array(table) for table in zip(*per_point))


def _chain_bands(
    ps: Sequence[ModelParams],
    ts: Sequence[TrwaParams],
    parity,
    n_max: int,
    mode: CoefficientMode,
    tables: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bands of one chain at P points, the designs (ps[k], ts[k]): rung
    blocks (P, R, 2, 2) and couplings (P, R-1, 2, 2), each point's band
    laid out as in numerics.band_to_dense.

    The one source of chain elements: the three patterns of the module
    docstring, applied elementwise over coefficient tables of the chain,
    with each point's scalars broadcast along the leading point axis.
    Rung n holds chain indices 2n and 2n + 1, the two states at photon
    number n; they differ in both spins, so the rung's off-diagonal is the
    double flip.  The spin product s1*s2 = parity*(-1)^n alternates with
    n, so a state of rung n and one of rung n + 1 differ in exactly one
    spin, and couple[k, n, a, b] is that qubit's hop.  tables, when given,
    are _chain_tables(ts, n_max, mode).  Raises NonFiniteError when an
    entry is not finite.
    """
    ns, s1, s2 = _chain_layout(parity, n_max)
    g0_1, g0_2, f1_1, f1_2 = _chain_tables(ts, n_max, mode) if tables is None else tables
    # each point's scalars as a column (P, 1)
    omega, delta1, delta2, g1, g2 = np.array(
        [(p.omega, p.delta1, p.delta2, p.g1, p.g2) for p in ps], dtype=float).T[:, :, None]
    lam1, lam2, c0 = np.array(
        [(t.lambda1, t.lambda2, constant_offset(p, t)) for p, t in zip(ps, ts)],
        dtype=float).T[:, :, None]
    rungs = np.empty((len(ps), n_max + 1, 2, 2))
    rungs[:, :, (0, 1), (0, 1)] = (
        omega * ns
        + c0
        + s1 * delta1 * g0_1[:, ns]
        + s2 * delta2 * g0_2[:, ns]
    ).reshape(len(ps), -1, 2)
    rungs[:, :, 0, 1] = rungs[:, :, 1, 0] = resonance_residual(lam1, lam2, g1, g2, omega)

    # n <-> n+1 over (k, n, a, b): state a of rung n to state b of rung
    # n + 1 at point k; s_hi is the flipped qubit's sign in the
    # higher-photon state
    s1, s2 = s1.reshape(-1, 2), s2.reshape(-1, 2)
    s1_hi, s2_hi = s1[1:, None, :], s2[1:, None, :]
    root = np.sqrt(np.arange(n_max) + 1.0)[:, None, None]
    hop1, hop2, d1, d2 = (x[..., None, None] for x in (
        g1 + lam1 * omega, g2 + lam2 * omega, delta1, delta2))
    couple = np.where(
        s1[:-1, :, None] != s1_hi,
        hop1 * root + s1_hi * d1 * f1_1[:, :n_max, None, None],
        hop2 * root + s2_hi * d2 * f1_2[:, :n_max, None, None],
    )
    if not (np.all(np.isfinite(rungs)) and np.all(np.isfinite(couple))):
        raise NonFiniteError("chain matrix entries must be finite")
    return rungs, couple


def _chain_band(
    p: ModelParams,
    t: TrwaParams,
    parity,
    n_max: int,
    mode: CoefficientMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Band of one chain at one design: rung blocks (R, 2, 2) and
    couplings (R-1, 2, 2), the one-point view of _chain_bands."""
    rungs, couple = _chain_bands([p], [t], parity, n_max, mode)
    return rungs[0], couple[0]


def _block4_stack(rungs: np.ndarray, couple: np.ndarray,
                  groups: Sequence[Sequence[int]]) -> np.ndarray:
    """(..., len(groups), 4, 4) stack of closed 4-groups of a checked chain
    band, whose leading axes, if any, are points.  Each group starts in
    the second slot of rung g[0] // 2, so it is the middle of that rung and
    the next two; band entries that couple two blocks, or leave them, are
    dropped."""
    r = np.array([g[0] // 2 for g in groups])[:, None] + np.arange(3)
    return _dense(rungs[..., r, :, :], couple[..., r[:, :2], :, :])[..., 1:5, 1:5]


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


def _plus_block(n: int) -> tuple[tuple[int, ...], tuple[ChainState, ...]]:
    """Plus-chain indices of the window-n block and the chain states there."""
    group = closed_block_index_groups(1, n + 1)[-1]
    states = build_parity_chain(1, group[-1] // 2).states
    return group, tuple(states[i] for i in group)


@dataclass(frozen=True)
class Block4:
    """One 4x4 block of the resonant decomposition, window index n.

    Basis order: |2n+1,+,->, |2n+2,+,+>, |2n+2,-,->, |2n+3,-,+>, the plus
    chain's states at the block's group.  The elements are those of the
    plus chain; couplings that leave the block are dropped.
    """
    n: int
    matrix: SymmetricMatrix

    @property
    def x(self) -> float:
        """Upper coupling of |2n+1,+,-> to |2n+2,+,+> (qubit 2 raised)."""
        return self.matrix.entry(0, 1)

    @property
    def states(self) -> tuple[ChainState, ...]:
        return _plus_block(self.n)[1]


def build_block4(
    p: ModelParams,
    t: TrwaParams,
    n: int,
    mode: CoefficientMode = CoefficientMode.APPROX,
) -> Block4:
    """The window-n block of the plus chain (photons 2n+1 .. 2n+3), cut
    from the chain band (_chain_band); 0 <= n < MAX_N_BLOCKS."""
    if not 0 <= n < MAX_N_BLOCKS:
        raise ValueError(f"block index must be in [0, {MAX_N_BLOCKS - 1}], got {n}")
    group, states = _plus_block(n)
    arr = _block4_stack(*_chain_band(p, t, 1, states[-1].n, mode), [group])[0]
    return Block4(n=n, matrix=SymmetricMatrix(arr, tuple(s.ket() for s in states)))


# states in each chain's boundary group at photon number zero
_BOUNDARY_SIZE = {1: 3, -1: 1}

# The most closed blocks per chain: exact mode runs the Laguerre recurrence
# to the chain's truncation, chain_n_max_for_blocks(n_blocks) = 2 n_blocks + 1.
MAX_N_BLOCKS = (LAGUERRE_MAX_DEGREE - 1) // 2


def check_n_blocks(name: str, value, owner: str | None = None) -> int:
    """value as an int; ValueError unless it is an integer-valued number
    from 1 to MAX_N_BLOCKS (check_bound, then the cap)."""
    n_blocks = check_bound(name, value, ">=", 1, owner, integer=True)
    if n_blocks > MAX_N_BLOCKS:
        raise ValueError(f"{name} must be <= {MAX_N_BLOCKS}, got {n_blocks}")
    return n_blocks


def _block_level_count(parity: int, n_blocks: int) -> int:
    """States, and so levels, in the closed blocks of one chain: its
    boundary group and four per block."""
    return _BOUNDARY_SIZE[parity] + 4 * n_blocks


def closed_block_index_groups(parity, n_blocks: int) -> list[tuple[int, ...]]:
    """Index sets of the closed blocks of a chain under a resonant design:
    the one statement of the block tiling.

    The plus chain opens with a 3-state boundary group {|0,+,+>, |0,-,->,
    |1,-,+>} followed by 4-blocks starting at |2k+1,+,->; the minus chain
    opens with the lone state |0,-,+> followed by 4-blocks starting at
    |2k,+,->.  Indices refer to positions in _chain_layout order.  Raises
    ValueError unless check_n_blocks accepts n_blocks.
    """
    par = _normalize_parity(parity)
    n_blocks = check_n_blocks("n_blocks", n_blocks)
    start = _BOUNDARY_SIZE[par]
    return [tuple(range(start))] + [
        tuple(range(base, base + 4))
        for base in range(start, _block_level_count(par, n_blocks), 4)
    ]


def chain_n_max_for_blocks(n_blocks: int) -> int:
    """The largest photon number of any group of closed_block_index_groups,
    in either chain: the last rung the block solve reads."""
    return 2 * n_blocks + 1


def _chain_levels(rungs: np.ndarray, couple: np.ndarray, parity: int,
                  n_blocks: int) -> np.ndarray:
    """The closed-block levels of one chain at P points, (P, levels), each
    row ascending, from the checked bands _chain_bands gives.

    The 4x4 blocks of all points go through one eigvals_stacked call; each
    point's boundary group at photon number zero goes through eigh on its
    own.  Each row is sorted stably, so equal levels keep their order:
    0.0 and -0.0 compare equal but print differently.
    """
    groups = closed_block_index_groups(parity, n_blocks)
    size = len(groups[0])
    edges = _dense(rungs[:, :2], couple[:, :1])[:, :size, :size]
    quads = _block4_stack(rungs, couple, groups[1:])
    levels = np.concatenate([
        np.array([eigh(SymmetricMatrix._unchecked(np.ascontiguousarray(e))).values
                  for e in edges]),
        eigvals_stacked(quads.reshape(-1, 4, 4)).reshape(len(quads), -1),
    ], axis=1)
    levels.sort(axis=1, kind="stable")
    return levels


# parity tag of each chain, in the order its levels are concatenated
_PARITY_TAGS = np.array(["+", "-"], dtype=object)


def _stacked_levels(ps: Sequence[ModelParams], ts: Sequence[TrwaParams], n_blocks: int,
                    mode: CoefficientMode) -> tuple[np.ndarray, np.ndarray]:
    """The closed-block levels of both chains at P points, (P, levels),
    each row ascending, and the parity tag of each level.

    Both chains read one set of coefficient tables.  The argsort of a row
    is stable over the + chain's levels followed by the - chain's, so a
    tie puts the + level first.  n_blocks is already checked.
    """
    n_max = chain_n_max_for_blocks(n_blocks)
    tables = _chain_tables(ts, n_max, mode)
    plus, minus = (_chain_levels(*_chain_bands(ps, ts, par, n_max, mode, tables), par, n_blocks)
                   for par in (1, -1))
    levels = np.concatenate([plus, minus], axis=1)
    order = np.argsort(levels, axis=1, kind="stable")
    tags = np.repeat(_PARITY_TAGS, (plus.shape[1], minus.shape[1]))
    return np.take_along_axis(levels, order, axis=1), tags[order]


def trwa_block_energies(
    p: ModelParams,
    t: TrwaParams,
    parity,
    n_blocks: int,
    mode: CoefficientMode = CoefficientMode.APPROX,
) -> list[float]:
    """Eigenvalues of all closed blocks of one parity chain, ascending.

    The one-point view of the stacked block solve of spectrum_vs_g1:
    blocks are cut from the chain band (_chain_bands) without building the
    dense chain matrix, the 4x4 blocks diagonalized in one stacked call,
    the boundary group at photon number zero on its own.
    """
    par = _normalize_parity(parity)
    n_blocks = check_n_blocks("n_blocks", n_blocks)
    n_max = chain_n_max_for_blocks(n_blocks)
    return _chain_levels(*_chain_bands([p], [t], par, n_max, mode), par, n_blocks)[0].tolist()


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


def _block_levels(p: ModelParams, t: TrwaParams, n_blocks: int,
                  mode: CoefficientMode) -> tuple[np.ndarray, np.ndarray]:
    """The closed-block levels of both chains at one design, ascending,
    and the parity tag of each: the one-point view of the stacked solve,
    which the oracle comparison reads."""
    energies, tags = _stacked_levels([p], [t], check_n_blocks("n_blocks", n_blocks), mode)
    return energies[0], tags[0]


def _failed_point(g1, delta1, lambda1, lambda2, token: str) -> tuple[tuple, ...]:
    """The columns of a g1 point whose design failed: one row, no level."""
    return tuple((cell,) for cell in (g1, delta1, lambda1, lambda2, "", None, None, None, token))


def _design_point(omega: float, delta2: float, g2: float, g1: float) -> tuple:
    """The (ModelParams, TrwaParams) of the resonant design at g1 or, when
    the design fails, the columns of the point: one error row, no level."""
    try:
        des = design_resonant(omega, delta2, g2, g1)
    except _POINT_ERRORS as exc:
        return _failed_point(g1, None, None, None, error_token(exc))
    if not des.physical:
        return _failed_point(g1, des.delta1, des.lambda1, des.lambda2, "NonphysicalDesign")
    return (ModelParams(omega=omega, delta1=des.delta1, delta2=delta2, g1=g1, g2=g2),
            TrwaParams(lambda1=des.lambda1, lambda2=des.lambda2))


def _level_columns(p: ModelParams, t: TrwaParams, energies: np.ndarray,
                   tags: np.ndarray) -> tuple[Sequence, ...]:
    """The SPECTRUM_FIELDS columns of a solved g1 point, one row per level."""
    n = len(energies)
    return (
        (p.g1,) * n, (p.delta1,) * n, (t.lambda1,) * n, (t.lambda2,) * n,
        tags.tolist(), range(n), energies.tolist(),
        (constant_offset(p, t),) * n, (None,) * n,
    )


# The most 4x4 blocks per chain in one stacked solve of spectrum_vs_g1: a
# grid goes through in chunks of max(1, _STACK_BLOCKS // n_blocks) points,
# so a long grid at the n_blocks cap holds one point's arrays at a time.
_STACK_BLOCKS = 4096


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
    fields.  The designed points are solved stacked (_stacked_levels), in
    chunks of max(1, _STACK_BLOCKS // n_blocks) points; a point's levels
    do not depend on the chunk it is solved in.  Raises ValueError unless
    check_grid accepts g1_grid with entries >= 0, check_n_blocks n_blocks,
    and design_resonant each g1.
    """
    g1_grid = check_grid("g1_grid", g1_grid, ">=", 0)
    blocks = check_n_blocks("n_blocks", n_blocks)
    points = [_design_point(omega, delta2, g2, g1) for g1 in g1_grid]
    solved = [point for point in points if isinstance(point[0], ModelParams)]
    step = max(1, _STACK_BLOCKS // blocks)
    levels = []
    for start in range(0, len(solved), step):
        ps, ts = zip(*solved[start:start + step])
        levels.extend(zip(*_stacked_levels(ps, ts, blocks, mode)))
    levels = iter(levels)
    parts = [_level_columns(*point, *next(levels)) if isinstance(point[0], ModelParams)
             else point for point in points]
    columns = tuple(
        tuple(itertools.chain.from_iterable(part[k] for part in parts))
        for k in range(len(SPECTRUM_FIELDS))
    )
    return SpectrumTable(
        omega=omega, delta2=delta2, g2=g2, mode=str(mode.value),
        n_blocks=n_blocks, columns=columns,
    )
