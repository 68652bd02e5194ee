"""Exact-diagonalization oracles in truncated product Fock bases.

The Hamiltonians here are the untransformed ones, with no displaced frame
and no rotating truncation, so they serve as an independent check on the
block machinery.  Each family has one source of matrix elements.  The
single-mode Rabi matrices come from the band of each parity sector
(_sector_band): build_parity_sector is its dense form, build_full_rabi
scatters both sectors into the product basis, and build_rotated_rabi is a
sign gauge of that.  Basis ordering everywhere: photon number outermost,
then the two qubit labels lexicographically.  The two-mode pseudomode
oracle, build_full_pseudomode, lives in reservoir.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fockspace import _block_level_count, _block_levels
from .model import _ZLABELS, MIN_N_MAX, CoefficientMode, ModelParams, TrwaParams
from .numerics import SymmetricMatrix, _certified_lowest, band_to_dense, check_bound
from .resonance import NonphysicalDesignError, design_resonant
from .serialize import record_dict


def _check_truncation(n_max: int) -> None:
    check_bound("n_max", n_max, ">=", MIN_N_MAX, integer=True)


def check_n_levels(n_levels: int, n_max: int, n_blocks: int | None = None) -> None:
    """Raise ValueError unless 1 <= n_levels <= the levels there are.

    The exact truncation at n_max holds 4 (n_max + 1) levels; with
    n_blocks, the closed blocks of both parity chains hold as many as
    fockspace counts beside its block tiling.
    """
    top = 4 * (n_max + 1)
    if n_blocks is not None:
        top = min(top, _block_level_count(1, n_blocks) + _block_level_count(-1, n_blocks))
    if not 1 <= n_levels <= top:
        where = f"n_max={n_max}" + ("" if n_blocks is None else f", n_blocks={n_blocks}")
        raise ValueError(f"n_levels={n_levels} outside [1, {top}] at {where}")


def _sector_states(n_max: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers (R,) and qubit indices (R, 2) of one parity sector.

    At photon number n the sector keeps the two sigma-z product states with
    z1 z2 = parity (-1)^n, in ascending qubit index.
    """
    _check_truncation(n_max)
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    n = np.arange(n_max + 1)
    # z1 z2 = +1 on qubit indices (0, 3), -1 on (1, 2); k ^ 1 maps one pair
    # onto the other in order
    k = np.tile((0, 3), (n_max + 1, 1))
    k[(n % 2 == 1) != (parity == -1)] ^= 1
    return n, k


def _sector_band(p: ModelParams, n_max: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Band of one parity sector: rung blocks (R, 2, 2), couplings (R-1, 2, 2).

    Rung n holds the sector's two states at photon number n.  The
    Hamiltonian has no element inside a rung, so each rung block is
    diagonal; couple[n, a, b] links state a of rung n to state b of rung
    n + 1, which differ in exactly one qubit: g1 sqrt(n+1) when it is q1
    (k ^ 2), g2 sqrt(n+1) when it is q2 (k ^ 1).
    """
    n, k = _sector_states(n_max, parity)
    z1 = 1 - 2 * (k >> 1)
    z2 = 1 - 2 * (k & 1)
    rungs = np.zeros((n_max + 1, 2, 2))
    rungs[:, (0, 1), (0, 1)] = p.omega * n[:, None] + p.delta1 * z1 + p.delta2 * z2
    root = np.sqrt(n[:-1] + 1.0)[:, None, None]
    flips_q1 = k[1:, None, :] == (k[:-1, :, None] ^ 2)
    couple = np.where(flips_q1, p.g1 * root, p.g2 * root)
    return rungs, couple


def build_parity_sector(p: ModelParams, n_max: int, parity: int) -> SymmetricMatrix:
    """The Hamiltonian of build_full_rabi on the states of one parity sector.

    The dense form of _sector_band: state (n, k), k the qubit index 0..3,
    sits at 2n + (k >> 1), and each coupling flips one qubit and raises n,
    so the half-bandwidth is 3.  Dimension 2 (n_max + 1).
    """
    n, k = _sector_states(n_max, parity)
    labels = tuple(
        f"|{nn},{_ZLABELS[kk][0]},{_ZLABELS[kk][1]}>"
        for nn, kk in zip(np.repeat(n, 2).tolist(), k.ravel().tolist())
    )
    return SymmetricMatrix(band_to_dense(*_sector_band(p, n_max, parity)), labels)


def build_full_rabi(p: ModelParams, n_max: int) -> SymmetricMatrix:
    """Untransformed Hamiltonian in the sigma-z product Fock basis.

    omega a^dag a + g1 sx1 (a + a^dag) + g2 sx2 (a + a^dag)
    + delta1 sz1 + delta2 sz2, truncated at n_max photons.
    Dimension 4 (n_max + 1); state (n, k), k the qubit index 0..3 in
    _ZLABELS order, sits at 4n + k.  The parity (-1)^n z1 z2 commutes with
    the Hamiltonian, so the matrix is its two parity sectors
    (build_parity_sector) scattered into this index space, with zeros
    between them.
    """
    _check_truncation(n_max)
    dim = 4 * (n_max + 1)
    arr = np.zeros((dim, dim))
    labels = np.empty(dim, dtype=object)
    for parity in (1, -1):
        n, k = _sector_states(n_max, parity)
        idx = (4 * n[:, None] + k).ravel()
        sector = build_parity_sector(p, n_max, parity)
        arr[np.ix_(idx, idx)] = sector.data
        labels[idx] = sector.labels
    return SymmetricMatrix(arr, tuple(labels))


def build_rotated_rabi(p: ModelParams, n_max: int) -> SymmetricMatrix:
    """build_full_rabi in a sign gauge, with the qubits relabeled {+, -}.

    This is G F G with F = build_full_rabi(p, n_max) and
    G = 1 (x) sz (x) sz: the diagonal is unchanged and every coupling,
    which flips exactly one qubit label, changes sign (-g_i sqrt(n+1)).
    That is the matrix of -g_i sz_i (a + a^dag) + delta_i sx_i in the
    sigma-x product basis, so the labels read as sigma-x eigenvalues and
    every basis state has the definite parity (-1)^n s1 s2.  It is not a
    frame rotation of F: the spectrum equals F's by a diagonal similarity,
    so isospectrality with F checks the gauge, not a qubit rotation.
    """
    full = build_full_rabi(p, n_max)
    z1z2 = np.tile([1.0, -1.0, -1.0, 1.0], n_max + 1)
    labels = tuple(lab.replace("e", "+").replace("g", "-") for lab in full.labels)
    return SymmetricMatrix(full.data * np.outer(z1z2, z1z2), labels)


@dataclass(frozen=True)
class ConvergenceReport:
    """Truncation check: lowest levels at n_max versus 2 n_max."""
    n_max: int
    n_levels: int
    tol: float
    deltas: tuple[float, ...]
    passed: bool

    @property
    def max_delta(self) -> float:
        return max(self.deltas) if self.deltas else 0.0

    def to_dict(self) -> dict:
        d = record_dict(self)
        d["max_delta"] = self.max_delta
        return d


def _lowest_levels(p: ModelParams, n_max: int, n_levels: int) -> tuple[np.ndarray, int]:
    """Lowest n_levels eigenvalues of build_full_rabi(p, n_max): the
    certified lowest levels of each parity sector's band, merged; and the
    larger rungs_read of the two sector solves."""
    k = min(n_levels, 2 * (n_max + 1))
    solved = [_certified_lowest(*_sector_band(p, n_max, parity), k) for parity in (1, -1)]
    vals = np.sort(np.concatenate([theta for theta, _ in solved]))[:n_levels]
    return vals, max(rungs_read for _, rungs_read in solved)


def exact_spectrum(
    p: ModelParams, n_max: int, n_levels: int
) -> tuple[np.ndarray, ConvergenceReport]:
    """Lowest n_levels exact eigenvalues plus a doubled-truncation report.

    The report passes when every level moves by at most 1e-8 * omega
    between truncations n_max and 2 n_max.  A failed report is returned,
    not raised.

    Each truncation is solved one parity sector at a time, and only for its
    lowest levels: numerics.eigvals_lowest diagonalizes a leading block of
    the sector's band (_sector_band) and certifies the values on the whole
    sector.  Cauchy interlacing bounds each level from above by the
    block's; a block LDL^T inertia count (Sylvester's law) bounds it from
    below and checks the interlacing side, to a tolerance of 64 eps times
    the block's largest absolute row sum (6.8e-13 to 1e-12 on the fig-3
    design).  The first block is sized from the band: 16 photon numbers
    past the rung where the Gershgorin bounds of the rest of the sector
    pass the k-th level of a small probe block (32 to 43 rungs on the
    fig-3 design for g1 from 0.5 to 1.2).  A failed certificate doubles
    the block; ConvergenceFailureError is raised if it fails on the whole
    sector.  No sector matrix is built.

    The 2 n_max truncation is solved first.  When both of its sector solves
    read at most n_max rungs (rungs_read, see numerics), its values are the
    n_max values too, and the n_max bands are not solved:

    * Rung n of _sector_band depends only on n and p, so below rung n_max
      both bands have the same entries and the same row sums (rung
      n_max - 1 couples to rung n_max in both).  The probe block is the
      coarse one's, and so is its k-th level theta_hat.  Both solve for
      the same k: a k above 2 (n_max + 1) would start the fine probe past
      rung n_max.
    * The coarse band's rung n_max has fewer couplings than the fine
      band's, so its Gershgorin lower bound is not smaller, and the coarse
      band has no rungs beyond it.  So every suffix minimum of the coarse
      bounds from a rung below n_max is at least the fine one, and equal
      to it when the fine one is attained below n_max.
    * The sizing's crossing rung c lies inside the fine first block, so
      below n_max, and the rungs from c on pass theta_hat in the coarse
      band too: the coarse c, and so the first block, are the fine ones.
      Every leading block, tol and pivot threshold the fine solve used is
      then the coarse one's.
    * The stop test of each count reads the smallest Gershgorin lower bound
      of the rungs past the current one.  The fine solve found it at a rung
      below n_max, so the coarse suffix minimum is the same float.
    * So the coarse counts factor the same pivots, stop at the same rung
      and give the same counts, the doubling rounds pass and fail alike,
      and the coarse theta is the fine theta bit for bit.

    The deltas then read 0, as they would from two solves: the certificate
    bounds the true deltas by twice the tolerance.  Otherwise the n_max
    bands are solved as well.

    No scipy path: scipy.linalg.eig_banded would solve the same band, but
    importing scipy.linalg costs 0.19-0.26 s and 28 MiB of resident memory,
    more than this whole solve at n_max = 300.
    """
    _check_truncation(n_max)
    check_n_levels(n_levels, n_max)
    vals_fine, rungs_read = _lowest_levels(p, 2 * n_max, n_levels)
    vals = vals_fine if rungs_read <= n_max else _lowest_levels(p, n_max, n_levels)[0]
    deltas = tuple(float(abs(a - b)) for a, b in zip(vals, vals_fine))
    tol = 1e-8 * p.omega
    report = ConvergenceReport(
        n_max=n_max, n_levels=n_levels, tol=tol,
        deltas=deltas, passed=max(deltas) <= tol,
    )
    return vals, report


@dataclass(frozen=True)
class DeviationRow:
    """Per-level comparison of ground-referenced energies."""
    level_index: int
    e_trwa: float
    e_exact: float
    abs_dev: float
    rel_dev: float

    def to_dict(self) -> dict:
        return record_dict(self)


@dataclass(frozen=True)
class TrwaExactComparison:
    """Ground-aligned level deviations between the block spectrum and the
    exact oracle at a resonant design."""
    omega: float
    delta2: float
    g2: float
    g1: float
    delta1: float
    lambda1: float
    lambda2: float
    n_max: int
    trwa_ground: float
    exact_ground: float
    rows: tuple[DeviationRow, ...]
    convergence: ConvergenceReport

    def to_dict(self) -> dict:
        d = record_dict(self)
        d["rows"] = [r.to_dict() for r in self.rows]
        d["convergence"] = self.convergence.to_dict()
        return d


def compare_trwa_exact(
    omega: float,
    delta2: float,
    g2: float,
    g1: float,
    n_levels: int = 6,
    n_max: int = 60,
    n_blocks: int = 8,
    mode: CoefficientMode = CoefficientMode.APPROX,
) -> TrwaExactComparison:
    """Compare the resonant block spectrum against exact diagonalization.

    Both spectra are offset-aligned by their own ground energies before the
    per-level deviations are taken (the block energies contain the global
    displacement constant, the exact ones do not).  Raises ValueError unless
    check_n_levels accepts n_levels, and NonphysicalDesignError when the
    design derives delta1 <= 0.
    """
    _check_truncation(n_max)
    check_n_levels(n_levels, n_max, n_blocks)
    des = design_resonant(omega, delta2, g2, g1)
    if not des.physical:
        raise NonphysicalDesignError(f"the resonant design derives delta1 = {des.delta1} <= 0")
    p = ModelParams(omega=omega, delta1=des.delta1, delta2=delta2, g1=g1, g2=g2)
    t = TrwaParams(lambda1=des.lambda1, lambda2=des.lambda2)
    trwa = _block_levels(p, t, n_blocks, mode)[0].tolist()

    exact, report = exact_spectrum(p, n_max, n_levels)
    rows = []
    for k in range(n_levels):
        et = trwa[k] - trwa[0]
        ee = float(exact[k] - exact[0])
        dev = abs(et - ee)
        rows.append(DeviationRow(
            level_index=k, e_trwa=et, e_exact=ee, abs_dev=dev,
            rel_dev=dev / max(abs(ee), 1e-300),
        ))
    return TrwaExactComparison(
        omega=omega, delta2=delta2, g2=g2, g1=g1,
        delta1=des.delta1, lambda1=des.lambda1, lambda2=des.lambda2,
        n_max=n_max, trwa_ground=trwa[0], exact_ground=float(exact[0]),
        rows=tuple(rows), convergence=report,
    )
