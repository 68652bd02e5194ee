"""Shared numerical kernels: Laguerre evaluation, bracketed root finding,
a dense symmetric eigensolver with a fixed sign convention, a certified
lowest-k solve of block-tridiagonal bands, and the checks of parameters and
grids.

check_number, check_bound and check_grid hold the rules for numbers and
grids (finite, not a string or a bool, a bound, strictly increasing).  The
parameter classes, the solvers, the sweeps and the command line all check
through them, so the library and `validate` reject the same values with the
same message.

The named numerical errors live here, the reservoir's two among them, so
the command line names them without importing the reservoir.

The TRWA parity chains (fockspace) and the exact parity sectors (oracle)
share one band layout, rung blocks (R, 2, 2) and couplings (R - 1, 2, 2),
rung n holding photon number n; band_to_dense is its one dense writer.

The lowest-k solve (eigvals_lowest) serves the exact oracle, which needs a
handful of the lowest levels of a parity sector with hundreds of rungs.  It
diagonalizes a dense leading block of the band and certifies the result on
the whole band with an inertia count:

* Cauchy interlacing: the i-th eigenvalue theta_i of a leading principal
  block bounds the i-th eigenvalue of the whole matrix from above,
  lambda_i <= theta_i.
* Sylvester's law of inertia: a block LDL^T factorization of A - s I has
  as many negative pivots as A has eigenvalues below s (inertia_count).
  At most i eigenvalues below theta_i - tol gives lambda_i >= theta_i - tol;
  at least i + 1 below theta_i + tol gives lambda_i < theta_i + tol, which
  checks the interlacing side too, so the certificate does not trust the
  dense solve.
* tol is 64 eps times the largest absolute row sum of the leading rungs:
  a margin over the rounding of the dense solve and of the count.
* The first leading block is sized from the band (_first_lead): a probe
  block of the fewest leading rungs that hold k levels gives an upper
  bound on lambda_{k-1}, and the block reaches _LEAD_MARGIN rungs past the
  first rung from which every row's Gershgorin lower bound is above it.
  A failed certificate doubles the leading block; at the whole band it
  raises ConvergenceFailureError.
* rungs_read (the private _certified_lowest) is how many leading rungs
  the solve read: its largest leading block, which holds every rung the
  sizing read, and for each count the rungs it factored before stopping
  plus the rung where its stop test's Gershgorin bound was attained.  A
  shorter truncation of the same band that keeps those rungs gives the
  same levels bit for bit, which lets the oracle certify two truncations
  with one solve.

The count (_count_below) is a plain-Python loop over the shifts at each
rung: a solve counts a dozen shifts, theta_i -/+ tol, and numpy call
overhead on arrays that short costs more than their arithmetic.  Its steps
are the IEEE operations of the array loop it replaced, so its counts are
bit-identical to that loop's.  The band check, row sums and Gershgorin
bounds run once per band (_band), not once per count or leading block.
An overflow in a count raises ConvergenceFailureError.

This is numpy only on purpose.  scipy.linalg.eig_banded would solve the
same band, but importing scipy.linalg costs 0.19-0.26 s and 28 MiB of
resident memory (26.9 -> 55.2 MiB), more than the whole certified solve of
an n_max = 300 oracle takes.

Everything here is deterministic: the same inputs produce the same floats.
"""
from __future__ import annotations

import bisect
import math
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Highest degree laguerre_table runs its recurrence to.
LAGUERRE_MAX_DEGREE = 10_000


class NoBracketError(ValueError):
    """f(lo) and f(hi) have the same sign, so no root is bracketed."""


class NonFiniteError(ArithmeticError):
    """The objective returned NaN or infinity inside the bracket."""


class ConvergenceFailureError(RuntimeError):
    """The underlying eigensolver failed to converge."""


class SingularEtaError(ArithmeticError):
    """omega = 2*delta makes the reservoir's eta exponent blow up."""


class SingularDenominatorError(ArithmeticError):
    """omega - eta is (numerically) zero, so the reservoir's
    mu = g/(omega - eta) diverges."""


def error_token(exc: BaseException) -> str:
    """Short name of a failure for error records and per-row error columns:
    the exception's class name without its "Error" suffix."""
    name = type(exc).__name__
    return name[:-5] if name.endswith("Error") else name


def check_increasing(name: str, values: Sequence[float]) -> None:
    """Raise ValueError unless values are strictly increasing.

    A sweep numbers the levels of each grid point from zero, so a repeated
    point would give two rows per level index at one value.
    """
    for a, b in zip(values, values[1:]):
        if not a < b:
            raise ValueError(f"{name} must be strictly increasing, got {b!r} after {a!r}")


def _is_number(value) -> bool:
    # int and float come first: an isinstance test of the numbers.Real ABC
    # alone costs about 0.6 us, and parameter classes check on every build
    return not isinstance(value, bool) and isinstance(value, (int, float, numbers.Real))


def _as_float(x: numbers.Real) -> float:
    """float(x), or an infinity of x's sign for an integer past the float
    range, where float() raises OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def check_number(name: str, value) -> float:
    """value as a float; ValueError unless it is a finite real number.

    A string or a bool is not a number; an integer past the float range
    counts as infinite.
    """
    if not _is_number(value):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    x = _as_float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name}: must be finite, got {x}")
    return x


def check_integer(name: str, value) -> int:
    """value as an int; ValueError unless it is an integer-valued number.

    An int that check_number accepts keeps its exact value: only other
    numbers go through float, which would round an int past 2**53."""
    x = check_number(name, value)
    if isinstance(value, int):
        return int(value)
    if x != int(x):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(x)


def check_bound(name: str, value, op: str, low: int, owner: str | None = None,
                integer: bool = False) -> float | int:
    """value as a float (an int with integer), checked by check_number (or
    check_integer) and against the bound `op low`, op '>' or '>='.

    The message of a failed bound names owner, the parameter class the
    setting belongs to, when it is given.
    """
    x = check_integer(name, value) if integer else check_number(name, value)
    if not (x > low if op == ">" else x >= low):
        raise ValueError(f"{owner} requires {name} {op} {low}, got {x}" if owner
                         else f"{name} must be {op} {low}, got {x}")
    return x


def check_grid(name: str, values, op: str | None = None, low: int = 0) -> list[float]:
    """The entries of a grid as floats: one number, or a non-empty
    sequence of finite numbers, strictly increasing (check_increasing).
    With op, each entry is checked against the bound `op low` by
    check_bound, the bound of the parameter the grid sweeps."""
    if _is_number(values):
        values = [values]
    elif isinstance(values, (str, bytes, Mapping)) or not isinstance(values, Iterable):
        raise ValueError(f"{name}: expected a grid, got {values!r}")
    values = list(values)
    if not values:
        raise ValueError(f"{name}: grid is empty")
    for x in values:
        if not (_is_number(x) and math.isfinite(_as_float(x))):
            raise ValueError(f"{name}: grid entries must be finite numbers, got {x!r}")
    grid = [float(x) for x in values]
    check_increasing(name, grid)
    if op is not None:
        for x in grid:
            check_bound(name, x, op, low)
    return grid


def laguerre_table(n_max: int, k: int, x: float) -> np.ndarray:
    """Generalized Laguerre polynomials L_0^k(x) .. L_{n_max}^k(x).

    Uses the stable three-term upward recurrence

        (m+1) L_{m+1}^k(x) = (2m + k + 1 - x) L_m^k(x) - (m + k) L_{m-1}^k(x)

    starting from L_0^k = 1 and L_1^k = 1 + k - x, run once up to n_max.

    Parameters
    ----------
    n_max : int
        Highest degree, 0 <= n_max <= LAGUERRE_MAX_DEGREE.
    k : int
        Order, k >= 0.  k=0 gives the ordinary Laguerre polynomials.
    x : float
        Evaluation point, x >= 0 for the uses in this package.

    Returns
    -------
    np.ndarray
        Length n_max + 1, entry n holding L_n^k(x).  Exact binomial values
        at x = 0: L_n^k(0) = C(n+k, n).
    """
    if n_max < 0 or n_max > LAGUERRE_MAX_DEGREE:
        raise ValueError(f"degree n={n_max} outside [0, {LAGUERRE_MAX_DEGREE}]")
    if k < 0:
        raise ValueError(f"order k={k} must be nonnegative")
    if not math.isfinite(x):
        raise NonFiniteError(f"x={x} is not finite")
    values = [1.0, 1.0 + k - x]   # L_0, L_1
    lm1, lm = values
    for m in range(1, n_max):
        lm, lm1 = ((2.0 * m + k + 1.0 - x) * lm - (m + k) * lm1) / (m + 1.0), lm
        values.append(lm)
    return np.array(values[:n_max + 1])


def eval_laguerre(n: int, k: int, x: float) -> float:
    """Evaluate the generalized Laguerre polynomial L_n^k(x).

    The last entry of laguerre_table(n, k, x), with the same validation:
    0 <= n <= LAGUERRE_MAX_DEGREE, k >= 0, x finite.
    """
    return float(laguerre_table(n, k, x)[n])


_ROOT_MAX_ITER = 256


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Find a root of f on [lo, hi] by bisection interleaved with secant steps.

    The iterate never leaves the current bracket, so a sign change at the
    endpoints guarantees convergence.  Bisection runs on even iterations;
    odd iterations try a secant step and fall back to the midpoint whenever
    the secant point is not strictly inside the bracket.

    Returns the evaluated point with the smallest |f| once the bracket has
    shrunk to ``tol``, or after _ROOT_MAX_ITER steps.  Raises
    NoBracketError when sign(f(lo)) == sign(f(hi)), NonFiniteError when f
    returns a non-finite value.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        raise NonFiniteError(f"f non-finite at bracket endpoints: f({lo})={flo}, f({hi})={fhi}")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoBracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")

    if abs(flo) <= abs(fhi):
        best_x, best_f = lo, abs(flo)
    else:
        best_x, best_f = hi, abs(fhi)

    for it in range(_ROOT_MAX_ITER):
        if hi - lo <= tol:
            break
        x = 0.5 * (lo + hi)
        if it % 2 == 1 and fhi != flo:
            xs = (lo * fhi - hi * flo) / (fhi - flo)
            if lo < xs < hi:
                x = xs
        if x <= lo or x >= hi:
            # bracket has collapsed to adjacent floats
            break
        fx = f(x)
        if not math.isfinite(fx):
            raise NonFiniteError(f"f({x}) = {fx} inside bracket")
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return best_x


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric matrix, optionally carrying basis labels.

    ``data`` is validated on construction: square, finite, and exactly
    symmetric (entry (i,j) bit-equal to entry (j,i); builders write both
    triangles from the same float, so no tolerance is involved).
    """
    data: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=float))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("empty matrix")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("matrix entries must be finite")
        if not np.array_equal(arr, arr.T):
            raise ValueError("matrix is not exactly symmetric")
        object.__setattr__(self, "data", arr)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != arr.shape[0]:
                raise ValueError(f"{len(labels)} labels for dim {arr.shape[0]}")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def _unchecked(cls, data: np.ndarray) -> "SymmetricMatrix":
        """An unlabeled SymmetricMatrix of a C-contiguous float array that
        its builder wrote exactly symmetric from entries already checked
        finite, without checking it again."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", data)
        object.__setattr__(m, "labels", None)
        return m

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def entry(self, i: int, j: int) -> float:
        return float(self.data[i, j])

    def submatrix(self, indices: Sequence[int]) -> "SymmetricMatrix":
        """Principal submatrix on distinct indices in [0, dim), in their order."""
        idx = list(indices)
        if len(set(idx)) != len(idx) or not all(0 <= i < self.dim for i in idx):
            raise ValueError(f"indices {tuple(idx)} need to be distinct and in [0, {self.dim})")
        sub = self.data[np.ix_(idx, idx)]
        labs = tuple(self.labels[i] for i in idx) if self.labels is not None else None
        return SymmetricMatrix(sub, labs)


def sym_set(arr: np.ndarray, i: int, j: int, value: float) -> None:
    """Write value into both (i, j) and (j, i) of a scratch array."""
    arr[i, j] = value
    arr[j, i] = value


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending; eigenvectors orthonormal, one per column.

    Column signs follow a reproducible convention: the first component of
    each vector whose magnitude exceeds 1e-12 times the column max is
    made positive.
    """
    values: np.ndarray
    vectors: np.ndarray

    def residual(self, m: SymmetricMatrix) -> float:
        r = m.data @ self.vectors - self.vectors * self.values[np.newaxis, :]
        return float(np.max(np.abs(r))) if r.size else 0.0


def _require_symmetric(m: SymmetricMatrix) -> None:
    # LAPACK reads one triangle only, so an unvalidated array would be
    # diagonalized as if it were symmetric
    if not isinstance(m, SymmetricMatrix):
        raise TypeError(f"expected a SymmetricMatrix, got {type(m).__name__}")


def eigh(m: SymmetricMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a SymmetricMatrix.

    Backed by LAPACK via numpy.linalg.eigh, which already returns
    ascending eigenvalues and orthonormal eigenvectors for symmetric
    input; this wrapper adds the sign convention and error mapping.
    Raises TypeError for anything but a SymmetricMatrix.
    """
    _require_symmetric(m)
    try:
        vals, vecs = np.linalg.eigh(m.data)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise ConvergenceFailureError(str(exc)) from exc
    vecs = vecs.copy()
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        cutoff = 1e-12 * np.max(np.abs(v))
        for comp in v:
            if abs(comp) > cutoff:
                if comp < 0.0:
                    vecs[:, col] = -v
                break
    return EigenDecomposition(values=vals, vectors=vecs)


def eigvals_stacked(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a (k, d, d) stack of symmetric matrices.

    One numpy.linalg.eigh call over the whole stack.  It runs the same
    LAPACK routine per matrix as eigh(), so row i is bit-equal to
    eigh(SymmetricMatrix(blocks[i])).values; numpy.linalg.eigvalsh takes
    another path and differs in the last bits.  The stack is not
    revalidated: callers pass blocks assembled from a chain band whose
    entries were checked finite, and write both triangles from one value.
    """
    try:
        return np.linalg.eigh(blocks)[0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailureError(str(exc)) from exc


def eigvals_sym(m: SymmetricMatrix) -> np.ndarray:
    """Ascending eigenvalues only (no vectors).  Raises TypeError for
    anything but a SymmetricMatrix."""
    _require_symmetric(m)
    try:
        return np.linalg.eigvalsh(m.data)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailureError(str(exc)) from exc


# rungs in the smallest probe block that sizes the first leading block of
# eigvals_lowest (_first_lead), the rungs that block holds past the rung
# where the band's Gershgorin bounds pass the probe's level, and the
# tolerance in units of eps times the block's largest absolute row sum
_PROBE_RUNGS = 4
_LEAD_MARGIN = 16
_TOL_EPS = 64
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _check_band(rungs, couple) -> tuple[np.ndarray, np.ndarray]:
    """Validate a band as band_to_dense lays it out."""
    rungs = np.asarray(rungs, dtype=float)
    couple = np.asarray(couple, dtype=float)
    if rungs.ndim != 3 or rungs.shape[0] == 0 or rungs.shape[1:] != (2, 2):
        raise ValueError(f"expected rung blocks of shape ('R', 2, 2), got {rungs.shape}")
    want = (rungs.shape[0] - 1, 2, 2)
    if couple.shape != want:
        raise ValueError(f"expected couplings of shape {want}, got {couple.shape}")
    if not (np.all(np.isfinite(rungs)) and np.all(np.isfinite(couple))):
        raise NonFiniteError("band entries must be finite")
    if not np.array_equal(rungs[:, 0, 1], rungs[:, 1, 0]):
        raise ValueError("rung blocks are not exactly symmetric")
    return rungs, couple


def band_to_dense(rungs: np.ndarray, couple: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix of a block-tridiagonal band with 2x2 blocks.

    Rung n holds rows 2n and 2n + 1: rungs (R, 2, 2) is each rung's own
    block, exactly symmetric, and couple (R - 1, 2, 2) couples rung n to
    rung n + 1: entry (2n + a, 2n + 2 + b) is couple[n, a, b], written to
    both triangles.
    """
    return _dense(*_check_band(rungs, couple))


def _dense(rungs: np.ndarray, couple: np.ndarray) -> np.ndarray:
    """band_to_dense of a checked band, or of a stack of them (leading axes)."""
    size = rungs.shape[-3]
    arr = np.zeros((*rungs.shape[:-3], 2 * size, 2 * size))
    # row and column of entry [n, a, b] of the rung blocks
    row = 2 * np.arange(size)[:, None, None] + np.arange(2)[:, None]
    col = row.transpose(0, 2, 1)
    arr[..., row, col] = rungs
    arr[..., row[:-1], col[1:]] = couple
    arr[..., col[1:], row[:-1]] = couple
    return arr


def _row_sums(rungs: np.ndarray, couple: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row (R, 2): the Gershgorin lower bound diag - sum |off| and the
    absolute row sum |diag| + sum |off|."""
    diag = np.diagonal(rungs, axis1=1, axis2=2)
    off = np.repeat(np.abs(rungs[:, :1, 1]), 2, axis=1)
    off[:-1] += np.abs(couple).sum(axis=2)
    off[1:] += np.abs(couple).sum(axis=1)
    return diag - off, np.abs(diag) + off


class _Band(NamedTuple):
    """A checked band and the per-rung bounds every count of it reads:
    rowmax[n], the largest absolute row sum of rung n; low[n], its smallest
    Gershgorin lower bound; tail[n], the smallest of low[n:]."""
    rungs: np.ndarray
    couple: np.ndarray
    rowmax: list[float]
    low: np.ndarray
    tail: list[float]


def _band(rungs, couple) -> _Band:
    rungs, couple = _check_band(rungs, couple)
    low, rows = _row_sums(rungs, couple)
    low = low.min(axis=1)
    tail = np.minimum.accumulate(low[::-1])[::-1]
    return _Band(rungs, couple, rows.max(axis=1).tolist(), low, tail.tolist())


def inertia_count(rungs: np.ndarray, couple: np.ndarray, shifts) -> np.ndarray:
    """Number of eigenvalues below each shift, by Sylvester's law of inertia.

    Factors A - s I = L D L^T rung by rung for every shift: each 2x2 Schur
    complement S_n, which starts from rung n's whole block, is split into
    two scalar pivots, and the count is the number of negative pivots.  A
    pivot smaller in magnitude than eps times (the rung's largest absolute
    row sum + the largest |s|) is replaced by minus that size, the
    Sturm-sequence convention: a perturbation of the order of the rounding,
    which keeps every step finite and warning-free.  A level exactly at s
    then counts as below it.

    The factorization stops after rung K once the rest is provably positive
    definite: the Schur complement left over is the trailing matrix T - s I
    minus F = B_K^T S_K^-1 B_K in its first block, and by Weyl's inequality
    it is positive definite when the smallest Gershgorin bound of T's rows,
    minus s, exceeds ||F||_inf.  (The bound used takes each row's couplings
    to both neighbours, so it is at most T's own.)  Raises
    ConvergenceFailureError if a step overflows.
    """
    return _count_below(_band(rungs, couple), shifts)[0]


def _count_below(band: _Band, shifts) -> tuple[np.ndarray, int]:
    """The count of inertia_count on a prepared band, and rungs_read.

    A scalar loop over the shifts at each rung (see the module docstring).
    Python floats overflow to inf without raising, so each rung sums x - x
    over its pivots, multipliers and updates (nan for an infinite or nan x)
    and raises ConvergenceFailureError unless the sum is finite.  The
    divisions cannot fail: every pivot is at least the smallest normal
    float in magnitude.

    The factorization of rungs 0..K reads their entries and row sums, and
    its stop test at rung n reads the smallest Gershgorin bound of the rungs
    past n (tail[n + 1]).  That suffix minimum is first attained at a rung
    j >= n + 1, and j does not decrease with n, so the count read rungs
    0..j of its last stop test: j + 1 rungs, or the whole band when it
    never stopped early.  Rung entries are read as the loop reaches them.
    """
    s = np.atleast_1d(np.asarray(shifts, dtype=float))
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("shifts must be finite")
    s = s.tolist()
    s_abs, s_max = max(map(abs, s)), max(s)
    rungs, couple, rowmax, tail = band.rungs, band.couple, band.rowmax, band.tail
    last = len(rungs) - 1
    (a, off), (_, c) = rungs[0].tolist()
    # per shift: the Schur complement of the rung the loop is at, the
    # shift, and the negative pivots so far
    schur = [(a - x, off, c - x, x, 0) for x in s]
    for n in range(len(rungs)):
        tiny = max(_EPS * (rowmax[n] + s_abs), _TINY)
        # |p| < tiny is neg_tiny < p < tiny, without an abs call
        neg_tiny = -tiny
        if n < last:
            (b00, b01), (b10, b11) = couple[n].tolist()
            (a, off), (_, c) = rungs[n + 1].tolist()
            bound = tail[n + 1]
        else:
            # nothing couples past the last rung: F = 0, no stop test, and
            # the Schur complements this leaves are not read
            b00 = b01 = b10 = b11 = 0.0
            bound = -math.inf
        b00b00, b00b01, b01b01 = b00 * b00, b00 * b01, b01 * b01
        # ||F||_inf >= 0, so no stop is possible before tail > s_max
        test = bound > s_max
        worst = -math.inf
        bad = 0.0
        schur, last_schur = [], schur
        for s00, s01, s11, x, k in last_schur:
            p1 = neg_tiny if neg_tiny < s00 < tiny else s00
            l = s01 / p1
            p2 = s11 - l * s01
            if neg_tiny < p2 < tiny:
                p2 = neg_tiny
            # with S_n = L diag(p1, p2) L^T and W = L^-1 B_n,
            # F = B_n^T S_n^-1 B_n = sum over rows w of W of w^T w / p
            r1, r2 = 1.0 / p1, 1.0 / p2
            w0, w1 = b10 - l * b00, b11 - l * b01
            v0, v1 = w0 * r2, w1 * r2
            f00 = b00b00 * r1 + w0 * v0
            f01 = b00b01 * r1 + w0 * v1
            f11 = b01b01 * r1 + w1 * v1
            bad += (p1 - p1) + (l - l) + (p2 - p2) + (f00 - f00) + (f01 - f01) + (f11 - f11)
            if test:
                abs00, abs11 = abs(f00), abs(f11)
                f_norm = (abs11 if abs11 > abs00 else abs00) + abs(f01) + x
                if f_norm > worst:
                    worst = f_norm
            schur.append((a - x - f00, off - f01, c - x - f11, x, k + (p1 < 0.0) + (p2 < 0.0)))
        if not math.isfinite(bad):
            raise ConvergenceFailureError("inertia count failed: a pivot or update is not finite")
        if test and worst < bound:
            break
    count = np.array([k for *_, k in schur])
    if n == last:
        return count, len(rungs)
    return count, n + 2 + int(np.argmin(band.low[n + 1:]))


def _leading_levels(band: _Band, lead: int, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the leading `lead` rungs of a checked band,
    dense.  _band checked the entries once; _dense writes both triangles
    from one float, so the block is exactly symmetric and is not checked
    again."""
    block = SymmetricMatrix._unchecked(_dense(band.rungs[:lead], band.couple[:lead - 1]))
    return eigvals_sym(block)[:k]


def _first_lead(band: _Band, k: int) -> int:
    """Rungs in the first leading block of eigvals_lowest.

    A probe block of the fewest leading rungs that hold k levels (at least
    _PROBE_RUNGS) gives theta_hat, its k-th level.  By Cauchy interlacing
    theta_hat bounds lambda_{k-1} from above, and the k-th level of every
    larger leading block too.  From the crossing rung c, the first with
    tail[c] > theta_hat, every row's Gershgorin lower bound is above
    theta_hat, so the lowest k eigenvectors decay past c, and the block
    holds c + _LEAD_MARGIN rungs (the whole band if no rung crosses), never
    fewer than the probe.  The margin is a size, not a bound: the
    certificate still checks the block.

    tail is nondecreasing, so c is decided by tail[c - 1] <= theta_hat,
    which is low[c - 1], and tail[c] > theta_hat.  The sizing reads the
    probe's rungs and rungs 0..c, all inside the block, and of the later
    rungs only that their Gershgorin bounds are above theta_hat.
    """
    total = len(band.rungs)
    probe = min(total, max(_PROBE_RUNGS, (k + 1) // 2))
    theta_hat = _leading_levels(band, probe, k)[-1]
    cross = bisect.bisect_right(band.tail, theta_hat)
    return min(total, max(probe, cross + _LEAD_MARGIN))


def eigvals_lowest(rungs: np.ndarray, couple: np.ndarray, k: int) -> np.ndarray:
    """Lowest k eigenvalues, ascending, of a block-tridiagonal band with a
    certificate (rung blocks (R, 2, 2) and couplings (R - 1, 2, 2), laid
    out as in band_to_dense).

    Diagonalizes a leading block of the band densely, takes its lowest k
    eigenvalues theta_i, and certifies them on the whole band:
    inertia_count must find at most i eigenvalues below theta_i - tol and
    at least i + 1 below theta_i + tol, so the i-th eigenvalue of the band
    lies within tol of theta_i (see the module docstring; tol = 64 eps
    times the largest absolute row sum of the leading rungs).  The first
    block is sized from the band: _LEAD_MARGIN rungs past the rung where
    the Gershgorin bounds of the rest of the band pass the k-th level of a
    small probe block.  A failed certificate doubles the block.  When it
    fails with the block grown to the whole band, raises
    ConvergenceFailureError.
    """
    return _certified_lowest(rungs, couple, k)[0]


def _certified_lowest(rungs: np.ndarray, couple: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """eigvals_lowest, plus rungs_read: the number of leading rungs the
    whole solve read, over every leading block, tolerance and count (the
    sizing of the first block reads no rung past that block).

    Of the rest of the band, the sizing and the counts read only that no
    rung past rungs_read has a smaller Gershgorin lower bound than the
    smallest one they used.  So another band with the same
    rungs[:rungs_read] and couple[:rungs_read] (the last coupling enters
    through the row sums), none of whose later rungs has a Gershgorin lower
    bound below the smallest of this band's later rungs, gives the same
    theta for the same k, bit for bit: that bound is at least tail[c] of
    _first_lead, above theta_hat, so the sizing picks the same block.
    """
    band = _band(rungs, couple)
    total = len(band.rungs)
    k = check_bound("k", k, ">=", 1, integer=True)
    if k > 2 * total:
        raise ValueError(f"k={k} outside [1, {2 * total}]")
    below = np.arange(k)
    lead = _first_lead(band, k)
    rungs_read = 0
    while True:
        theta = _leading_levels(band, lead, k)
        # + tiny keeps tol positive on an all-zero band
        tol = _TOL_EPS * _EPS * max(band.rowmax[:lead]) + _TINY
        count, counted = _count_below(band, np.concatenate([theta - tol, theta + tol]))
        rungs_read = max(rungs_read, lead, counted)
        if np.all(count[:k] <= below) and np.all(count[k:] > below):
            return theta, rungs_read
        if lead == total:
            raise ConvergenceFailureError(
                f"lowest {k} levels not certified to {tol:.3g}: counts below "
                f"theta - tol {count[:k].tolist()}, below theta + tol {count[k:].tolist()}"
            )
        lead = min(2 * lead, total)
