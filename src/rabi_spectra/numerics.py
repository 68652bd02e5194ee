"""Shared numerical kernels: Laguerre evaluation, bracketed root finding,
and a dense symmetric eigensolver with a fixed sign convention.

Everything here is deterministic: the same inputs produce the same floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NoBracketError(ValueError):
    """f(lo) and f(hi) have the same sign, so no root is bracketed."""


class NonFiniteError(ArithmeticError):
    """The objective returned NaN or infinity inside the bracket."""


class ConvergenceFailureError(RuntimeError):
    """The underlying eigensolver failed to converge."""


def laguerre_table(n_max: int, k: int, x: float) -> np.ndarray:
    """Generalized Laguerre polynomials L_0^k(x) .. L_{n_max}^k(x).

    Uses the stable three-term upward recurrence

        (m+1) L_{m+1}^k(x) = (2m + k + 1 - x) L_m^k(x) - (m + k) L_{m-1}^k(x)

    starting from L_0^k = 1 and L_1^k = 1 + k - x, run once up to n_max.

    Parameters
    ----------
    n_max : int
        Highest degree, 0 <= n_max <= 10_000.
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
    if n_max < 0 or n_max > 10_000:
        raise ValueError(f"degree n={n_max} outside [0, 10000]")
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
    0 <= n <= 10_000, k >= 0, x finite.
    """
    return float(laguerre_table(n, k, x)[n])


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 256,
) -> float:
    """Find a root of f on [lo, hi] by bisection interleaved with secant steps.

    The iterate never leaves the current bracket, so a sign change at the
    endpoints guarantees convergence.  Bisection runs on even iterations;
    odd iterations try a secant step and fall back to the midpoint whenever
    the secant point is not strictly inside the bracket.

    Returns the evaluated point with the smallest |f| once the bracket has
    shrunk to ``tol``.  Raises NoBracketError when sign(f(lo)) == sign(f(hi)),
    NonFiniteError when f returns a non-finite value.
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

    for it in range(max_iter):
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

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def entry(self, i: int, j: int) -> float:
        return float(self.data[i, j])

    def submatrix(self, indices: Sequence[int]) -> "SymmetricMatrix":
        idx = list(indices)
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
