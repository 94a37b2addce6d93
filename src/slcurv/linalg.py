"""Small dense real linear algebra used by the curvature pipeline.

Everything here targets desk scale (dimension a few dozen): determinant and
inverse from LAPACK's LU with partial pivoting (numpy's det and inv), the one
Euclidean norm (frobenius_norm, for vectors and matrices, overflowing only where
the norm does), a Householder complement basis that depends on g/|g| only and
rejects only a zero or non-finite g, and two symmetric eigensolvers behind one entry
gate (finite input, exact power-of-two scaling, a relative symmetry test,
symmetrization). The curvature pipeline takes its eigenvalues from LAPACK (numpy's
eigvalsh, no vectors). jacobi_eigh, a parallel-order (round-robin) Jacobi solver with
vectors, is the oracle the tests hold it to. An exactly zero pivot is the only
singularity: determinant returns 0.0, det_inverse raises SingularMatrixError, as it
does for a non-finite inverse. A non-finite matrix is a ValueError.

determinant, det_inverse and frobenius_norm also take a stack of matrices, shape
(..., n, n) with ndim >= 3, and then return one value per matrix; each equals the
call on that matrix alone bitwise, because the stack runs the same LAPACK routine
or BLAS dot on every matrix. A stack fails as its first failing matrix fails alone.
complement_basis and jacobi_eigh take one vector or one matrix only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class SingularMatrixError(ValueError):
    """LAPACK met an exactly zero pivot, or the inverse is not finite."""


class NonSymmetricMatrixError(ValueError):
    """Symmetric eigensolver fed a matrix that is not symmetric."""


class JacobiConvergenceError(RuntimeError):
    """Off-diagonal mass failed to reach tolerance within the sweep budget."""


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues sorted descending with matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def _as_square(a, stack: bool = False) -> np.ndarray:
    """a as a float square matrix, or with stack=True also as a stack (..., n, n)."""
    a = np.asarray(a, dtype=float)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_finite_square(a, caller: str, stack: bool = False) -> np.ndarray:
    a = _as_square(a, stack)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{caller} requires a finite matrix")
    return a


def _fails_per_matrix(fn):
    """fn on a stack of matrices fails as fn fails on the first failing matrix alone.

    A ValueError from a stack is traced by calling fn again on each matrix in
    order, so the stack raises exactly what its first bad matrix raises.
    """

    @functools.wraps(fn)
    def checked(a):
        a = np.asarray(a, dtype=float)
        try:
            return fn(a)
        except ValueError:
            for m in a.reshape(-1, *a.shape[-2:]) if a.ndim > 2 else ():
                fn(m)
            raise

    return checked


def _pow2_scaled(a) -> tuple[np.ndarray, int]:
    """(a * 2^-e, e) with 2^e the power of two just above max|a_ij|: exact while
    the entries stay normal, and the largest scaled entry lies in [0.5, 1)."""
    e = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    return np.ldexp(a, -e), e


def _mean(values) -> float:
    """The mean of a vector, sum / size, finite wherever it is representable: a sum
    that overflows is summed again on the values scaled by the power of two just
    above max|v|, and the mean scaled back, as frobenius_norm does. Where the plain
    sum is finite, the result is bitwise numpy's mean."""
    with np.errstate(over="ignore"):
        total = float(values.sum())
    if math.isfinite(total):
        return total / values.size
    w, e = _pow2_scaled(values)
    with np.errstate(over="ignore"):
        return float(np.ldexp(w.sum() / values.size, e))


def _value(x):
    # a float for one matrix, an array for a stack
    return float(x) if np.ndim(x) == 0 else x


def determinant(a) -> float | np.ndarray:
    """Determinant from LAPACK's LU; an exactly zero pivot yields 0.0, not an error.

    A float for one matrix, an array of determinants for a stack (..., n, n).
    """
    return _value(np.linalg.det(_as_finite_square(a, "determinant", stack=True)))


@_fails_per_matrix
def det_inverse(a) -> tuple[float | np.ndarray, np.ndarray]:
    """Determinant and inverse from LAPACK's LU; SingularMatrixError on a zero pivot.

    On a stack (..., n, n): an array of determinants and the stack of inverses.
    """
    a = _as_finite_square(a, "det_inverse", stack=True)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from None
    if not np.all(np.isfinite(inv)):
        raise SingularMatrixError("matrix inverse is not finite")
    return _value(np.linalg.det(a)), inv


def frobenius_norm(a) -> float | np.ndarray:
    """Euclidean norm of a vector's or a matrix's entries. It overflows or underflows only
    when the norm does: a sum of squares outside [2^-960, 2^960] is summed again on the
    entries scaled by an exact power of two (J. L. Blue, ACM TOMS 4(1), 1978).

    With ndim >= 3, an array of norms, one per trailing matrix: each row of entries is
    squared by matmul, which runs the same BLAS dot as v @ v, and a matrix whose squares
    fall outside the range takes the scaled path alone, so every norm is bitwise equal
    to frobenius_norm of that matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim > 2:
        rows = a.reshape(*a.shape[:-2], 1, a.shape[-2] * a.shape[-1])
        with np.errstate(over="ignore"):
            squares = (rows @ np.swapaxes(rows, -1, -2))[..., 0, 0]
        norms = np.sqrt(squares)
        for i in zip(*np.nonzero(~((2.0**-960 <= squares) & (squares <= 2.0**960)))):
            norms[i] = frobenius_norm(a[i])
        return norms
    v = a.ravel()
    with np.errstate(over="ignore"):
        squares = v @ v
    if 2.0**-960 <= squares <= 2.0**960:
        return float(np.sqrt(squares))
    w, e = _pow2_scaled(v)
    return float(np.ldexp(np.sqrt(w @ w), e))


def complement_basis(g) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to g, as N x (N-1) columns.

    Columns 1..N-1 of the Householder reflector that maps g/|g| onto the
    first coordinate axis. It depends on g/|g| only, so 2^k g gives the same
    basis bitwise; a zero or non-finite g is a ValueError.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError("complement_basis expects a vector")
    w = _pow2_scaled(g)[0]
    norm = frobenius_norm(w)
    if not 0.0 < norm < np.inf:
        raise ValueError("cannot build a complement basis for a zero or non-finite vector")
    u = w / norm
    v = u.copy()
    v[0] += 1.0 if u[0] >= 0.0 else -1.0
    refl = np.eye(g.size) - np.outer(v, v) * (2.0 / (v @ v))
    return refl[:, 1:]


def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) index arrays, p < q, one row per round: floor(n/2) disjoint pairs.

    Circle method on m = n + n % 2 indices: in round r, m - 1 meets r and
    r + k meets r - k (mod m - 1). For odd n, m - 1 is a dummy: column k = 0 is dropped.
    """
    m = n + n % 2
    r, k = np.arange(m - 1)[:, None], np.arange(m // 2)
    a, b = np.where(k == 0, m - 1, (r + k) % (m - 1)), (r - k) % (m - 1)
    return np.minimum(a, b)[:, n % 2 :], np.maximum(a, b)[:, n % 2 :]


def _symmetric_scaled(a, caller: str) -> tuple[np.ndarray, int, float]:
    """The entry gate of both eigensolvers: (S, e, |A 2^-e|_F) with S = 1/2 (A' + A'^t)
    for A' = A 2^-e, 2^e the power of two just above max|a_ij|.

    The scaling is exact, so every threshold is relative to A and no norm overflows
    or underflows. A non-finite matrix is a ValueError, and one with
    |A - A^t|_F > 1e-8 |A|_F a NonSymmetricMatrixError.
    """
    a, scale = _pow2_scaled(_as_finite_square(a, caller))
    norm = frobenius_norm(a)
    if frobenius_norm(a - a.T) > 1e-8 * norm:
        raise NonSymmetricMatrixError(f"{caller} requires a symmetric matrix")
    return 0.5 * (a + a.T), scale, norm


def _eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, from LAPACK (numpy's eigvalsh).

    Through the gate jacobi_eigh uses. LAPACK rescales a very small or very large
    matrix by factors that are not powers of two (seen for max|a_ij| from about
    2^-404 down), so the gate's exact pre-scaling is what makes 2^k A give 2^k times
    the values bitwise. A value out of floating-point range comes back as an inf,
    without a warning.
    """
    sym, scale, _ = _symmetric_scaled(a, "eigvalsh")
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.eigvalsh(sym)[::-1], scale)


def jacobi_eigh(a, tol: float = 1e-12) -> EigenSpectrum:
    """Parallel-order (round-robin) Jacobi eigendecomposition of a symmetric matrix.

    Each round of a sweep rotates disjoint pairs as one orthogonal matrix
    (Brent & Luk 1985; Golub & Van Loan, Matrix Computations, 4th ed., 8.5).
    A pair's angle is 1/2 atan2(2 a_pq sign(a_qq - a_pp), |a_qq - a_pp|), at most
    pi/4 in size, and exactly 0 when a_pq = 0. Sweeps until the off-diagonal
    Frobenius mass drops to tol * |A|_F, at most 100 sweeps; every threshold is
    relative to A, so any scale of A works. Values come back sorted descending
    (stable, so equal values keep their input order), vectors as matching columns.
    A value out of floating-point range comes back as an inf, without a warning.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    work, scale, norm = _symmetric_scaled(a, "jacobi_eigh")
    n = work.shape[0]
    vecs, rounds = np.eye(n), _round_robin(n)
    for _ in range(100):
        if frobenius_norm(work - np.diag(np.diag(work))) <= tol * norm:
            break
        for p, q in zip(*rounds):
            diff = work[q, q] - work[p, p]
            theta = 0.5 * np.arctan2(work[p, q] * np.copysign(2.0, diff), np.abs(diff))
            c, s = np.cos(theta), np.sin(theta)
            rot = np.eye(n)
            rot[p, p] = rot[q, q] = c
            rot[p, q], rot[q, p] = s, -s
            work = rot.T @ work @ rot
            work[p, q] = work[q, p] = 0.0
            vecs = vecs @ rot
    else:
        raise JacobiConvergenceError("no convergence within 100 Jacobi sweeps")
    with np.errstate(over="ignore"):
        values = np.ldexp(np.diag(work), scale)
    order = np.argsort(-values, kind="stable")
    return EigenSpectrum(values=values[order], vectors=vecs[:, order])


def cluster_multiplicities(values, cluster_tol: float = 1e-6) -> list[tuple[float, int]]:
    """Greedy left-to-right clustering of a descending value sequence.

    A value joins the open cluster iff it lies within cluster_tol of the
    cluster's first element; each cluster reports its mean and size.
    """
    if not cluster_tol >= 0.0:
        raise ValueError(f"cluster_tol must be >= 0, got {cluster_tol!r}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("cluster_multiplicities expects a vector of values")
    v = values.tolist()
    if any(b > a for a, b in zip(v, v[1:])):
        raise ValueError("values must be sorted in descending order")
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(v) + 1):
        if i == len(v) or abs(v[i] - v[start]) > cluster_tol:
            # v + 0.0 is bitwise numpy's mean of one value, -0.0 included
            mean = v[start] + 0.0 if i - start == 1 else _mean(values[start:i])
            clusters.append((mean, i - start))
            start = i
    return clusters
