"""Small dense real linear algebra used by the curvature pipeline.

Everything here targets desk scale (dimension a few dozen): determinant and
inverse from LAPACK's LU with partial pivoting (numpy's det and inv), the one
Euclidean norm (frobenius_norm, for vectors and matrices, overflowing only where
the norm does), a Householder complement basis that depends on g/|g| only and
rejects only a zero or non-finite g, and a parallel-order (round-robin) Jacobi
eigensolver for symmetric matrices. The eigensolver keeps the matrix stored so that
each round's disjoint pairs are adjacent, which makes a round a handful of numpy calls
on strided diagonals and one rotation that also moves the pairs of the next round
into place. An exactly zero pivot is the only singularity:
determinant returns 0.0, det_inverse raises SingularMatrixError, as it does for a
non-finite inverse. A non-finite matrix is a ValueError.

determinant, det_inverse and frobenius_norm also take a stack of matrices, shape
(..., n, n) with ndim >= 3, and then return one value per matrix; each equals the
call on that matrix alone bitwise, because the stack runs the same LAPACK routine
or BLAS dot on every matrix. A stack fails as its first failing matrix fails alone.
complement_basis and jacobi_eigh take one vector or one matrix only.
"""

from __future__ import annotations

import functools
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


def _round_robin(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) index arrays, p < q, one row per round: the m/2 disjoint pairs of an even m.

    Circle method: in round r, m - 1 meets r and r + k meets r - k (mod m - 1).
    """
    r, k = np.arange(m - 1)[:, None], np.arange(m // 2)
    a, b = np.where(k == 0, m - 1, (r + k) % (m - 1)), (r - k) % (m - 1)
    return np.minimum(a, b), np.maximum(a, b)


@functools.lru_cache(maxsize=64)
def _pair_layout(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables for Jacobi rounds on m (even) indices stored pair-adjacent.

    In round r's layout, position 2k holds p and 2k + 1 holds q of the round's
    k-th pair. Returns the index at each position of round 0's layout, and per
    round the flat indices in an m x m rotation of its c, c, s, -s entries and
    of the two rotated off-diagonal entries: the rotation carries round r's
    layout into round r + 1's, and round m - 1 is round 0 again.
    """
    p, q = _round_robin(m)
    order = np.stack((p, q), axis=-1).reshape(m - 1, m)
    position = np.argsort(order, axis=1)
    # dest[r, l]: the position in round r + 1's layout of the index at position l in round r's
    dest = np.take_along_axis(np.roll(position, -1, axis=0), order, axis=1)
    de, do = dest[:, 0::2], dest[:, 1::2]
    row = np.arange(0, m, 2) * m
    rot = np.concatenate((row + de, row + m + do, row + do, row + m + de), axis=1)
    off = np.concatenate((de * m + do, do * m + de), axis=1)
    for t in (order, rot, off):
        t.flags.writeable = False
    return order[0], rot, off


def jacobi_eigh(a, tol: float = 1e-12) -> EigenSpectrum:
    """Parallel-order (round-robin) Jacobi eigendecomposition of a symmetric matrix.

    Each round of a sweep rotates disjoint pairs as one orthogonal matrix
    (Brent & Luk 1985; Golub & Van Loan, Matrix Computations, 4th ed., 8.5).
    The matrix is stored so that every round's pairs sit at positions (2k, 2k + 1),
    an odd size padded with a zero row and column that is never rotated: each
    round's rotation also permutes into the next round's layout. A pair's angle
    is 1/2 atan2(2 a_pq sign(a_qq - a_pp), |a_qq - a_pp|), at most pi/4 in size,
    and exactly 0 when a_pq = 0. Sweeps until the off-diagonal Frobenius mass
    drops to tol * |A|_F, at most 100 sweeps; every threshold is relative to A,
    so any scale of A works. Values come back sorted descending (stable, so equal
    values keep their input order), vectors as matching columns.
    """
    a = _as_finite_square(a, "jacobi_eigh")
    # work on A scaled by a power of two near 1 / max|a_ij|, which is exact: every
    # threshold below is relative to A, and no norm overflows or underflows
    a, scale = _pow2_scaled(a)
    norm = frobenius_norm(a)
    if frobenius_norm(a - a.T) > 1e-8 * norm:
        raise NonSymmetricMatrixError("jacobi_eigh requires a symmetric matrix")
    n = a.shape[0]
    m = n + n % 2
    order, rot_at, off_at = _pair_layout(m)
    work = np.zeros((m, m))
    work[:n, :n] = 0.5 * (a + a.T)
    work, vecs = work[np.ix_(order, order)], np.eye(m)
    for _ in range(100):
        if frobenius_norm(work - np.diag(np.diag(work))) <= tol * norm:
            break
        for rot_r, off_r in zip(rot_at, off_at):
            # the round's pairs are (2k, 2k + 1): a_pp, a_qq and a_pq are strided views
            diag = np.diagonal(work)
            diff = diag[1::2] - diag[0::2]
            apq = np.diagonal(work, 1)[0::2]
            theta = 0.5 * np.arctan2(apq * np.copysign(2.0, diff), np.abs(diff))
            c, s = np.cos(theta), np.sin(theta)
            # the 2 x 2 rotations times the permutation into the next round's layout
            rot = np.zeros((m, m))
            rot.flat[rot_r] = np.concatenate((c, c, s, -s))
            work = rot.T @ work @ rot
            work.flat[off_r] = 0.0  # the rotated pairs, at their new positions
            vecs = vecs @ rot
    else:
        raise JacobiConvergenceError("no convergence within 100 Jacobi sweeps")
    # back to the input's index order without the pad, then sorted
    at = np.argsort(order)[:n]
    values = np.ldexp(np.diagonal(work)[at], scale)
    rank = np.argsort(-values, kind="stable")
    return EigenSpectrum(values=values[rank], vectors=vecs[np.ix_(at, at[rank])])


def cluster_multiplicities(values, cluster_tol: float = 1e-6) -> list[tuple[float, int]]:
    """Greedy left-to-right clustering of a descending value sequence.

    A value joins the open cluster iff it lies within cluster_tol of the
    cluster's first element; each cluster reports its mean and size.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("cluster_multiplicities expects a vector of values")
    if values.size and np.any(np.diff(values) > 0):
        raise ValueError("values must be sorted in descending order")
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or abs(values[i] - values[start]) > cluster_tol:
            chunk = values[start:i]
            clusters.append((float(chunk.mean()), int(chunk.size)))
            start = i
    return clusters
