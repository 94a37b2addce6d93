"""Small dense real linear algebra used by the curvature pipeline.

Everything here targets desk scale (dimension a few dozen): determinant and
inverse from LAPACK's LU with partial pivoting (numpy's det and inv), the one
Euclidean norm (frobenius_norm, for vectors and matrices, overflowing only where
the norm does), a Householder complement basis that depends on g/|g| only and
rejects only a zero or non-finite g, and _scaled_back, the one way a result formed on
values scaled by a power of two goes back to its own scale, or fails with the caller's
error. The curvature pipeline takes its eigenvalues from LAPACK (numpy's eigvalsh, no
vectors); jacobi_eigh, a gated parallel-order (round-robin) Jacobi solver with vectors,
is the oracle the tests hold it to. An exactly zero pivot is the only singularity:
determinant returns 0.0, det_inverse raises SingularMatrixError, as it does for a
non-finite inverse. A non-finite matrix is a ValueError.

determinant, det_inverse and frobenius_norm also take a stack of matrices, shape
(..., n, n) with ndim >= 3, and then return one value per matrix; each equals the
call on that matrix alone bitwise, because the stack runs the same LAPACK routine
or BLAS dot on every matrix. A stack fails as its first failing matrix fails alone.
complement_basis and jacobi_eigh take one vector or one matrix only.

Each kind of argument from outside the program has one gate, here, applied once where
it enters: _as_integer for a size, _as_real for a real scalar, _as_point for a finite
point of a given length, _as_square for a matrix. What the pipeline makes passes none:
the report clusters its own eigenvalues through _clusters, the ungated core of
cluster_multiplicities.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

_FLOAT_MAX = sys.float_info.max  # so [-_FLOAT_MAX, _FLOAT_MAX] holds every finite float


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


def _shown(x) -> str:
    """repr(x), or an int with no float value by its bit length: Python prints no int of
    more than 4300 digits, and they would say no more than the size does."""
    big = isinstance(x, int) and abs(x) > _FLOAT_MAX
    return f"{'a negative' if x < 0 else 'an'} int of {x.bit_length()} bits" if big else repr(x)


def _as_integer(n, low: int, high: float, what: str) -> int:
    """int(n) for an int or numpy integer n, not a bool, with low <= n <= high. An int with
    no float value (|n| > _FLOAT_MAX) is out of every range, as in _as_real."""
    integer = isinstance(n, (int, np.integer)) and not isinstance(n, bool) and abs(n) <= _FLOAT_MAX
    if not (integer and low <= n <= high):
        raise ValueError(f"{what} must be an integer in [{low}, {high}], got {_shown(n)}")
    return int(n)


def _as_real(x, low: float, high: float, what: str):
    """x, unconverted so the caller's arithmetic is unchanged, for an int, float or numpy
    number x with low <= x <= high. A bool is not a real here, nor an int with no float
    value (|x| > _FLOAT_MAX), and a NaN fails the range."""
    real = isinstance(x, (float, np.integer, np.floating)) or (
        isinstance(x, int) and not isinstance(x, bool) and abs(x) <= _FLOAT_MAX
    )
    if not (real and low <= x <= high):
        raise ValueError(f"{what} must be a real number in [{low}, {high}], got {_shown(x)}")
    return x


def _as_point(p, size: int) -> np.ndarray:
    """p as a float vector of shape (size,) with finite entries."""
    p = np.asarray(p, dtype=float)
    if p.shape != (size,):
        raise ValueError(f"a point here has {size} coordinates, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("a point must have finite coordinates")
    return p


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


def _pow2_scaled(a, top: int = 0) -> tuple[np.ndarray, int]:
    """(a * 2^-e, e) with 2^(e + top) the power of two just above max|a_ij|: exact while
    the entries stay normal, and the largest scaled entry lies in [2^(top - 1), 2^top)."""
    e = math.frexp(np.abs(a).max(initial=0.0))[1] - top
    return np.ldexp(a, -e), e


def _mean(values) -> float:
    """The mean of a vector, sum / size, summed on the values scaled by the power of two
    just above max|v| and scaled back: the scaled mean is at most max|v 2^-e| < 1, so it
    cannot overflow. Wherever numpy's partial sums stay normal, it is numpy's mean bitwise."""
    w, e = _pow2_scaled(values)
    return math.ldexp(float(w.sum()) / values.size, e)


def _scaled_back(x, e: int, error: type[Exception], message: str):
    """x 2^e, or error(message) where that is out of range, not an inf: with max|x| = m 2^k,
    m in [0.5, 1), x 2^e overflows iff k + e > 1024, and a zero never overflows."""
    top = np.abs(x).max(initial=0.0)
    if top != 0.0 and math.frexp(top)[1] + e > 1024:
        raise error(message)
    return np.ldexp(x, e)


def _det(a):
    # LAPACK's determinant, an inf without a warning where it overflows; a float or a stack's array
    with np.errstate(over="ignore"):
        d = np.linalg.det(a)
    return float(d) if np.ndim(d) == 0 else d


def determinant(a) -> float | np.ndarray:
    """Determinant from LAPACK's LU; an exactly zero pivot yields 0.0, not an error.

    A float for one matrix, an array of determinants for a stack (..., n, n).
    """
    return _det(_as_finite_square(a, "determinant", stack=True))


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
    return _det(a), inv


def frobenius_norm(a) -> float | np.ndarray:
    """Euclidean norm of a vector's or a matrix's entries. It overflows or underflows only
    when the norm does, and is then an inf or a subnormal without a warning: a sum of
    squares outside [2^-960, 2^960] is summed again on the entries scaled by an exact
    power of two (J. L. Blue, ACM TOMS 4(1), 1978). The plain sum is tried first, being
    cheap: 2.8 us on a 9-vector against 6.5 us for the scaled path alone (Xeon, 2 vCPU,
    numpy 2.4), and a report takes two norms.

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
    with np.errstate(over="ignore"):
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
    return _householder_complement(w / norm)


def _householder_complement(u) -> np.ndarray:
    """Columns 1..N-1 of the Householder reflector that maps the unit vector u onto the e_1 axis."""
    v = u.copy()
    v[0] += 1.0 if u[0] >= 0.0 else -1.0
    refl = np.eye(u.size) - np.outer(v, v) * (2.0 / (v @ v))
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


def jacobi_eigh(a, tol: float = 1e-12) -> EigenSpectrum:
    """Parallel-order (round-robin) Jacobi eigendecomposition of a symmetric matrix.

    Each round of a sweep rotates disjoint pairs as one orthogonal matrix
    (Brent & Luk 1985; Golub & Van Loan, Matrix Computations, 4th ed., 8.5).
    A pair's angle is 1/2 atan2(2 a_pq sign(a_qq - a_pp), |a_qq - a_pp|), at most
    pi/4 in size, and exactly 0 when a_pq = 0. Sweeps until the off-diagonal
    Frobenius mass drops to tol * |A|_F, at most 100 sweeps; every threshold is
    relative to A, so any scale of A works. Values come back sorted descending
    (stable, so equal values keep their input order), vectors as matching columns.
    A value out of floating-point range comes back as an inf, without a warning. A
    non-finite A is a ValueError, |A - A^t|_F > 1e-8 |A|_F a NonSymmetricMatrixError.
    """
    _as_real(tol, 0.0, math.inf, "jacobi_eigh tol")
    a, scale = _pow2_scaled(_as_finite_square(a, "jacobi_eigh"))
    norm = frobenius_norm(a)
    if frobenius_norm(a - a.T) > 1e-8 * norm:
        raise NonSymmetricMatrixError("jacobi_eigh requires a symmetric matrix")
    work = 0.5 * (a + a.T)
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
    _as_real(cluster_tol, 0.0, math.inf, "cluster_tol")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("cluster_multiplicities expects a vector of values")
    if np.any(np.isnan(values)) or np.any(values[1:] > values[:-1]):
        raise ValueError("values must be sorted in descending order, with no NaN")
    return _clusters(values, cluster_tol)


def _clusters(values: np.ndarray, cluster_tol: float) -> list[tuple[float, int]]:
    # cluster_multiplicities on a descending float vector with no NaN, cluster_tol gated
    v = values.tolist()
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(v) + 1):
        if i == len(v) or abs(v[i] - v[start]) > cluster_tol:
            # v + 0.0 is bitwise numpy's mean of one value, -0.0 included
            mean = v[start] + 0.0 if i - start == 1 else _mean(values[start:i])
            clusters.append((mean, i - start))
            start = i
    return clusters
