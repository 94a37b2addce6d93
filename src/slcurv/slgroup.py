"""Exact geometry of SL(n, R) = det^{-1}(1) as a hypersurface in R^{n^2}.

Closed forms at the identity: the Gauss map A -> (A^{-1})^t / |A^{-1}|,
its spherical image {unit-norm matrices with positive determinant}, the
shape operator H -> n^{-1/2} H^t on trace-zero H, the two principal
curvatures +-n^{-1/2} with their multiplicities, and the derived
Gauss-Kronecker and mean curvatures. Matrices are plain numpy arrays;
preconditions (det 1, unit norm, zero trace) are enforced at the call
boundary, and a NaN or infinite entry fails them. Seeded samplers
supply random group and rotation points for cross-checks against the
numeric pipeline.

gauss_map and gauss_map_preimage also take a stack of matrices, shape
(..., n, n), and random_sl also takes a sequence of seeds; every matrix of
the result is bitwise equal to the call on that matrix or seed alone, and
a stack fails as its first failing matrix fails alone. The other functions
take one matrix only.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .linalg import _as_square, _fails_per_matrix, _pow2_scaled
from .linalg import complement_basis, det_inverse, determinant, frobenius_norm

UNIMODULAR_TOL = 1e-9
UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SLCurvatureSummary:
    """The exact curvature data of SL(n, R) at the identity."""

    n: int
    kappa_plus: float
    mult_plus: int
    kappa_minus: float
    mult_minus: int
    gauss_kronecker: float
    mean: float

    def as_dict(self) -> dict:
        return asdict(self)


def _per_matrix(x):
    """x with two unit axes appended, so one value per matrix broadcasts over the stack."""
    return np.reshape(x, np.shape(x) + (1, 1))


def _powers(x, p: float):
    """x ** p by the C library's pow, value by value, as for a Python float: numpy's
    vectorized power may round otherwise, and slices must equal the single call."""
    if np.ndim(x) == 0:
        return x**p
    return np.reshape([v**p for v in np.ravel(x).tolist()], np.shape(x))


# each check is written as `not (... <= tol)`, so that a NaN fails it; on a stack,
# _fails_per_matrix replaces the error with that of the first failing matrix alone
def _require_unimodular(d) -> None:
    if not np.all(abs(d - 1.0) <= UNIMODULAR_TOL):
        raise ValueError(f"matrix determinant {d!r} is not 1 within {UNIMODULAR_TOL}")


def _require_trace_zero(h: np.ndarray) -> None:
    # |tr h| <= 1e-9 (1 + |h|_F) tested on h' = h 2^-e, with max|h'_ij| in [0.5, 1), as
    # |tr h'| <= 1e-9 (2^-e + |h'|_F): the same inequality times a power of two, but no
    # sum overflows. 2^-e is capped at 2^1023, which still accepts any trace of such an h'
    if np.all(np.isfinite(h)):
        w, e = _pow2_scaled(h)
        if abs(float(np.trace(w))) <= 1e-9 * (math.ldexp(1.0, min(-e, 1023)) + frobenius_norm(w)):
            return
    raise ValueError("matrix must be finite and trace-zero to be tangent at the identity")


def _underflowed(d):
    """Where a float determinant is not a positive normal number, so may have underflowed:
    a unit-norm matrix of the spherical image can have det below 2^-1022. There the sign
    of slogdet, whose log|det| does not underflow, decides det > 0."""
    return ~(np.asarray(d) >= np.finfo(float).tiny)


def _require_unit_norm(u: np.ndarray, caller: str) -> None:
    if not np.all(abs(frobenius_norm(u) - 1.0) <= UNIT_NORM_TOL):
        raise ValueError(f"{caller} expects a unit-Frobenius-norm matrix")


@_fails_per_matrix
def gauss_map(a) -> np.ndarray:
    """Unit normal of SL(n) at a: (a^{-1})^t / |a^{-1}|_F; det 1 is read off det_inverse.

    On a stack (..., n, n), the unit normal at each matrix.
    """
    d, inv = det_inverse(a)
    _require_unimodular(d)
    return np.swapaxes(inv, -1, -2) / _per_matrix(frobenius_norm(inv))


def spherical_image_contains(u) -> bool:
    """Whether a unit-Frobenius-norm matrix lies in the Gauss-map image: det u > 0."""
    u = _as_square(u)
    _require_unit_norm(u, "spherical_image_contains")
    return bool(not _underflowed(determinant(u)) or np.linalg.slogdet(u)[0] > 0.0)


@_fails_per_matrix
def gauss_map_preimage(u) -> np.ndarray:
    """The SL(n) point whose Gauss map is u, or one per matrix of a stack (..., n, n).

    det(u)^{1/n} (u^t)^{-1}: u rescaled onto det = 1 and inverse-transposed; gauss_map
    of the result reproduces u. The inverse is D (u^t D)^{-1}, with D the exact power of
    two that brings each column of u^t to max|entry| in [0.5, 1): (u^t)^{-1} itself can
    overflow where the preimage does not, so the rows are scaled back by D only after
    the product with det(u)^{1/n}. Column scaling leaves LU's pivots and roundings as
    they were, so the result is bitwise the unscaled one wherever that was finite.
    det(u) is taken from u^t itself; where it may have underflowed, det(u)^{1/n} is
    exp(log|det u| / n) from slogdet.
    """
    u = _as_square(u, stack=True)
    _require_unit_norm(u, "gauss_map_preimage")
    ut = np.swapaxes(u, -1, -2)
    e = np.frexp(np.max(np.abs(ut), axis=-2, keepdims=True))[1]
    inv = det_inverse(np.ldexp(ut, -e))[1]
    d = determinant(ut)
    n, low = u.shape[-1], _underflowed(d)
    sign, logdet = np.linalg.slogdet(ut) if np.any(low) else (1.0, 0.0)
    if not np.all(~low | (sign > 0.0)):
        raise ValueError(f"matrix determinant {d!r} is not positive, not in the spherical image")
    root = _per_matrix(np.where(low, np.exp(logdet / n), _powers(d, 1.0 / n)))
    return np.ldexp(root * inv, -np.swapaxes(e, -1, -2))


def weingarten_identity(h) -> np.ndarray:
    """Shape operator of SL(n) at the identity on a trace-zero matrix: n^{-1/2} h^t."""
    h = _as_square(h)
    _require_trace_zero(h)
    n = h.shape[0]
    return h.T / np.sqrt(n)


def sym_skew_decompose(h) -> tuple[np.ndarray, np.ndarray]:
    """Split a trace-zero matrix into (trace-zero symmetric, skew-symmetric)."""
    h = _as_square(h)
    _require_trace_zero(h)
    # halved before the sum, so that no sum of entries overflows
    return 0.5 * h + 0.5 * h.T, 0.5 * h - 0.5 * h.T


def principal_curvatures_identity(n: int) -> list[tuple[float, int]]:
    """[(+n^{-1/2}, (n^2+n-2)/2), (-n^{-1/2}, (n^2-n)/2)]."""
    if n < 2:
        raise ValueError("principal curvatures are defined for n >= 2")
    kappa = n ** -0.5
    return [(kappa, (n * n + n - 2) // 2), (-kappa, (n * n - n) // 2)]


def curvature_summary(n: int) -> SLCurvatureSummary:
    """All exact curvature scalars of SL(n) at the identity."""
    (kappa_plus, mult_plus), (kappa_minus, mult_minus) = principal_curvatures_identity(n)
    return SLCurvatureSummary(
        n=n,
        kappa_plus=kappa_plus,
        mult_plus=mult_plus,
        kappa_minus=kappa_minus,
        mult_minus=mult_minus,
        gauss_kronecker=(-1.0) ** mult_minus * float(n) ** (-(n * n - 1) / 2.0),
        mean=1.0 / (np.sqrt(n) * (n + 1)),
    )


def curvatures_at(a) -> tuple[np.ndarray, float, float]:
    """(principal curvatures descending, Gauss-Kronecker, mean) of SL(n) at any a.

    Closed form from u, the singular values of a^-1 (the reciprocals of a's), with
    |u| = |a^-1|_F: the spectrum is invariant under a -> P a Q (P, Q in SO(n)), and
    at a diagonal a the shape operator splits into a plane per pair i < j with
    curvatures +-u_i u_j / |u|, and the block diag(u^2)/|u| compressed to the
    complement of u. The scalars are basis-free, K = (-1)^((n^2-n)/2) n
    |a^-1|_F^-(n^2+1) and H = (|a^-1|_F^4 - |a^-1 a^-t|_F^2) / ((n^2-1) |a^-1|_F^3),
    whose numerator is 2 sum_{i<j} (u_i u_j)^2: H is summed from the pairs' curvatures
    as 2 sum (u_i u_j / |u|)^2 / ((n^2-1) |u|), which cancels nothing.
    """
    a = _as_square(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("principal curvatures are defined for n >= 2")
    d, inv = det_inverse(a)
    _require_unimodular(d)
    u = np.linalg.svd(inv, compute_uv=False)
    r = frobenius_norm(inv)
    i, j = np.triu_indices(n, 1)
    pairs = u[i] * u[j] / r
    q = complement_basis(u)
    block = np.linalg.eigvalsh(q.T @ (q * (u / r * u)[:, None]))
    values = np.sort(np.concatenate((pairs, -pairs, block)))[::-1]
    gauss_kronecker = (-1.0) ** ((n * n - n) // 2) * n * r ** -(n * n + 1)
    mean = 2.0 * float(pairs @ pairs) / ((n * n - 1) * r)
    return values, gauss_kronecker, mean


def fundamental_forms(h) -> tuple[float, float]:
    """(first, second) fundamental forms of SL(n) at the identity on trace-zero h.

    First form: tr(h^t h), the ambient inner product. Second form:
    n^{-1/2} tr(h h).
    """
    h = _as_square(h)
    _require_trace_zero(h)
    n = h.shape[0]
    first = float(np.sum(h * h))
    second = float(np.trace(h @ h)) / np.sqrt(n)
    return first, second


def random_sl(n: int, seed: int | Sequence[int]) -> np.ndarray:
    """Seeded random SL(n) matrix: uniform entries, rescaled onto det = 1.

    Resamples while |det| < 0.05 so the det^{-1/n} rescaling stays
    well-conditioned; a negative determinant is fixed by negating row 0.
    A sequence of k seeds gives a (k, n, n) stack whose slice i is
    random_sl(n, seeds[i]): each seed draws from its own generator, and one
    determinant call per round checks every draw still pending.
    """
    if n < 2:
        raise ValueError("random_sl is defined for n >= 2")
    single = isinstance(seed, numbers.Integral)
    rngs = [np.random.default_rng(s) for s in ([seed] if single else seed)]
    a, d = np.empty((len(rngs), n, n)), np.empty(len(rngs))
    pending = np.arange(len(rngs))
    for _ in range(1000):
        for i in pending:
            a[i] = rngs[i].uniform(-1.0, 1.0, size=(n, n))
        d[pending] = determinant(a[pending])
        pending = pending[np.abs(d[pending]) < 0.05]
        if pending.size == 0:
            break
    else:
        raise RuntimeError("random_sl failed to draw a usable matrix in 1000 attempts")
    negative = d < 0.0
    a[negative, 0] = -a[negative, 0]
    a *= _per_matrix(_powers(np.abs(d), -1.0 / n))
    return a[0] if single else a


def random_special_orthogonal(n: int, seed: int) -> np.ndarray:
    """Seeded random rotation: QR-orthonormalized Gaussian matrix with det +1."""
    if n < 2:
        raise ValueError("random_special_orthogonal is defined for n >= 2")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    if determinant(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q
