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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import _as_square, det_inverse, determinant, frobenius_norm

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


# each check is written as `not (... <= tol)`, so that a NaN fails it
def _require_unimodular(d: float) -> None:
    if not abs(d - 1.0) <= UNIMODULAR_TOL:
        raise ValueError(f"matrix determinant {d!r} is not 1 within {UNIMODULAR_TOL}")


def _require_trace_zero(h: np.ndarray) -> None:
    # an infinite entry makes the bound infinite, so finiteness is checked too
    bound = 1e-9 * (1.0 + frobenius_norm(h))
    if not (np.all(np.isfinite(h)) and abs(float(np.trace(h))) <= bound):
        raise ValueError("matrix must be finite and trace-zero to be tangent at the identity")


def _require_unit_norm(u: np.ndarray, caller: str) -> None:
    if not abs(frobenius_norm(u) - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"{caller} expects a unit-Frobenius-norm matrix")


def gauss_map(a) -> np.ndarray:
    """Unit normal of SL(n) at a: (a^{-1})^t / |a^{-1}|_F; det 1 is read off det_inverse."""
    d, inv = det_inverse(a)
    _require_unimodular(d)
    return inv.T / frobenius_norm(inv)


def spherical_image_contains(u) -> bool:
    """Whether a unit-Frobenius-norm matrix lies in the Gauss-map image."""
    u = _as_square(u)
    _require_unit_norm(u, "spherical_image_contains")
    return determinant(u) > 0.0


def gauss_map_preimage(u) -> np.ndarray:
    """The SL(n) point whose Gauss map is u.

    det(u)^{1/n} (u^t)^{-1}: u rescaled onto det = 1 and inverse-transposed, from
    one LU of u^t; gauss_map of the result reproduces u.
    """
    u = _as_square(u)
    _require_unit_norm(u, "gauss_map_preimage")
    d, inv = det_inverse(u.T)
    if d <= 0.0:
        raise ValueError(f"matrix determinant {d!r} is not positive, not in the spherical image")
    return d ** (1.0 / u.shape[0]) * inv


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
    return 0.5 * (h + h.T), 0.5 * (h - h.T)


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


def random_sl(n: int, seed: int) -> np.ndarray:
    """Seeded random SL(n) matrix: uniform entries, rescaled onto det = 1.

    Resamples while |det| < 0.05 so the det^{-1/n} rescaling stays
    well-conditioned; a negative determinant is fixed by negating row 0.
    """
    if n < 2:
        raise ValueError("random_sl is defined for n >= 2")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        d = determinant(a)
        if abs(d) >= 0.05:
            break
    else:
        raise RuntimeError("random_sl failed to draw a usable matrix in 1000 attempts")
    if d < 0.0:
        a[0] = -a[0]
        d = -d
    return a * d ** (-1.0 / n)


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
