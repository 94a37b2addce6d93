"""Curvature of implicit hypersurfaces f^{-1}(c) in R^N.

Orientation is fixed by the unit normal grad(f)/|grad(f)|. The shape
operator is minus the derivative of that normal field restricted to the
tangent space; in an orthonormal tangent basis T it reduces to
W = -(T^t H T)/|grad f| because T^t annihilates the rank-one correction
of the normalized gradient's Jacobian. Principal curvatures are the
eigenvalues of W, the Gauss-Kronecker curvature their product, the mean
curvature their average (trace over N-1).

Each public call builds one local frame (_Frame) at its point from one derivative pass:
g and H scaled by powers of two, the normal g'/|g'| and |g| = m 2^eg. From these come W'
= W 2^-e and L(v). curvature_report takes W's eigenvalues from W' scaled to unit, and W,
the curvatures, K, L(v) and the form each go back to their own scale, or fail where they
leave the float range, in linalg._scaled_back. The report gates cluster_tol on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .autodiff import _jet
from .fields import ScalarField
from .linalg import _FLOAT_MAX, _as_point, _as_real, _clusters, _householder_complement, _mean
from .linalg import _pow2_scaled, _scaled_back, frobenius_norm

TANGENCY_TOL = 1e-8
# largest accepted (|f - c|/|grad f|) (|H|_F/|grad f|): the point's Newton distance
# from the surface over a bound on the radius of curvature there
NEWTON_CURVATURE_RATIO = 1e-6
_W_OUT_OF_RANGE = "the shape operator is out of floating-point range"
_LV_OUT_OF_RANGE = "the shape operator's value is out of floating-point range"


class OffSurfaceError(ValueError):
    """Point does not satisfy |f(p) - level| <= on_surface_tol, or lies too far
    from the surface for the curvature there (NEWTON_CURVATURE_RATIO)."""


class CriticalPointError(ValueError):
    """Degenerate gradient: exactly zero or not finite.

    A non-finite Hessian is rejected with it, and so are a shape operator, principal
    curvatures or a Gauss-Kronecker curvature out of floating-point range.
    """


class NonTangentVectorError(ValueError):
    """Vector handed to a tangent-space operation is not tangent."""


@dataclass(frozen=True)
class ImplicitHypersurface:
    """Level set field^{-1}(level) with its on-surface tolerance."""

    field: ScalarField
    level: float = 0.0
    on_surface_tol: float | None = None

    def __post_init__(self):
        _as_real(self.level, -_FLOAT_MAX, _FLOAT_MAX, "level")
        if self.on_surface_tol is not None:
            _as_real(self.on_surface_tol, 0.0, _FLOAT_MAX, "on_surface_tol")

    @property
    def ambient_dim(self) -> int:
        return self.field.arity

    def surface_tol(self) -> float:
        if self.on_surface_tol is not None:
            return self.on_surface_tol
        return 1e-9 * (1.0 + abs(self.level))

    def contains(self, p) -> bool:
        return self._holds_at(float(self.field(_as_point(p, self.ambient_dim).tolist())))

    def _holds_at(self, value: float) -> bool:
        # written as <= so that a NaN field value counts as off the surface
        return abs(value - self.level) <= self.surface_tol()


@dataclass(frozen=True)
class CurvatureReport:
    """Everything the pipeline knows about the surface at one point."""

    point: np.ndarray
    normal: np.ndarray
    tangent_basis: np.ndarray
    weingarten: np.ndarray
    curvatures: list  # (value, multiplicity) pairs, descending
    gauss_kronecker: float
    mean: float
    eigenvalues: np.ndarray = dataclass_field(repr=False, default=None)


class _Frame:
    """The local geometry at an on-surface, non-critical point, from one derivative pass.

    The on-surface check uses a plain-float evaluation, so an off-surface
    point costs no AD pass; one pass then gives the gradient and Hessian.
    A pass that overflows is rejected as degenerate, so no non-finite
    derivative reaches the shape operator. A point within the on-surface
    tolerance is still rejected when its distance from the surface, to first
    order, exceeds NEWTON_CURVATURE_RATIO of the radius of curvature bound
    |grad f|/|H|_F, a test whose verdict no change of units (f -> lambda f,
    x -> r x) alters. m = |g'| from g' = g 2^-e, max|g'_i| in [0.5, 1), cannot underflow
    or overflow where |g| would.
    """

    def __init__(self, s: ImplicitHypersurface, p):
        p = _as_point(p, s.ambient_dim)
        value = float(s.field(p.tolist()))
        if not s._holds_at(value):
            raise OffSurfaceError(
                f"point is off-surface: field value {value!r} vs level {s.level!r}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            g, hess = _jet(s.field, p)
            g_scaled, e = _pow2_scaled(g)
            m = frobenius_norm(g_scaled)
        if not (math.isfinite(m) and np.all(np.isfinite(hess))):
            raise CriticalPointError("gradient or Hessian is not finite")
        if m == 0.0:
            raise CriticalPointError("gradient is zero")
        # max|H'_ij| lies just below 2^t, t = 1020 - 3 bits(N): no product the frame forms
        # exceeds 4 N^2.5 2^t < 2^1023, and entries down to 2^-(t + 1022) of it stay normal
        t = 1020 - 3 * p.size.bit_length()
        self.hess_scaled, self.eh = _pow2_scaled(hess, t)
        self.gm, self.eg = math.frexp(m)
        self.eg += e
        # |H'|_F^2 overflows and sends frobenius_norm down its slow path, so the ratio
        # reads H' 2^-t, whose largest entry lies in [0.5, 1)
        hess_unit = np.ldexp(self.hess_scaled, -t)
        ratio = _newton_curvature_ratio(abs(value - s.level), self.gm, self.eg, hess_unit, self.eh + t)
        if ratio > NEWTON_CURVATURE_RATIO:
            raise OffSurfaceError(
                "point is off-surface: distance |f - c|/|grad f| over the curvature radius "
                f"bound |grad f|/|H|_F is {ratio:.3e} (limit {NEWTON_CURVATURE_RATIO:g})"
            )
        self.point, self.normal = p, g_scaled / m

    def shape_operator(self) -> tuple[np.ndarray, int, np.ndarray]:
        """(W', e, T): W = W' 2^e = -(T^t H T)/|g| in the Householder complement basis T of
        the normal, from the frame's splits as W' = -(T^t H' T)/m: no entry exceeds 2 N^1.5 2^t,
        and entries down to about 2^-2000 of the largest stay normal."""
        if self.point.size < 2:
            raise ValueError("a level set in R^1 has an empty tangent space, so no curvature")
        basis = _householder_complement(self.normal)
        return -(basis.T @ self.hess_scaled @ basis) / self.gm, self.eh - self.eg, basis

    def tangent(self, v, what: str) -> tuple[np.ndarray, int]:
        """(v 2^-e, e) for a tangent vector v, scaled so that max|v_i 2^-e| lies in [0.5, 1)."""
        v = np.asarray(v, dtype=float)
        if v.shape != self.normal.shape:
            raise ValueError("vector dimension does not match the ambient dimension")
        # tested on the scaled v, so that nothing overflows
        w, e = _pow2_scaled(v)
        finite = np.all(np.isfinite(v))
        if not (finite and abs(float(w @ self.normal)) <= TANGENCY_TOL * frobenius_norm(w)):
            raise NonTangentVectorError(f"{what} is not tangent to the surface at p")
        return w, e

    def apply(self, v) -> tuple[np.ndarray, int]:
        """(L(v) 2^-e, e) from v, H and |g| = m 2^eg each split by an exact power of two: in
        R^d no entry of -(H'w - N (N.H'w))/m exceeds 4 d^1.5 2^t in size, so it is finite."""
        w, ev = self.tangent(v, "vector")
        hw = self.hess_scaled @ w
        return -(hw - self.normal * float(self.normal @ hw)) / self.gm, ev + self.eh - self.eg


def _newton_curvature_ratio(dist: float, mg: float, eg: int, hess_scaled: np.ndarray, e: int) -> float:
    """(dist/|g|) (|H|_F/|g|) from the mantissas and exponents of its factors, so nothing
    overflows and 2^k f or 2^k x gives the same ratio bitwise. |g| = mg 2^eg and |H|_F =
    |H 2^-e|_F 2^e come from the frame's splits, so |H|_F has an exponent even where it
    overflows. The exponent is capped at 64, so a huge ratio is a finite number > 2^62."""
    md, ed = math.frexp(dist)
    mh, eh = math.frexp(frobenius_norm(hess_scaled))
    return math.ldexp(md * mh / (mg * mg), min(ed + eh + e - 2 * eg, 64))


def unit_normal(s: ImplicitHypersurface, p) -> np.ndarray:
    """Oriented unit normal grad(f)/|grad(f)| at an on-surface point."""
    return _Frame(s, p).normal


def weingarten_matrix(s: ImplicitHypersurface, p) -> tuple[np.ndarray, np.ndarray]:
    """Shape operator in an orthonormal tangent basis; returns (W, basis).

    W = -(T^t H T)/|grad f| with T the Householder complement basis of the
    gradient and H the field Hessian, symmetric up to roundoff.
    """
    w, e, basis = _Frame(s, p).shape_operator()
    return _scaled_back(w, e, CriticalPointError, _W_OUT_OF_RANGE), basis


def weingarten_apply(s: ImplicitHypersurface, p, v) -> np.ndarray:
    """Shape operator applied to a tangent vector, as an ambient vector.

    Computes -(I - N N^t) H v / |grad f|, which stays in the tangent space.
    It is computed on v scaled by an exact power of two and scaled back, so a
    large v gives its finite result; a result out of range is an OverflowError.
    """
    return _scaled_back(*_Frame(s, p).apply(v), OverflowError, _LV_OUT_OF_RANGE)


def second_fundamental_form(s: ImplicitHypersurface, p, v, w) -> float:
    """Bilinear form <L(v), w> on tangent vectors; symmetric in (v, w).

    A value out of floating-point range is an OverflowError.
    """
    frame = _Frame(s, p)
    w, ew = frame.tangent(w, "second argument")
    lv, ev = frame.apply(v)
    return float(_scaled_back(lv @ w, ev + ew, OverflowError, _LV_OUT_OF_RANGE))


def curvature_report(s: ImplicitHypersurface, p, cluster_tol: float = 1e-6) -> CurvatureReport:
    """Normal, tangent basis, shape operator, and all curvatures at p."""
    _as_real(cluster_tol, 0.0, math.inf, "cluster_tol")
    frame = _Frame(s, p)
    w, e, basis = frame.shape_operator()
    weingarten = _scaled_back(w, e, CriticalPointError, _W_OUT_OF_RANGE)
    # eigvalsh reads a copy of W' scaled so that max|W'_ij| lies in [0.5, 1), and 2^k W gives
    # 2^k times the values bitwise: LAPACK rescales a tiny or huge matrix by factors that are
    # not powers of two (seen for max|W_ij| from about 2^-404 down). W itself comes from the
    # frame's W', where entries far below the largest stay normal
    unit, scale = _pow2_scaled(w)
    message = "the principal curvatures are out of floating-point range"
    values = np.linalg.eigvalsh(0.5 * (unit + unit.T))[::-1]
    values = _scaled_back(values, e + scale, CriticalPointError, message)
    curvatures = _clusters(values, cluster_tol)
    # K = prod(m) 2^sum(ex) from values = m 2^ex: bitwise np.prod(values) where that stays normal
    m, ex = np.frexp(values)
    message = "the Gauss-Kronecker curvature is out of floating-point range"
    gauss_kronecker = float(_scaled_back(np.prod(m), int(ex.sum()), CriticalPointError, message))
    return CurvatureReport(
        point=frame.point,
        normal=frame.normal,
        tangent_basis=basis,
        weingarten=weingarten,
        curvatures=curvatures,
        gauss_kronecker=gauss_kronecker,
        mean=_mean(values),
        eigenvalues=values,
    )


def fd_hessian_oracle(field: ScalarField, p, step: float) -> np.ndarray:
    """Central-finite-difference Hessian, the AD-independent second-derivative check.

    The step must be positive, and so must its denominator 4 step^2, in float range.
    """
    _as_real(step, 0.0, _FLOAT_MAX, "step")
    denominator = 4.0 * float(step) * float(step)
    if not 0.0 < denominator < math.inf:
        raise ValueError(f"step {step!r} leaves 4 step^2 = {denominator!r} out of floating-point range")
    p = _as_point(p, field.arity)
    n = p.size

    def f(x):
        return float(field([float(v) for v in x]))

    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = step
            val = (f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)) / denominator
            hess[i, j] = val
            hess[j, i] = val
    return hess
