import numpy as np
import pytest

from slcurv.autodiff import gradient, hessian
from slcurv.fields import ScalarField, determinant_field, quadric_field, sphere_field
from slcurv.linalg import complement_basis, determinant, frobenius_norm
from slcurv.slgroup import gauss_map, random_sl, weingarten_identity
from slcurv.surfaces import (
    CriticalPointError,
    ImplicitHypersurface,
    curvature_report,
    second_fundamental_form,
    weingarten_apply,
)

from conftest import random_trace_zero

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def dense_field(k):
    # 2^k (0.95 2^20 (sum x_i)^2 + sum i x_i) in R^6: every Hessian entry is 0.95 2^21 2^k,
    # so at k = 1003 T^t H T overflows while W = -(T^t H T)/|grad f| does not
    def body(x):
        total, linear = x[0], 1.0 * x[0]
        for i in range(1, 6):
            total, linear = total + x[i], linear + (i + 1.0) * x[i]
        return 2.0**k * (0.95 * 2.0**20 * (total * total) + linear)

    return ScalarField(arity=6, body=body, name="dense")


def spread_field(k):
    # 2^k (x4 + 2^995 x4^2 + 2^-995 x1^2) in R^4: at the origin H = diag(2^(k-994), 0, 0,
    # 2^(k+996)) spans 2^1990, wider than the 2^1022 that H scaled to max|H'_ij| in [0.5, 1)
    # keeps normal; the large entry lies along the normal, so W = diag(-2^-994, 0, 0) up to
    # order. Both entries are normal for k in [-28, 27].
    def body(x):
        return 2.0**k * (x[3] + 2.0**995 * (x[3] * x[3]) + 2.0**-995 * (x[0] * x[0]))

    return ScalarField(arity=4, body=body, name="spread")


def parabola_field(k):
    # 2^k (x1 + x2 + x1^2) in R^2: at the origin g = 2^k (1, 1) and H = 2^k diag(2, 0) are
    # exact for every k in [-1074, 1022], and kappa = -2^-0.5. |g| = 2^(k + 0.5) is
    # subnormal for k <= -1023, where a norm rounded as a subnormal loses bits
    def body(x):
        return 2.0**k * (x[0] + x[1] + x[0] * x[0])

    return ScalarField(arity=2, body=body, name="parabola")


# f -> 2^k f at level 2^k c scales the gradient, the Hessian and |grad f| by 2^k
# exactly, so the normal, W and every curvature are bitwise unchanged. |grad f|^2
# overflows from about k = 510 on and underflows from about k = -500 down; on the sphere
# and the dense field, |grad f| itself does neither for k in [-500, 1003]. The frame scales
# H and g before it forms |g| and W, so a field whose T^t H T overflows still gives the
# k = 0 report, one whose Hessian entries span 2^1990 keeps its smallest curvature, and a
# parabola whose |g| is subnormal keeps its curvature.
@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(-1074, 1022), st.integers(0, 2**32 - 1))
@hypothesis.example(-1074, 0)
@hypothesis.example(-1063, 0)
@hypothesis.example(-1023, 0)
@hypothesis.example(-500, 0)
@hypothesis.example(510, 0)
@hypothesis.example(1000, 0)
@hypothesis.example(1002, 0)
@hypothesis.example(1003, 0)
@hypothesis.example(-28, 0)
@hypothesis.example(27, 0)
def test_report_invariant_under_power_of_two_field_scaling(k, seed):
    p = np.random.default_rng(seed).uniform(-2.0, 2.0, size=4)
    level = float(sphere_field(4)(list(p)))
    cases = [(parabola_field(0), parabola_field(k), 0.0, np.zeros(2))]
    if -500 <= k <= 1003:
        cases.append((sphere_field(4), quadric_field([2.0**k] * 4), level, p))
        cases.append((dense_field(0), dense_field(k), 0.0, np.zeros(6)))
    if -28 <= k <= 27:
        cases.append((spread_field(0), spread_field(k), 0.0, np.zeros(4)))
    for field, scaled_field, level, point in cases:
        surface = ImplicitHypersurface(field=field, level=level)
        scaled_surface = ImplicitHypersurface(field=scaled_field, level=2.0**k * level)
        base = curvature_report(surface, point)
        scaled = curvature_report(scaled_surface, point)
        for name in ("point", "normal", "tangent_basis", "weingarten", "eigenvalues"):
            assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), name
        assert scaled.curvatures == base.curvatures
        assert scaled.gauss_kronecker.hex() == base.gauss_kronecker.hex()
        assert scaled.mean.hex() == base.mean.hex()
        if field.name == "spread":
            assert -(2.0**-994) in base.eigenvalues


# x -> 2^k x maps the sphere |x|^2 = c onto |x|^2 = 4^k c: the gradient scales by 2^k,
# the Hessian not at all and the basis not at all, so W and every principal curvature
# scale by 2^-k exactly. LAPACK rescales a tiny matrix by factors that are not powers
# of two (W near 2^-404 and below, e.g. k = 404 at seed 1), so the eigensolve must
# scale W exactly first. For k < 0 the Gauss-Kronecker curvature, 2^-3k times the
# base's, can leave the float range, which is a CriticalPointError.
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(-500, 500), st.integers(0, 2**32 - 1))
@hypothesis.example(-500, 0)
@hypothesis.example(404, 1)
@hypothesis.example(485, 0)
@hypothesis.example(500, 0)
def test_curvatures_scale_under_power_of_two_point_scaling(k, seed):
    p = np.random.default_rng(seed).uniform(-2.0, 2.0, size=4)
    level = float(sphere_field(4)(list(p)))
    base = curvature_report(ImplicitHypersurface(field=sphere_field(4), level=level), p)
    scaled_surface = ImplicitHypersurface(field=sphere_field(4), level=2.0 ** (2 * k) * level)
    if np.frexp(base.gauss_kronecker)[1] - 3 * k > 1024:
        with pytest.raises(CriticalPointError, match="range"):
            curvature_report(scaled_surface, np.ldexp(p, k))
        return
    scaled = curvature_report(scaled_surface, np.ldexp(p, k))
    for name in ("weingarten", "eigenvalues"):
        assert getattr(scaled, name).tobytes() == np.ldexp(getattr(base, name), -k).tobytes(), name


def normal_entries(seed):
    """A seeded vector or square matrix whose nonzero entries lie in [2^-20, 2] in
    magnitude, so that every 2^k multiple with |k| <= 1000 stays normal."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    shape = (m,) if rng.integers(2) else (m, m)
    a = rng.choice([-1.0, 1.0], size=shape) * np.exp2(rng.uniform(-20.0, 1.0, size=shape))
    return np.where(rng.uniform(size=shape) < 0.2, 0.0, a)


# the norm of 2^k a is the norm of a times 2^k, bitwise: a sum of squares that
# overflows (k >= about 510) or underflows (k <= about -500) is not the result
@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(-1000, 1000), st.integers(0, 2**32 - 1))
@hypothesis.example(600, 0)
@hypothesis.example(-600, 0)
def test_frobenius_norm_scales_exactly(k, seed):
    a = normal_entries(seed)
    assert frobenius_norm(np.ldexp(a, k)).hex() == float(np.ldexp(frobenius_norm(a), k)).hex()


# complement_basis depends on g/|g| only, so any 2^k g gives the same columns bitwise
@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(-1000, 1000), st.integers(0, 2**32 - 1))
@hypothesis.example(-1000, 0)
@hypothesis.example(1000, 0)
def test_complement_basis_depends_on_direction_only(k, seed):
    g = normal_entries(seed).ravel()
    hypothesis.assume(g.size >= 2 and np.any(g != 0.0))
    assert complement_basis(np.ldexp(g, k)).tobytes() == complement_basis(g).tobytes()


# diag(2^k, 2^-k) is in SL(2) and |A^{-1}|_F = 2^k (1 + 2^-4k)^{1/2} stays finite;
# det of the image, about 2^-2k, is representable in float64 only for k <= 537
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(0, 1000))
@hypothesis.example(512)
@hypothesis.example(537)
@hypothesis.example(1000)
def test_gauss_map_of_extreme_diagonal(k):
    image = gauss_map(np.diag([2.0**k, 2.0**-k]))
    assert abs(frobenius_norm(image) - 1.0) <= 1e-15
    assert np.all(image >= 0.0)
    if k <= 537:
        assert determinant(image) > 0.0


def old_trace_verdict(h):
    # the documented bound |tr h| <= 1e-9 (1 + |h|_F), as the unscaled test reads it
    return abs(float(np.trace(h))) <= 1e-9 * (1.0 + frobenius_norm(h))


# testing the bound on h scaled by a power of two multiplies both sides by it,
# exactly, so every verdict away from overflow and underflow stays the same
@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.integers(2, 6), st.integers(0, 2**32 - 1), st.integers(-500, 500), st.floats(0.0, 2.0)
)
@hypothesis.example(2, 0, 0, 1.0)
def test_trace_verdict_unchanged(n, seed, k, ratio):
    h = np.ldexp(random_trace_zero(n, np.random.default_rng(seed)), k)
    # a trace near the bound, on both sides of it
    h[0, 0] += ratio * 1e-9 * (1.0 + frobenius_norm(h))
    try:
        weingarten_identity(h)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == old_trace_verdict(h)


def unscaled_apply(g, gnorm, hess, v):
    # the shape operator on v as written before v was scaled: -(I - N N^t) H v / |grad f|
    normal = g / gnorm
    hv = hess @ v
    return -(hv - normal * float(normal @ hv)) / gnorm


# the shape operator works on v scaled by a power of two and scales back exactly, so
# an ordinary v gets the unscaled formula's result bitwise, and 2^k v gets 2^k times it
@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(-400, 400))
@hypothesis.example(3, 0, 400)
def test_shape_operator_on_scaled_vectors(n, seed, k):
    surface = ImplicitHypersurface(field=determinant_field(n), level=1.0)
    p = random_sl(n, seed).ravel()
    g, hess = gradient(surface.field, p), hessian(surface.field, p)
    gnorm = frobenius_norm(g)
    normal = g / gnorm
    x, y = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, n * n))
    v, w = x - (x @ normal) * normal, y - (y @ normal) * normal
    lv = weingarten_apply(surface, p, v)
    assert lv.tobytes() == unscaled_apply(g, gnorm, hess, v).tobytes()
    assert weingarten_apply(surface, p, np.ldexp(v, k)).tobytes() == np.ldexp(lv, k).tobytes()
    form = second_fundamental_form(surface, p, v, w)
    assert form.hex() == float(unscaled_apply(g, gnorm, hess, v) @ w).hex()
    scaled = second_fundamental_form(surface, p, np.ldexp(v, k), np.ldexp(w, -k))
    assert scaled.hex() == form.hex()
