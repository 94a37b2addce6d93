import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import slcurv.surfaces
from slcurv.autodiff import gradient, hessian
from slcurv.cli import run_verify_sl
from slcurv.fields import ScalarField, determinant_field, expression_field, quadric_field, sphere_field
from slcurv.linalg import _pow2_scaled, complement_basis, frobenius_norm, jacobi_eigh
from slcurv.slgroup import gauss_map, principal_curvatures_identity, random_sl, random_special_orthogonal
from slcurv.surfaces import (
    CriticalPointError,
    ImplicitHypersurface,
    NonTangentVectorError,
    OffSurfaceError,
    curvature_report,
    fd_hessian_oracle,
    second_fundamental_form,
    unit_normal,
    weingarten_apply,
    weingarten_matrix,
)

from conftest import random_trace_zero, sl_surface


def basis_matrix(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


class TestUnitNormal:
    def test_sl2_identity(self):
        normal = unit_normal(sl_surface(2), [1.0, 0.0, 0.0, 1.0])
        assert np.allclose(normal, np.eye(2).ravel() / np.sqrt(2.0), atol=1e-15)

    def test_sphere_outward(self):
        surface = ImplicitHypersurface(field=sphere_field(3), level=4.0)
        assert np.allclose(unit_normal(surface, [2.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-15)

    def test_sl2_unipotent_matches_gauss_map(self):
        p = np.array([1.0, 1.0, 0.0, 1.0])
        normal = unit_normal(sl_surface(2), p)
        expect = np.array([1.0, 0.0, -1.0, 1.0]) / np.sqrt(3.0)
        assert np.max(np.abs(normal - expect)) <= 1e-14
        assert np.max(np.abs(normal - gauss_map(p.reshape(2, 2)).ravel())) <= 1e-14

    def test_off_surface_rejected(self):
        with pytest.raises(OffSurfaceError):
            unit_normal(sl_surface(2), [2.0, 0.0, 0.0, 1.0])

    def test_critical_point_rejected(self):
        cone = ImplicitHypersurface(field=quadric_field([1.0, -1.0]), level=0.0)
        with pytest.raises(CriticalPointError):
            unit_normal(cone, [0.0, 0.0])

    @pytest.mark.parametrize(
        "text, point",
        [("1/x1 + x2", [1e-200, -1e200]), ("1/x1 + x2", [1e-110, -1e110])],
        ids=["infinite-gradient", "infinite-hessian"],
    )
    def test_non_finite_derivatives_rejected(self, text, point):
        # 1/x1 at 1e-200: the gradient overflows; at 1e-110 only the Hessian does
        surface = ImplicitHypersurface(field=expression_field(text, 2), level=0.0)
        with pytest.raises(CriticalPointError, match="not finite"):
            curvature_report(surface, point)

    def test_subnormal_gradient(self):
        # |g| = 7.07e-318 is rounded as a subnormal, so g/|g| would miss unit length by
        # 1.7e-7; the normal comes from 2^600 g instead, and T is complement_basis(g)
        tiny = "0." + "0" * 317
        field = expression_field(f"{tiny}1*x1 + {tiny}7*x2 + x1^3", 2)
        surface, origin = ImplicitHypersurface(field=field, level=0.0), [0.0, 0.0]
        assert abs(frobenius_norm(unit_normal(surface, origin)) - 1.0) <= 1e-15
        basis = complement_basis(gradient(field, origin))
        assert weingarten_matrix(surface, origin)[1].tobytes() == basis.tobytes()

    def test_newton_distance_gate(self):
        # on-surface within 1e-9 (1 + |c|), yet 0.71 radii of curvature off the
        # circle of radius 1e-10; a sphere point 1e-10 off its level still passes
        small = ImplicitHypersurface(field=sphere_field(2), level=1e-20)
        assert small.contains([3e-5, 0.0])
        with pytest.raises(OffSurfaceError, match="curvature radius"):
            unit_normal(small, [3e-5, 0.0])
        near = ImplicitHypersurface(field=sphere_field(3), level=4.0, on_surface_tol=1e-9)
        assert near.contains([2.0 + 2.5e-11, 0.0, 0.0])
        unit_normal(near, [2.0 + 2.5e-11, 0.0, 0.0])

    def test_newton_distance_ratio_is_scale_free(self):
        # f -> 2^k f scales distance, |grad f| and |H|_F alike; x -> 2^k x keeps the
        # distance and scales |grad f| by 2^-k and |H|_F by 2^-2k: the ratio is bitwise
        # unchanged, and extreme factors neither overflow nor divide by zero; the frame
        # hands over H as (H 2^-e, e)
        def ratio(d, g, h):
            return slcurv.surfaces._newton_curvature_ratio(d, *math.frexp(g), *_pow2_scaled(h))

        d, g, h = 3.1e-6, 0.7, 5.3
        base = ratio(d, g, h)
        for k in (-1000, -40, 0, 40, 1000):
            assert ratio(np.ldexp(d, k), np.ldexp(g, k), np.ldexp(h, k)) == base
        for k in (-400, -40, 40, 400):
            assert ratio(d, np.ldexp(g, -k), np.ldexp(h, -2 * k)) == base
        assert 1e18 < ratio(1e300, 1e-10, 1e300) < np.inf
        assert ratio(0.0, 1e-10, 1e300) == 0.0
        assert ratio(1e300, 1e300, 0.0) == 0.0

    def test_surface_tolerance_override(self):
        loose = ImplicitHypersurface(field=sphere_field(2), level=1.0, on_surface_tol=0.1)
        assert loose.contains([1.01, 0.0])
        strict = ImplicitHypersurface(field=sphere_field(2), level=1.0)
        assert strict.surface_tol() == pytest.approx(2e-9)
        assert not strict.contains([1.01, 0.0])
        exact = ImplicitHypersurface(field=sphere_field(2), level=1.0, on_surface_tol=0.0)
        assert exact.contains([1.0, 0.0])
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="on_surface_tol"):
                ImplicitHypersurface(field=sphere_field(2), level=1.0, on_surface_tol=tol)
        with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
            unit_normal(sl_surface(2), np.eye(2))


class TestWeingartenMatrix:
    def test_sl2_identity_spectrum(self):
        w, basis = weingarten_matrix(sl_surface(2), np.eye(2).ravel())
        assert w.shape == (3, 3) and basis.shape == (4, 3)
        kappa = 2.0**-0.5
        values = jacobi_eigh(w).values
        assert np.max(np.abs(values - [kappa, kappa, -kappa])) <= 1e-9

    def test_sphere_is_scaled_identity(self):
        surface = ImplicitHypersurface(field=sphere_field(3), level=4.0)
        w, _ = weingarten_matrix(surface, [2.0, 0.0, 0.0])
        assert np.max(np.abs(w - (-0.5) * np.eye(2))) <= 1e-14

    def test_cylinder_spectrum(self):
        surface = ImplicitHypersurface(field=quadric_field([1.0, 1.0, 0.0]), level=1.0)
        w, _ = weingarten_matrix(surface, [1.0, 0.0, 0.0])
        values = jacobi_eigh(w).values
        assert np.max(np.abs(values - [0.0, -1.0])) <= 1e-14

    def test_symmetry_at_random_points(self, rng):
        surfaces = []
        for _ in range(40):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            surfaces.append((ImplicitHypersurface(field=sphere_field(3), level=4.0), 2.0 * u))
        for i in range(30):
            surfaces.append((sl_surface(2), random_sl(2, 1000 + i).ravel()))
        for i in range(20):
            surfaces.append((sl_surface(3), random_sl(3, 2000 + i).ravel()))
        for _ in range(10):
            theta, z = rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1)
            surfaces.append(
                (
                    ImplicitHypersurface(field=quadric_field([1.0, 1.0, 0.0]), level=1.0),
                    np.array([np.cos(theta), np.sin(theta), z]),
                )
            )
        for surface, p in surfaces:
            w, _ = weingarten_matrix(surface, p)
            assert frobenius_norm(w - w.T) <= 1e-10 * (1.0 + frobenius_norm(w))

    @pytest.mark.parametrize(
        "field, p",
        [
            (determinant_field(3), random_sl(3, 11).ravel()),
            (quadric_field([1.0, -2.0, 0.5, 3.0]), np.array([0.3, -1.1, 2.0, 0.7])),
            (expression_field("x1^3*x2 - x2*x3 + 2/(1 + x3^2)", 3), np.array([0.4, -1.3, 0.9])),
            (quadric_field([1.0, -2.0, 0.5, 3.0]), np.ldexp([0.3, -1.1, 2.0, 0.7], -500)),
            (quadric_field([1.0, -2.0, 0.5, 3.0]), np.ldexp([0.3, -1.1, 2.0, 0.7], 500)),
            (sphere_field(3), np.array([2.0, 0.0, 0.0])),
        ],
        ids=["determinant", "quadric", "expression", "quadric-2^-500", "quadric-2^500", "sphere-zeros"],
    )
    def test_formulas_bitwise(self, field, p):
        # W = -(T^t H T)/|g| with T = complement_basis(g), and N = g/|g|, from the
        # public gradient and Hessian. The pipeline builds T from N, not from g: at
        # 2^-500 and 2^500, |g| takes frobenius_norm's scaled path, and the sphere's g
        # has exact-zero components
        surface = ImplicitHypersurface(field=field, level=float(field([float(x) for x in p])))
        g, hess = gradient(field, p), hessian(field, p)
        basis = complement_basis(g)
        w, t = weingarten_matrix(surface, p)
        assert t.tobytes() == basis.tobytes()
        assert w.tobytes() == (-(basis.T @ hess @ basis) / frobenius_norm(g)).tobytes()
        assert unit_normal(surface, p).tobytes() == (g / frobenius_norm(g)).tobytes()

    def test_basis_rotation_leaves_spectrum(self):
        surface = sl_surface(2)
        p = np.eye(2).ravel()
        w, _ = weingarten_matrix(surface, p)
        base = jacobi_eigh(w).values
        for seed in range(5):
            q = random_special_orthogonal(3, 300 + seed)
            rotated = jacobi_eigh(q.T @ w @ q).values
            assert np.max(np.abs(rotated - base)) <= 1e-9


class TestWeingartenApply:
    def test_sl2_e12(self):
        out = weingarten_apply(sl_surface(2), np.eye(2).ravel(), basis_matrix(2, 0, 1).ravel())
        expect = basis_matrix(2, 1, 0).ravel() / np.sqrt(2.0)
        assert np.max(np.abs(out - expect)) <= 1e-14

    def test_sl2_diagonal_direction(self):
        v = np.diag([1.0, -1.0]).ravel()
        out = weingarten_apply(sl_surface(2), np.eye(2).ravel(), v)
        assert np.max(np.abs(out - v / np.sqrt(2.0))) <= 1e-14

    def test_sl3_skew_direction(self):
        h = basis_matrix(3, 0, 1) - basis_matrix(3, 1, 0)
        out = weingarten_apply(sl_surface(3), np.eye(3).ravel(), h.ravel())
        assert np.max(np.abs(out - (-h.ravel() / np.sqrt(3.0)))) <= 1e-14

    def test_result_is_tangent(self, rng):
        surface = sl_surface(3)
        p = np.eye(3).ravel()
        for _ in range(10):
            h = random_trace_zero(3, rng)
            out = weingarten_apply(surface, p, h.ravel())
            assert abs(out @ p) <= 1e-12  # grad at I is vec(I)

    def test_non_tangent_rejected(self):
        for v in ([1.0, 0.0, 0.0, 1.0], [np.nan, 0.0, 0.0, 0.0]):
            with pytest.raises(NonTangentVectorError):
                weingarten_apply(sl_surface(2), np.eye(2).ravel(), v)

    def test_tangency_gate_is_scale_free(self):
        # |v|^2 overflows at 1e160; the gate reads the direction of v, not its size
        surface, p = ImplicitHypersurface(field=sphere_field(3), level=1.0), [1.0, 0.0, 0.0]
        tangent = np.array([0.0, 1e160, -1e160])
        assert np.array_equal(weingarten_apply(surface, p, tangent), -tangent)
        assert np.array_equal(weingarten_apply(surface, p, np.zeros(3)), np.zeros(3))
        for v in ([1e160, 1e160, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
            with pytest.raises(NonTangentVectorError):
                weingarten_apply(surface, p, v)
            with pytest.raises(NonTangentVectorError):
                second_fundamental_form(surface, p, tangent, v)

    def test_huge_vector_with_finite_result(self):
        # H v overflows, but L(v) = -v on the unit sphere does not
        surface, p = ImplicitHypersurface(field=sphere_field(3), level=1.0), [1.0, 0.0, 0.0]
        v = np.array([0.0, 1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(weingarten_apply(surface, p, v), -v)

    def test_result_out_of_range_raises(self):
        # L(v) = -100 v on a sphere of radius 0.01, and <L(v), v> = -1e400 on the unit sphere;
        # the form of the same v with a small w is finite
        small = ImplicitHypersurface(field=sphere_field(3), level=1e-4)
        unit = ImplicitHypersurface(field=sphere_field(3), level=1.0)
        v = np.array([0.0, 1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                weingarten_apply(small, [0.01, 0.0, 0.0], [0.0, 1e308, 0.0])
            with pytest.raises(OverflowError):
                second_fundamental_form(unit, [1.0, 0.0, 0.0], v, v)
            form = second_fundamental_form(unit, [1.0, 0.0, 0.0], v, 1e-200 * v)
            assert form == pytest.approx(-1e200, rel=1e-15)
            # |g| = 1e-5 and H = diag(1e308, 0): H w/|g| overflows for w = e1
            steep = ImplicitHypersurface(
                field=expression_field("0.00001*x2 + 5" + "0" * 307 + "*x1^2", 2), level=0.0
            )
            with pytest.raises(OverflowError):
                weingarten_apply(steep, [0.0, 0.0], [1.0, 0.0])
            with pytest.raises(OverflowError):
                second_fundamental_form(steep, [0.0, 0.0], [1.0, 0.0], [1.0, 0.0])
            # in R^3, L(e1) is out of range but <L(e1), e2> = -H_12/|g| = 0 is not: the
            # form is the same in either argument order
            steep3 = ImplicitHypersurface(
                field=expression_field("0.00001*x3 + 5" + "0" * 307 + "*x1^2", 3), level=0.0
            )
            e1, e2, origin = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]
            assert second_fundamental_form(steep3, origin, e1, e2) == 0.0
            assert second_fundamental_form(steep3, origin, e2, e1) == 0.0
            with pytest.raises(OverflowError):
                second_fundamental_form(steep3, origin, e1, e1)
            with pytest.raises(OverflowError):
                weingarten_apply(steep3, origin, e1)

    def test_matches_transpose_rule(self, rng):
        # Weingarten map of SL(n) at the identity sends vec(H) to n^{-1/2} vec(H^t)
        for n in (2, 3):
            surface = sl_surface(n)
            p = np.eye(n).ravel()
            for _ in range(50):
                h = random_trace_zero(n, rng)
                out = weingarten_apply(surface, p, h.ravel())
                expect = h.T.ravel() / np.sqrt(n)
                assert np.max(np.abs(out - expect)) <= 1e-9


class TestCurvatureReport:
    def test_sl2(self):
        report = curvature_report(sl_surface(2), np.eye(2).ravel())
        kappa = 2.0**-0.5
        assert len(report.curvatures) == 2
        (v1, m1), (v2, m2) = report.curvatures
        assert (m1, m2) == (2, 1)
        assert abs(v1 - kappa) <= 1e-9 and abs(v2 + kappa) <= 1e-9
        assert report.gauss_kronecker == pytest.approx(-(2.0**-1.5), abs=1e-9)
        assert report.mean == pytest.approx(1.0 / (3.0 * np.sqrt(2.0)), abs=1e-12)

    def test_sl3(self):
        report = curvature_report(sl_surface(3), np.eye(3).ravel())
        kappa = 3.0**-0.5
        (v1, m1), (v2, m2) = report.curvatures
        assert (m1, m2) == (5, 3)
        assert abs(v1 - kappa) <= 1e-9 and abs(v2 + kappa) <= 1e-9
        assert report.gauss_kronecker == pytest.approx(-1.0 / 81.0, rel=1e-9)
        assert report.mean == pytest.approx(1.0 / (4.0 * np.sqrt(3.0)), rel=1e-12)

    @pytest.mark.parametrize("cluster_tol", [float("nan"), -1.0, True])
    def test_nan_or_negative_cluster_tol(self, cluster_tol):
        # nan would put all eight SL(3) values in one cluster, -1 each in its own. The gate
        # runs on entry, so the field is never evaluated, on the surface or off it
        calls = []

        def body(a):
            calls.append(1)
            return a[0] * a[0] + a[1] * a[1] + a[2] * a[2]

        surface = ImplicitHypersurface(field=ScalarField(3, body), level=4.0)
        for point in ([2.0, 0.0, 0.0], [3.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="^cluster_tol must be a real number"):
                curvature_report(surface, point, cluster_tol=cluster_tol)
        assert calls == []

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_plane_written_as_square_plus_linear_is_flat(self, n):
        # (l.x)^2 + l.x = 0 is the plane l.x = 0 near the origin. T^t H T with H = 2 l l^t
        # cancels to roundoff, so W is a tiny matrix, symmetric only to roundoff relative
        # to |H|_F/|g| = 2|l|. The worst curvature measured here is 0.26 eps 2|l|; the
        # mean and K lie below the largest curvature, so one bound, eps 2|l|, holds all
        rng = np.random.default_rng(1000 + n)
        eps = np.finfo(float).eps
        for _ in range(40):
            l = rng.integers(-3, 4, size=n)
            l[rng.integers(n)] = rng.choice([-2, -1, 1, 2, 3])
            linear = " + ".join(f"({c})*x{i + 1}" for i, c in enumerate(l.tolist()))
            field = expression_field(f"({linear})^2 + ({linear})", n)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = curvature_report(ImplicitHypersurface(field=field, level=0.0), np.zeros(n))
            bound = eps * 2.0 * np.linalg.norm(l)
            assert np.max(np.abs(report.eigenvalues)) <= bound, l
            assert abs(report.gauss_kronecker) <= bound and abs(report.mean) <= bound, l

    @pytest.mark.parametrize(
        "text, gauss_kronecker",
        [
            # kappa = 1e200, 1e200, 1e-100: the partial product 1e200 1e200 overflows, K does not
            (f"x4 - 5{'0' * 199}*(x1^2 + x2^2) - 0.{'0' * 100}5*x3^2", 1e300),
            # kappa = 1e200, 1e200, 0 on a cylinder: the plain product is inf 0, a NaN
            (f"x4 - 5{'0' * 199}*(x1^2 + x2^2)", 0.0),
            # kappa = 1e-160, 1e-160, -1e150: the partial product 1e-320 is subnormal, K is not
            (f"x4 - 0.{'0' * 160}5*(x1^2 + x2^2) + 5{'0' * 149}*x3^2", -1e-170),
        ],
        ids=["finite-product", "cylinder", "subnormal-product"],
    )
    def test_gauss_kronecker_past_an_overflowing_partial_product(self, text, gauss_kronecker):
        field = expression_field(text, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = curvature_report(ImplicitHypersurface(field=field, level=0.0), np.zeros(4))
        # K is the product of the reported curvatures to rounding; those differ from the
        # nominal ones by the parser's rounding of the decimal coefficients (about 2e-14)
        exact = float(math.prod(Fraction(v) for v in report.eigenvalues))
        assert report.gauss_kronecker == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert report.gauss_kronecker == pytest.approx(gauss_kronecker, rel=1e-13, abs=0.0)

    def test_gradient_norm_past_the_float_maximum(self):
        # g = 1.7e308 (1, 1) and H = diag(2e20, 0) are finite, |g| = 2.4e308 is not; with
        # t = (1, -1)/sqrt(2), W = -(t^t H t)/|g| = -1e20/|g| = -4.159451654039e-289
        field = expression_field(f"17{'0' * 307}*(x1+x2) + 1{'0' * 20}*x1^2", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = curvature_report(ImplicitHypersurface(field=field, level=0.0), np.zeros(2))
        kappa = -1e20 / 1.7e308 / math.sqrt(2.0)
        assert report.curvatures == [(pytest.approx(kappa, rel=1e-14, abs=0.0), 1)]
        assert report.gauss_kronecker == pytest.approx(kappa, rel=1e-14, abs=0.0)

    def test_weingarten_keeps_entries_far_below_the_largest(self):
        # W = diag(2e-300, 0, 2e300) in the frame's basis. The eigenvalues come from W scaled
        # to unit, where 2e-300 is lost below the subnormals; W itself keeps it
        field = ScalarField(4, lambda a: a[3] - 1e300 * a[0] ** 2 - 1e-300 * a[1] ** 2)
        surface = ImplicitHypersurface(field=field, level=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = curvature_report(surface, np.zeros(4))
            w, _ = weingarten_matrix(surface, np.zeros(4))
        assert report.weingarten[0, 0] == w[0, 0] == 2e-300
        assert report.eigenvalues.tolist() == [2e300, 0.0, 0.0]

    def test_sphere(self):
        surface = ImplicitHypersurface(field=sphere_field(3), level=4.0)
        report = curvature_report(surface, [2.0, 0.0, 0.0])
        assert report.curvatures == [(pytest.approx(-0.5, abs=1e-12), 2)]
        assert report.gauss_kronecker == pytest.approx(0.25, rel=1e-12)
        assert report.mean == pytest.approx(-0.5, rel=1e-12)

    def test_report_invariants(self, rng):
        report = curvature_report(sl_surface(3), random_sl(3, 99).ravel())
        assert abs(np.linalg.norm(report.normal) - 1.0) <= 1e-12
        assert np.max(np.abs(report.tangent_basis.T @ report.normal)) <= 1e-10
        assert sum(m for _, m in report.curvatures) == 8
        product = float(np.prod(report.eigenvalues))
        assert report.gauss_kronecker == pytest.approx(product, rel=1e-9)
        assert report.mean == pytest.approx(float(np.sum(report.eigenvalues)) / 8, rel=1e-12)

    def test_identity_spectrum_matches_closed_form(self):
        for n in range(2, 9):
            report = curvature_report(sl_surface(n), np.eye(n).ravel())
            exact = principal_curvatures_identity(n)
            assert [m for _, m in report.curvatures] == [m for _, m in exact]
            for (got, _), (want, _) in zip(report.curvatures, exact):
                assert abs(got - want) <= 1e-9

    def test_one_derivative_pass_per_point(self, monkeypatch):
        # one vector-mode pass yields the gradient and the Hessian together
        points = []
        original = slcurv.surfaces._jet

        def counted(field, p):
            points.append(np.array(p, dtype=float))
            return original(field, p)

        monkeypatch.setattr(slcurv.surfaces, "_jet", counted)
        curvature_report(sl_surface(3), random_sl(3, 5).ravel())
        assert len(points) == 1
        v = np.diag([1.0, -1.0, 0.0]).ravel()
        second_fundamental_form(sl_surface(3), np.eye(3).ravel(), v, v)
        assert len(points) == 2
        points.clear()
        run_verify_sl(3, 1e-8, 42)
        # the identity, then the five rotation points
        assert len(points) == 6
        assert np.array_equal(points[0], np.eye(3).ravel())
        assert len({p.tobytes() for p in points}) == 6

    def test_rotation_points_share_identity_spectrum(self):
        # left translation by a rotation is an ambient isometry fixing SL(n)
        for n in (2, 3):
            surface = sl_surface(n)
            identity_eigs = np.sort(curvature_report(surface, np.eye(n).ravel()).eigenvalues)
            for seed in range(10):
                q = random_special_orthogonal(n, 400 + seed)
                eigs = np.sort(curvature_report(surface, q.ravel()).eigenvalues)
                assert np.max(np.abs(eigs - identity_eigs)) <= 1e-8


class TestSecondFundamentalForm:
    def test_nilpotent_direction(self):
        v = basis_matrix(2, 0, 1).ravel()
        out = second_fundamental_form(sl_surface(2), np.eye(2).ravel(), v, v)
        assert abs(out) <= 1e-14

    def test_diagonal_direction(self):
        v = np.diag([1.0, -1.0]).ravel()
        out = second_fundamental_form(sl_surface(2), np.eye(2).ravel(), v, v)
        assert out == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_skew_direction_n3(self):
        v = (basis_matrix(3, 0, 1) - basis_matrix(3, 1, 0)).ravel()
        out = second_fundamental_form(sl_surface(3), np.eye(3).ravel(), v, v)
        assert out == pytest.approx(-2.0 / np.sqrt(3.0), rel=1e-14)

    def test_symmetric_bilinear(self, rng):
        surface = sl_surface(3)
        p = np.eye(3).ravel()
        for _ in range(10):
            v = random_trace_zero(3, rng).ravel()
            w = random_trace_zero(3, rng).ravel()
            a = second_fundamental_form(surface, p, v, w)
            b = second_fundamental_form(surface, p, w, v)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_trace_form_agreement(self, rng):
        # at the identity the form is n^{-1/2} tr(H^2) on v = vec(H)
        for n in (2, 3):
            surface = sl_surface(n)
            p = np.eye(n).ravel()
            for _ in range(50):
                h = random_trace_zero(n, rng)
                got = second_fundamental_form(surface, p, h.ravel(), h.ravel())
                want = np.trace(h @ h) / np.sqrt(n)
                assert abs(got - want) <= 1e-9

    def test_non_tangent_rejected(self):
        with pytest.raises(NonTangentVectorError):
            second_fundamental_form(
                sl_surface(2), np.eye(2).ravel(), np.eye(2).ravel(), np.eye(2).ravel()
            )


class TestFdHessianOracle:
    def test_matches_ad_on_det2(self):
        field = determinant_field(2)
        p = np.eye(2).ravel()
        from slcurv.autodiff import hessian

        assert np.max(np.abs(fd_hessian_oracle(field, p, 1e-4) - hessian(field, p))) <= 1e-6

    def test_quadric(self, rng):
        # a quadric has no truncation error, so a larger step keeps the
        # difference quotient away from cancellation noise
        field = sphere_field(3)
        p = rng.uniform(-2, 2, size=3)
        assert np.max(np.abs(fd_hessian_oracle(field, p, 0.5) - 2.0 * np.eye(3))) <= 1e-8

    def test_det3_identity_action(self, rng):
        oracle = fd_hessian_oracle(determinant_field(3), np.eye(3).ravel(), 1e-4)
        for _ in range(5):
            h = rng.uniform(-1, 1, size=(3, 3))
            expect = np.trace(h) * np.eye(3) - h.T
            assert np.max(np.abs(oracle @ h.ravel() - expect.ravel())) <= 1e-5

    def test_bad_step_rejected(self):
        for step in (0.0, -1e-4, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="step"):
                fd_hessian_oracle(determinant_field(2), np.eye(2).ravel(), step)
