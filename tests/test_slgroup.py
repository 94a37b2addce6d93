import warnings

import numpy as np
import pytest

import slcurv.slgroup
from slcurv.linalg import determinant, frobenius_norm
from slcurv.slgroup import (
    curvature_summary,
    curvatures_at,
    fundamental_forms,
    gauss_map,
    gauss_map_preimage,
    principal_curvatures_identity,
    random_sl,
    random_special_orthogonal,
    spherical_image_contains,
    sym_skew_decompose,
    weingarten_identity,
)

from conftest import random_trace_zero


def basis_matrix(n, i, j):
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


class TestGaussMap:
    def test_identity(self):
        assert np.allclose(gauss_map(np.eye(2)), np.eye(2) / np.sqrt(2.0), atol=1e-15)

    def test_diagonal(self):
        out = gauss_map(np.diag([2.0, 0.5]))
        expect = np.diag([1.0 / np.sqrt(17.0), 4.0 / np.sqrt(17.0)])
        assert np.max(np.abs(out - expect)) <= 1e-14

    def test_unipotent(self):
        out = gauss_map(np.array([[1.0, 1.0], [0.0, 1.0]]))
        expect = np.array([[1.0, 0.0], [-1.0, 1.0]]) / np.sqrt(3.0)
        assert np.max(np.abs(out - expect)) <= 1e-14

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="not 1"):
            gauss_map(np.diag([2.0, 2.0]))

    def test_one_det_inverse_per_value(self, monkeypatch):
        # the unimodular check reads the determinant that det_inverse returns
        a = random_sl(3, 5)
        calls = []
        for name in ("det_inverse", "determinant"):

            def counted(m, name=name, original=getattr(slcurv.slgroup, name)):
                calls.append(name)
                return original(m)

            monkeypatch.setattr(slcurv.slgroup, name, counted)
        gauss_map(a)
        assert calls == ["det_inverse"]

    def test_unit_norm_and_positive_det(self):
        # |N(A)| = 1 and det N(A) = |A^{-1}|^{-n} > 0
        count = 0
        for n in (2, 3, 4):
            for seed in range(167):
                a = random_sl(n, 10_000 + seed)
                image = gauss_map(a)
                assert abs(frobenius_norm(image) - 1.0) <= 1e-12
                inv_norm = frobenius_norm(np.linalg.inv(a))
                det = determinant(image)
                assert det > 0.0
                assert det == pytest.approx(inv_norm ** (-n), rel=1e-9)
                count += 1
        assert count >= 500


class TestSphericalImage:
    def test_contains_identity_direction(self):
        assert spherical_image_contains(np.eye(2) / np.sqrt(2.0))

    def test_rejects_negative_det(self):
        assert not spherical_image_contains(np.diag([1.0, -1.0]) / np.sqrt(2.0))

    def test_odd_n_not_symmetric_about_zero(self):
        # -I/sqrt(3) has det < 0 for n = 3, so the image is not centrally symmetric
        assert spherical_image_contains(np.eye(3) / np.sqrt(3.0))
        assert not spherical_image_contains(-np.eye(3) / np.sqrt(3.0))

    def test_even_n_symmetric_pair(self):
        u = gauss_map(random_sl(2, 3))
        assert spherical_image_contains(u)
        assert spherical_image_contains(-u)

    def test_non_unit_norm_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            spherical_image_contains(np.eye(2))


class TestGaussMapPreimage:
    def test_identity_fixed_point(self):
        out = gauss_map_preimage(np.eye(2) / np.sqrt(2.0))
        assert np.max(np.abs(out - np.eye(2))) <= 1e-12

    def test_unipotent(self):
        u = np.array([[1.0, 0.0], [-1.0, 1.0]]) / np.sqrt(3.0)
        out = gauss_map_preimage(u)
        assert np.max(np.abs(out - np.array([[1.0, 1.0], [0.0, 1.0]]))) <= 1e-12

    def test_round_trip(self):
        checked = 0
        for n in (2, 3, 4):
            for seed in range(167):
                u = gauss_map(random_sl(n, 20_000 + seed))
                b = gauss_map_preimage(u)
                assert abs(determinant(b) - 1.0) <= 1e-9
                assert np.max(np.abs(gauss_map(b) - u)) <= 1e-10
                checked += 1
        assert checked >= 500

    def test_negative_det_rejected(self):
        with pytest.raises(ValueError, match="not positive"):
            gauss_map_preimage(np.diag([1.0, -1.0]) / np.sqrt(2.0))

    def test_non_unit_norm_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            gauss_map_preimage(np.eye(2))

    def test_one_det_inverse_per_value(self, monkeypatch):
        # the inverse comes from one det_inverse of the column-equilibrated u^t, and
        # det(u) from u^t itself, because numpy's det is not exact under that scaling
        u = gauss_map(random_sl(3, 5))
        calls = []
        for name in ("det_inverse", "determinant"):

            def counted(m, name=name, original=getattr(slcurv.slgroup, name)):
                calls.append((name, np.asarray(m).copy()))
                return original(m)

            monkeypatch.setattr(slcurv.slgroup, name, counted)
        gauss_map_preimage(u)
        assert [name for name, _ in calls] == ["det_inverse", "determinant"]
        assert np.array_equal(calls[1][1], u.T)
        assert np.all(np.max(np.abs(calls[0][1]), axis=0) >= 0.5)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [511, 512, 537])
    def test_inverse_overflow_avoided(self, n, k):
        # u = gauss_map(diag(2^k, 2^-k, 1, ...)) has the entry 2^-2k, so (u^t)^{-1} has
        # 2^2k, past the float maximum from k = 512; the preimage itself is representable
        a = np.diag([2.0**k, 2.0**-k] + [1.0] * (n - 2))
        b = gauss_map_preimage(gauss_map(a))
        assert np.all(b[a == 0.0] == 0.0)
        assert np.diag(b) / np.diag(a) == pytest.approx(np.ones(n), rel=1e-13)


def underflowed_image():
    """A spherical-image point with normal entries whose float det, about 2^-1200, is 0.0."""
    a = np.diag([2.0**400, 2.0**-400, 1.0])
    return a, gauss_map(a)


class TestUnderflowedDeterminant:
    def test_contains(self):
        # det u underflows to 0.0 (log|det u| = -831.8); slogdet's sign decides
        _, u = underflowed_image()
        assert determinant(u) == 0.0
        assert spherical_image_contains(u) is True
        assert spherical_image_contains(-u) is False  # n = 3: det(-u) < 0

    def test_preimage(self):
        a, u = underflowed_image()
        b = gauss_map_preimage(u)
        assert np.all(b[a == 0.0] == 0.0)
        assert np.diag(b) / np.diag(a) == pytest.approx(np.ones(3), rel=1e-13)
        assert np.max(np.abs(gauss_map(b) - u)) <= 1e-15

    def test_subnormal_det_preimage_on_sl(self):
        # det u is about 1.5 * 2^-1074, held as the subnormal 2^-1073: det(u)^(1/3) from
        # it would be off by a tenth, so the root comes from log|det u| instead
        x = 2.0**358 / 1.5 ** (1.0 / 3.0)
        u = gauss_map(np.diag([x, 1.0 / x, 1.0]))
        assert 0.0 < determinant(u) < np.finfo(float).tiny
        assert determinant(gauss_map_preimage(u)) == pytest.approx(1.0, abs=1e-12)


class TestWeingartenIdentity:
    def test_e12(self):
        out = weingarten_identity(basis_matrix(2, 0, 1))
        assert np.array_equal(out, basis_matrix(2, 1, 0) / np.sqrt(2.0))

    def test_traceless_diagonal_fixed(self):
        h = np.diag([1.0, -1.0])
        assert np.array_equal(weingarten_identity(h), h / np.sqrt(2.0))

    def test_skew_negated(self):
        h = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(weingarten_identity(h), -h / np.sqrt(2.0))

    def test_eigen_structure_on_basis(self):
        # trace-zero symmetric basis fixed, skew basis negated, factor n^{-1/2}
        for n in (2, 3, 4):
            scale = 1.0 / np.sqrt(n)
            for i in range(n):
                for j in range(i + 1, n):
                    sym = basis_matrix(n, i, j) + basis_matrix(n, j, i)
                    skew = basis_matrix(n, i, j) - basis_matrix(n, j, i)
                    diag = basis_matrix(n, i, i) - basis_matrix(n, j, j)
                    assert np.array_equal(weingarten_identity(sym), scale * sym)
                    assert np.array_equal(weingarten_identity(skew), -scale * skew)
                    assert np.array_equal(weingarten_identity(diag), scale * diag)

    def test_linearity(self, rng):
        for _ in range(20):
            h1, h2 = random_trace_zero(3, rng), random_trace_zero(3, rng)
            a, b = rng.uniform(-2, 2, size=2)
            lhs = weingarten_identity(a * h1 + b * h2)
            rhs = a * weingarten_identity(h1) + b * weingarten_identity(h2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_nonzero_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            weingarten_identity(np.eye(2))

    def test_huge_trace_rejected(self):
        # |h|_F^2 overflows at this scale, so the bound must not come out infinite
        for fn in (weingarten_identity, sym_skew_decompose, fundamental_forms):
            with pytest.raises(ValueError, match="trace-zero"):
                fn(2.0**600 * np.eye(2))
        h = 2.0**600 * np.diag([1.0, -1.0])
        assert np.array_equal(weingarten_identity(h), h / np.sqrt(2.0))


    @pytest.mark.parametrize("fn", [weingarten_identity, sym_skew_decompose, fundamental_forms])
    def test_overflowing_trace_rejected(self, fn):
        # every entry is finite, but the trace 2e308 and |h|_F overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="trace-zero"):
                fn(np.diag([1e308, 1e308, 1e308, -1e308]))


class TestSymSkewDecompose:
    def test_e12(self):
        sym, skew = sym_skew_decompose(basis_matrix(2, 0, 1))
        assert np.array_equal(sym, 0.5 * (basis_matrix(2, 0, 1) + basis_matrix(2, 1, 0)))
        assert np.array_equal(skew, 0.5 * (basis_matrix(2, 0, 1) - basis_matrix(2, 1, 0)))

    def test_diagonal(self):
        h = np.diag([1.0, -1.0])
        sym, skew = sym_skew_decompose(h)
        assert np.array_equal(sym, h)
        assert np.array_equal(skew, np.zeros((2, 2)))

    def test_parts_recombine_through_weingarten(self):
        # L(sym) + L(skew) = (sym - skew)/sqrt(2) = H^t/sqrt(2)
        h = np.array([[0.0, 2.0], [0.0, 0.0]])
        sym, skew = sym_skew_decompose(h)
        recombined = weingarten_identity(sym) + weingarten_identity(skew)
        assert np.max(np.abs(recombined - h.T / np.sqrt(2.0))) <= 1e-15

    def test_parts_sum_and_orthogonality(self, rng):
        for _ in range(20):
            h = random_trace_zero(4, rng)
            sym, skew = sym_skew_decompose(h)
            assert np.max(np.abs((sym + skew) - h)) <= 1e-15
            assert abs(np.trace(sym.T @ skew)) <= 1e-12
            assert abs(np.trace(sym)) <= 1e-12
            assert np.array_equal(skew, -skew.T)

    def test_nonzero_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            sym_skew_decompose(np.eye(3))

    def test_huge_entries_do_not_overflow(self):
        # h + h^t would overflow; each half is summed instead
        h = np.diag([1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sym, skew = sym_skew_decompose(h)
        assert np.array_equal(sym, h)
        assert np.array_equal(skew, np.zeros((2, 2)))


class TestPrincipalCurvatures:
    def test_n2(self):
        kappa = 2.0**-0.5
        assert principal_curvatures_identity(2) == [(kappa, 2), (-kappa, 1)]

    def test_n3(self):
        kappa = 3.0**-0.5
        assert principal_curvatures_identity(3) == [(kappa, 5), (-kappa, 3)]

    def test_n4(self):
        assert principal_curvatures_identity(4) == [(0.5, 9), (-0.5, 6)]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            principal_curvatures_identity(1)


class TestCurvatureSummary:
    def test_n2(self):
        s = curvature_summary(2)
        assert s.kappa_plus == pytest.approx(0.7071067811865476, rel=1e-15)
        assert (s.mult_plus, s.mult_minus) == (2, 1)
        assert s.gauss_kronecker == pytest.approx(-(2.0**-1.5), rel=1e-14)
        assert s.gauss_kronecker == pytest.approx(-0.3535533906, abs=1e-10)
        assert s.mean == pytest.approx(0.2357022604, abs=1e-10)

    def test_n3(self):
        s = curvature_summary(3)
        assert (s.mult_plus, s.mult_minus) == (5, 3)
        assert s.gauss_kronecker == pytest.approx(-1.0 / 81.0, rel=1e-14)
        assert s.mean == pytest.approx(1.0 / (4.0 * np.sqrt(3.0)), rel=1e-14)

    def test_n4_sign_flip(self):
        s = curvature_summary(4)
        assert (s.mult_plus, s.mult_minus) == (9, 6)
        assert s.gauss_kronecker > 0.0  # (n^2-n)/2 = 6 is even
        assert s.gauss_kronecker == pytest.approx(2.0**-15, rel=1e-14)
        assert s.gauss_kronecker == pytest.approx(3.0517578e-5, rel=1e-7)
        assert s.mean == pytest.approx(0.1, rel=1e-14)

    def test_multiplicities_fill_tangent_space(self):
        for n in range(2, 7):
            s = curvature_summary(n)
            assert s.mult_plus + s.mult_minus == n * n - 1

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            curvature_summary(1)


class TestCurvaturesAt:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_identity_matches_closed_forms(self, n):
        values, gauss_kronecker, mean = curvatures_at(np.eye(n))
        expect = np.concatenate([np.full(m, kappa) for kappa, m in principal_curvatures_identity(n)])
        assert np.max(np.abs(values - expect)) <= 1e-15
        summary = curvature_summary(n)
        assert gauss_kronecker == pytest.approx(summary.gauss_kronecker, rel=1e-14)
        assert mean == pytest.approx(summary.mean, rel=1e-14)

    def test_diagonal_point_by_hand(self):
        # a = diag(2, 1/2): u = (2, 1/2), |u| = r = sqrt(17)/2; the pair gives
        # +-u1 u2/r = +-1/r, and the block diag(4, 1/4) on u's complement (-1/2, 2)/r
        # gives (4 (1/4) + (1/4) 4)/r^2 / r = 2/r^3; K = -2/r^5 and H = 2/(3 r^3)
        r = np.sqrt(17.0) / 2.0
        values, gauss_kronecker, mean = curvatures_at(np.diag([2.0, 0.5]))
        assert values == pytest.approx([1.0 / r, 2.0 / r**3, -1.0 / r], rel=1e-15)
        assert gauss_kronecker == pytest.approx(-2.0 / r**5, rel=1e-15)
        assert mean == pytest.approx(2.0 / (3.0 * r**3), rel=1e-15)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="not 1"):
            curvatures_at(np.diag([2.0, 2.0]))

    def test_one_by_one_rejected(self):
        # SL(1) is a point, with no tangent space and so no curvature
        with pytest.raises(ValueError, match="n >= 2"):
            curvatures_at(np.eye(1))


class TestFundamentalForms:
    def test_nilpotent(self):
        first, second = fundamental_forms(basis_matrix(2, 0, 1))
        assert (first, second) == (1.0, 0.0)

    def test_traceless_diagonal(self):
        first, second = fundamental_forms(np.diag([1.0, -1.0]))
        assert first == 2.0
        assert second == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_skew(self):
        first, second = fundamental_forms(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert first == 2.0
        assert second == pytest.approx(-np.sqrt(2.0), rel=1e-15)

    def test_nonzero_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            fundamental_forms(np.eye(2))


class TestRandomSL:
    def test_determinant_one(self):
        for n in (2, 3, 4):
            for seed in range(50):
                a = random_sl(n, seed)
                assert abs(determinant(a) - 1.0) <= 1e-9

    def test_deterministic(self):
        assert np.array_equal(random_sl(2, 7), random_sl(2, 7))

    def test_images_have_positive_det(self):
        for seed in range(100):
            assert determinant(gauss_map(random_sl(3, seed))) > 0.0


class TestRandomSpecialOrthogonal:
    def test_rotation_form_n2(self):
        for seed in range(20):
            q = random_special_orthogonal(2, seed)
            assert abs(q[0, 0] - q[1, 1]) <= 1e-12
            assert abs(q[0, 1] + q[1, 0]) <= 1e-12

    def test_orthonormal(self):
        for n in (2, 3, 4):
            for seed in range(100):
                q = random_special_orthogonal(n, seed)
                assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12

    def test_special(self):
        for n in (2, 3, 4):
            for seed in range(30):
                assert determinant(random_special_orthogonal(n, seed)) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_deterministic(self):
        assert np.array_equal(random_special_orthogonal(3, 11), random_special_orthogonal(3, 11))


@pytest.mark.parametrize(
    "fn, base",
    [
        pytest.param(fn, base, id=fn.__name__)
        for fn, base in [
            (gauss_map, np.eye(3)),
            (spherical_image_contains, np.eye(3) / np.sqrt(3.0)),
            (gauss_map_preimage, np.eye(3) / np.sqrt(3.0)),
            (weingarten_identity, np.diag([1.0, -1.0, 0.0])),
            (sym_skew_decompose, np.diag([1.0, -1.0, 0.0])),
            (fundamental_forms, np.diag([1.0, -1.0, 0.0])),
            (curvatures_at, np.eye(3)),
        ]
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_rejected(fn, base, bad):
    # base meets fn's precondition; one non-finite off-diagonal entry must not
    m = base.copy()
    m[0, 1] = bad
    with pytest.raises(ValueError):
        fn(m)
