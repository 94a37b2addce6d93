import math
import warnings

import numpy as np
import pytest

from slcurv.fields import determinant_field
from slcurv.linalg import (
    NonSymmetricMatrixError,
    SingularMatrixError,
    cluster_multiplicities,
    complement_basis,
    det_inverse,
    determinant,
    frobenius_norm,
    jacobi_eigh,
)
from slcurv.slgroup import principal_curvatures_identity
from slcurv.surfaces import ImplicitHypersurface, weingarten_matrix


EPS = np.finfo(float).eps


def doolittle(a):
    """The Python-loop Doolittle LU with partial pivoting that LAPACK's replaced,
    kept as the reference: (determinant, inverse), raising on a pivot below 1e-300."""
    n = a.shape[0]
    lu, perm, sign = a.copy(), np.arange(n), 1.0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[piv, k]) < 1e-300:
            raise SingularMatrixError(f"pivot below 1e-300 in column {k}")
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
            sign = -sign
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    x = np.eye(n)[perm]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1 :] @ x[k + 1 :]
        x[k] /= lu[k, k]
    return float(sign * np.prod(np.diag(lu))), x


def conditioned(rng, n, cond):
    """A random n x n matrix whose singular values run geometrically from 1 to 1/cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * np.geomspace(1.0, 1.0 / cond, n)) @ q2.T


def assert_matches_eigh(a, spec):
    # eigenvalues within 1e-13 * max(1, max|lambda|) of LAPACK, descending
    expect = np.linalg.eigh(a)[0][::-1]
    scale = max(1.0, float(np.max(np.abs(expect))))
    assert np.max(np.abs(spec.values - expect)) <= 1e-13 * scale


class TestDetInverse:
    def test_diagonal(self):
        det, inv = det_inverse(np.diag([2.0, 0.5]))
        assert det == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(inv, np.diag([0.5, 2.0]), atol=1e-15)

    def test_unipotent(self):
        det, inv = det_inverse([[1.0, 1.0], [0.0, 1.0]])
        assert det == 1.0
        assert np.allclose(inv, [[1.0, -1.0], [0.0, 1.0]], atol=1e-15)

    def test_against_cofactor_oracle(self, rng):
        field = determinant_field(4)
        for _ in range(100):
            a = rng.uniform(-1, 1, size=(4, 4))
            oracle = float(field(list(a.ravel())))
            if abs(oracle) < 1e-6:
                continue
            det, inv = det_inverse(a)
            assert det == pytest.approx(oracle, abs=1e-10)
            if frobenius_norm(a) * frobenius_norm(inv) < 1e4:  # residual bound needs conditioning
                assert frobenius_norm(a @ inv - np.eye(4)) <= 1e-10 * 4

    def test_det_times_det_of_inverse(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a = rng.uniform(-1, 1, size=(n, n))
            try:
                det, inv = det_inverse(a)
            except SingularMatrixError:
                continue
            if abs(det) < 1e-3:
                continue
            det_inv = det_inverse(inv)[0]
            assert det * det_inv == pytest.approx(1.0, rel=1e-9)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            det_inverse(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_inverse(np.ones((2, 3)))


class TestLapackLU:
    @pytest.mark.parametrize("cond", [None, 1e4, 1e10], ids=["uniform", "cond1e4", "cond1e10"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_doolittle_reference(self, rng, n, cond):
        # both LUs are backward stable, so they agree within a bound that grows
        # with n * cond(A); the measured worst is about 2 * n * eps * cond(A)
        for _ in range(10):
            a = rng.uniform(-1, 1, size=(n, n)) if cond is None else conditioned(rng, n, cond)
            bound = 16 * n * EPS * np.linalg.cond(a)
            det_ref, inv_ref = doolittle(a)
            det, inv = det_inverse(a)
            assert determinant(a) == det
            assert abs(det - det_ref) <= bound * abs(det_ref)
            assert np.max(np.abs(inv - inv_ref)) <= bound * np.max(np.abs(inv_ref))
            assert np.max(np.abs(a @ inv - np.eye(n))) <= bound

    @pytest.mark.parametrize(
        "a",
        [np.zeros((3, 3)), [[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]]],
        ids=["zero", "rank1", "rank2"],
    )
    def test_exactly_singular(self, a):
        # elimination meets an exactly zero pivot
        assert determinant(a) == 0.0
        with pytest.raises(SingularMatrixError):
            det_inverse(a)

    def test_non_finite_inverse_is_singular(self):
        # LAPACK factors a subnormal pivot, but its reciprocal overflows
        with pytest.raises(SingularMatrixError, match="finite"):
            det_inverse(1e-320 * np.eye(2))

    def test_no_pivot_floor(self):
        # a nonsingular matrix near 1e-301 is factored, and exactly: power-of-two
        # scaling commutes with every pivot, multiplier and substitution step
        a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.5, 1.0, 4.0]])
        det, inv = det_inverse(np.ldexp(a, -1000))
        assert inv.tobytes() == np.ldexp(det_inverse(a)[1], 1000).tobytes()
        assert det == 0.0  # 2^-3000 det(A) underflows

    @pytest.mark.parametrize("fn", [determinant, det_inverse])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, fn, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="finite") as info:
            fn(a)
        assert type(info.value) is ValueError


def test_determinant_of_singular_is_zero():
    assert determinant(np.zeros((2, 2))) == 0.0
    assert determinant([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(0.0, abs=1e-15)


class TestFrobeniusNorm:
    def test_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_diagonal(self):
        assert frobenius_norm(np.diag([0.5, 2.0])) == pytest.approx(np.sqrt(17.0) / 2.0, rel=1e-15)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0


class TestComplementBasis:
    def test_axis_vector_exact(self):
        t = complement_basis(np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(t, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_identity_flattening(self):
        g = np.array([1.0, 0.0, 0.0, 1.0])
        t = complement_basis(g)
        assert t.shape == (4, 3)
        assert np.max(np.abs(t.T @ t - np.eye(3))) <= 1e-14
        assert np.max(np.abs(t.T @ g)) <= 1e-14

    def test_random_unit_vector_dim9(self, rng):
        g = rng.standard_normal(9)
        g /= np.linalg.norm(g)
        t = complement_basis(g)
        assert np.max(np.abs(t.T @ t - np.eye(8))) <= 1e-13
        assert np.max(np.abs(t.T @ g)) <= 1e-13

    def test_property_orthonormal_and_orthogonal(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 17))
            g = rng.uniform(-1, 1, size=n)
            if np.linalg.norm(g) < 1e-6:
                continue
            t = complement_basis(g)
            assert np.max(np.abs(t.T @ t - np.eye(n - 1))) <= 1e-12
            assert np.max(np.abs(t.T @ g)) <= 1e-12 * np.linalg.norm(g)

    def test_deterministic(self, rng):
        g = rng.uniform(-1, 1, size=7)
        assert np.array_equal(complement_basis(g), complement_basis(g.copy()))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            complement_basis(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_vector_rejected(self, bad):
        # rather than a basis of NaN columns
        with pytest.raises(ValueError, match="non-finite"):
            complement_basis(np.array([bad, 0.0, 0.0]))

    def test_no_absolute_floor(self):
        # a tiny g is a direction like any other
        g = np.array([3.0, -4.0, 12.0])
        assert complement_basis(1e-300 * g) == pytest.approx(complement_basis(g), abs=1e-15)


class TestJacobiEigh:
    def test_diagonal(self):
        spec = jacobi_eigh(np.diag([2.0, 1.0]))
        assert np.array_equal(spec.values, [2.0, 1.0])

    def test_exchange_matrix(self):
        spec = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.values, [1.0, -1.0], atol=1e-14)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_nan_or_negative_tol_rejected(self, tol):
        # neither tolerance can be met, so it is rejected before the first sweep
        with pytest.raises(ValueError, match="tol"):
            jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]), tol=tol)

    def test_sl2_weingarten_spectrum(self):
        # cross-module: the 3x3 shape operator of SL(2) at the identity
        from slcurv.fields import determinant_field
        from slcurv.surfaces import ImplicitHypersurface, weingarten_matrix

        surface = ImplicitHypersurface(field=determinant_field(2), level=1.0)
        w, _ = weingarten_matrix(surface, np.array([1.0, 0.0, 0.0, 1.0]))
        spec = jacobi_eigh(w)
        kappa = 2.0**-0.5
        assert np.max(np.abs(spec.values - [kappa, kappa, -kappa])) <= 1e-9

    def test_reconstruction_up_to_dim_36(self, rng):
        for n in (2, 5, 12, 24, 36):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            spec = jacobi_eigh(a)
            recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
            norm = frobenius_norm(a)
            assert frobenius_norm(a - recon) <= 1e-9 * norm
            assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(n))) <= 1e-10
            assert np.all(np.diff(spec.values) <= 0)

    def test_non_symmetric_rejected(self):
        # the symmetry gate is relative to A, at any scale
        for scale in (1.0, 1e-10, 1e200):
            with pytest.raises(NonSymmetricMatrixError):
                jacobi_eigh(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_matrix(self):
        spec = jacobi_eigh(np.zeros((4, 4)))
        assert np.array_equal(spec.values, np.zeros(4))
        assert np.array_equal(spec.vectors, np.eye(4))

    def test_diagonal_input_untouched(self):
        values = np.array([3.5, 1.0, 0.0, -2.0, -7.25])
        spec = jacobi_eigh(np.diag(values))
        assert np.array_equal(spec.values, values)
        assert np.array_equal(spec.vectors, np.eye(5))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 23, 24, 36])
    def test_matches_lapack(self, rng, n):
        # at odd sizes each round of the round-robin schedule leaves one index out
        for _ in range(3):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            spec = jacobi_eigh(a)
            assert_matches_eigh(a, spec)
            assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(n))) <= 1e-10

    def test_clustered_spectrum(self, rng):
        # a random orthogonal conjugate of a spectrum with three repeated values
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        a = q @ np.diag([2.0, 2.0, 2.0, 0.5, 0.5, -1.0, -1.0, -1.0, -1.0]) @ q.T
        a = 0.5 * (a + a.T)
        spec = jacobi_eigh(a)
        assert_matches_eigh(a, spec)
        assert [m for _, m in cluster_multiplicities(spec.values)] == [3, 2, 4]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sl_identity_weingarten_multiplicities(self, n):
        surface = ImplicitHypersurface(field=determinant_field(n), level=1.0)
        w, _ = weingarten_matrix(surface, np.eye(n).ravel())
        spec = jacobi_eigh(w)
        assert_matches_eigh(w, spec)
        exact = principal_curvatures_identity(n)
        assert [m for _, m in cluster_multiplicities(spec.values)] == [m for _, m in exact]

    def test_subnormal_scale_threshold(self):
        # the sweeps see A / 8, so that max|a_ij| is in [0.5, 1): (2, 3) and (0, 2)
        # start about 1e-154 and 1e-152 times their diagonal gaps, where
        # tau = gap / (2 a_pq) would pass 1e152; the angle
        # 1/2 atan2(2 a_pq sign(gap), |gap|) stays tiny and finite instead
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        a[0, 1] = a[1, 0] = 0.5
        a[2, 3] = a[3, 2] = 3e-154
        a[0, 2] = a[2, 0] = 2e-152
        spec = jacobi_eigh(a)
        assert np.all(np.isfinite(spec.values)) and np.all(np.isfinite(spec.vectors))
        assert_matches_eigh(a, spec)
        recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
        assert frobenius_norm(a - recon) <= 1e-9 * frobenius_norm(a)
        assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(4))) <= 1e-10

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_odd_size_pad_never_leaks(self, rng, n):
        # an odd size schedules a dummy index whose pairs are dropped; on a
        # negative-definite matrix a 0 from it would be the largest value if it leaked
        b = rng.standard_normal((n, n))
        a = -(b @ b.T + n * np.eye(n))
        spec = jacobi_eigh(a)
        assert spec.values.shape == (n,) and spec.vectors.shape == (n, n)
        assert np.all(spec.values < 0.0)
        assert_matches_eigh(a, spec)
        assert np.max(np.abs(spec.vectors.T @ spec.vectors - np.eye(n))) <= 1e-10

    def test_block_diagonal_keeps_exact_zeros(self, rng):
        # a pair across two blocks has a_pq = 0, so its rotation is exactly the identity
        a = np.zeros((7, 7))
        for block in (slice(0, 3), slice(3, 7)):
            b = rng.standard_normal((block.stop - block.start,) * 2)
            a[block, block] = b + b.T
        spec = jacobi_eigh(a)
        assert_matches_eigh(a, spec)
        upper, lower = spec.vectors[:3], spec.vectors[3:]
        assert np.all((np.all(upper == 0.0, axis=0)) ^ (np.all(lower == 0.0, axis=0)))
        assert np.sum(np.any(upper != 0.0, axis=0)) == 3

    def test_repeated_values_keep_input_order(self):
        # equal values come back in the input's index order, through the stable sort,
        # while a coupled pair is rotated alongside them
        a = np.diag([2.0, 5.0, 2.0, 5.0, 2.0, 0.0, 0.0])
        a[5, 6] = a[6, 5] = 1.0
        spec = jacobi_eigh(a)
        assert np.array_equal(spec.values[:5], [5.0, 5.0, 2.0, 2.0, 2.0])
        assert np.array_equal(spec.vectors[:, :5], np.eye(7)[:, [1, 3, 0, 2, 4]])
        assert spec.values[5:] == pytest.approx([1.0, -1.0], abs=1e-15)

    @pytest.mark.parametrize("power", [-1000, -520, 520, 1000])
    def test_spectrum_scales_exactly(self, power):
        # no threshold is absolute, so 2^power A has the spectrum of A times
        # 2^power, bitwise, and the same vectors: near 1e-157 (2^-520) A is not
        # returned as its own diagonal, nor near 1e157, where |A|_F^2 overflows
        a = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
        base, scaled = jacobi_eigh(a), jacobi_eigh(np.ldexp(a, power))
        assert scaled.values.tobytes() == np.ldexp(base.values, power).tobytes()
        assert scaled.vectors.tobytes() == base.vectors.tobytes()
        tiny = jacobi_eigh(1e-160 * np.array([[0.0, 1.0], [1.0, 0.0]])).values
        assert tiny == pytest.approx([1e-160, -1e-160], rel=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(ValueError, match="finite") as info:
            jacobi_eigh(a)
        assert type(info.value) is ValueError

    def test_value_out_of_range_is_inf_without_warning(self):
        # a finite matrix whose eigenvalue 2e308 is out of range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = jacobi_eigh(np.full((2, 2), 1e308)).values
        assert values[0] == np.inf
        assert np.isfinite(values[1])


class TestClusterMultiplicities:
    def test_two_clusters(self):
        kappa = 0.7071
        out = cluster_multiplicities([kappa, kappa, -kappa], 1e-6)
        assert out == [(pytest.approx(kappa), 2), (pytest.approx(-kappa), 1)]

    def test_single_cluster(self):
        assert cluster_multiplicities([5.0, 5.0, 5.0], 1e-6) == [(5.0, 3)]

    def test_greedy_boundary(self):
        out = cluster_multiplicities([1.0, 0.9999999, 0.0], 1e-6)
        assert out == [(pytest.approx(0.99999995), 2), (0.0, 1)]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            cluster_multiplicities([0.0, 1.0], 1e-6)

    def test_non_finite_values_do_not_warn(self):
        # the order test compares neighbours; a difference of infinities would warn
        inf, nan = math.inf, math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cluster_multiplicities([inf, inf]) == [(inf, 2)]
            assert cluster_multiplicities([inf, 1.0, -inf]) == [(inf, 1), (1.0, 1), (-inf, 1)]
            [(mean, size)] = cluster_multiplicities([1.0, nan])
            assert math.isnan(mean) and size == 2
            with pytest.raises(ValueError, match="descending"):
                cluster_multiplicities([-inf, inf])

    def test_means_bitwise_equal_to_numpy_mean(self, rng):
        # every cluster's value is numpy's mean of its members, a single -0.0 included
        def reference(values, tol):
            out, start = [], 0
            for i in range(1, values.size + 1):
                if i == values.size or abs(values[i] - values[start]) > tol:
                    out.append((float(values[start:i].mean()), i - start))
                    start = i
            return out

        for _ in range(200):
            values = rng.choice([-0.0, 0.0, 1e-7, -1e-7, 0.5, -1.0, 2.0], size=rng.integers(0, 9))
            values = np.sort(values + rng.choice([0.0, 1e-3], size=values.size) * rng.normal(size=values.size))
            for tol in (0.0, 1e-6, 0.5):
                got, want = cluster_multiplicities(values[::-1], tol), reference(values[::-1], tol)
                assert [(v.hex(), m) for v, m in got] == [(v.hex(), m) for v, m in want]
        assert math.copysign(1.0, cluster_multiplicities([-0.0], 0.0)[0][0]) == 1.0

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="cluster_tol"):
            cluster_multiplicities([1.0, 1.0, 0.0], tol)

    def test_infinite_tolerance_is_one_cluster(self):
        assert cluster_multiplicities([1.0, 1.0, 0.0], math.inf) == [(pytest.approx(2.0 / 3.0), 3)]

    def test_means_of_finite_values_are_finite(self):
        # the sums of these clusters overflow; their means are representable
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cluster_multiplicities([1.7e308, 1.7e308, 1.7e308, 0.0, -1.2e308, -1.2e308])
        assert got == [(pytest.approx(1.7e308, rel=1e-15), 3), (0.0, 1), (-1.2e308, 2)]
