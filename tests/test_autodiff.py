import numpy as np
import pytest

from slcurv.autodiff import HyperDual, _jet, gradient, hessian, ipow
from slcurv.fields import ScalarField, determinant_field, expression_field, quadric_field
from slcurv.linalg import det_inverse
from slcurv.slgroup import random_sl

from conftest import fd_gradient, hyperdual_jet


def random_hyperdual(rng):
    return HyperDual(*rng.uniform(-2, 2, size=4))


class TestHyperDual:
    def test_product_rule_d12(self, rng):
        for _ in range(50):
            a, b = random_hyperdual(rng), random_hyperdual(rng)
            prod = a * b
            assert prod.value == a.value * b.value
            assert prod.d1 == a.value * b.d1 + a.d1 * b.value
            assert prod.d12 == a.value * b.d12 + a.d1 * b.d2 + a.d2 * b.d1 + a.d12 * b.value
            # sums commute exactly, products exactly up to the mixed slot,
            # whose four terms are added in another order
            swapped = b * a
            for slot in ("value", "d1", "d2", "d12"):
                assert getattr(a + b, slot) == getattr(b + a, slot)
            for slot in ("value", "d1", "d2"):
                assert getattr(prod, slot) == getattr(swapped, slot)

    def test_specializes_to_dual(self, rng):
        # d2 = d12 = 0 stays zero, and the d1 slot follows dual-number arithmetic
        for _ in range(50):
            av, ad, bv, bd = rng.uniform(-2, 2, size=4)
            out = HyperDual(av, ad) * HyperDual(bv, bd) + HyperDual(av, ad)
            assert out.value == av * bv + av
            assert out.d1 == (av * bd + ad * bv) + ad
            assert out.d2 == 0.0 and out.d12 == 0.0
        # float interop
        x = HyperDual(3.0, 1.0)
        y = 2.0 * x + 1.0 - x / 2.0
        assert (y.value, y.d1, y.d2, y.d12) == (5.5, 1.5, 0.0, 0.0)
        # integer powers, non-negative only
        x = HyperDual(2.0, 1.0)
        y = x**3
        assert (y.value, y.d1) == (8.0, 12.0)
        for k in (-1, 2.0):
            with pytest.raises(ValueError):
                x**k

    def test_reciprocal_second_order(self, rng):
        # 1/x for x = 2 + e1 + e2: d12 of 1/x is 2/x^3 = 0.25
        inv = 1.0 / HyperDual(2.0, 1.0, 1.0, 0.0)
        assert inv.value == 0.5
        assert inv.d1 == -0.25 and inv.d2 == -0.25
        assert inv.d12 == pytest.approx(0.25, rel=1e-15)
        # division inverts multiplication
        for _ in range(50):
            a, b = random_hyperdual(rng), random_hyperdual(rng)
            if abs(b.value) < 1e-3:
                continue
            q = (a * b) / b
            assert q.value == pytest.approx(a.value, rel=1e-14)
            for slot in ("d1", "d2", "d12"):
                assert getattr(q, slot) == pytest.approx(getattr(a, slot), rel=1e-12, abs=1e-13)

    def test_distributivity(self, rng):
        for _ in range(100):
            a, b, c = (random_hyperdual(rng) for _ in range(3))
            lhs = a * (b + c)
            rhs = a * b + a * c
            for slot in ("value", "d1", "d2", "d12"):
                x, y = getattr(lhs, slot), getattr(rhs, slot)
                assert abs(x - y) <= 1e-14 * (1.0 + abs(y))

    def test_division_by_zero_real_part(self):
        with pytest.raises(ZeroDivisionError):
            HyperDual(1.0) / HyperDual(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            1.0 / HyperDual(0.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            HyperDual(1.0, 1.0) / 0.0


def test_ipow_zero_gives_one():
    assert ipow(HyperDual(3.0, 1.0), 0) == 1.0
    assert ipow(HyperDual(3.0, np.ones(2), np.ones(2), np.zeros((2, 2))), 0) == 1.0
    assert ipow(5.0, 0) == 1.0


class TestGradient:
    def test_det2_at_identity(self):
        grad = gradient(determinant_field(2), [1.0, 0.0, 0.0, 1.0])
        assert np.array_equal(grad, [1.0, 0.0, 0.0, 1.0])

    def test_quadric(self):
        grad = gradient(quadric_field([1.0, 1.0]), [3.0, 4.0])
        assert np.array_equal(grad, [6.0, 8.0])

    def test_det3_matches_adjugate_scaling(self, rng):
        # gradient of det at A is det(A) * (A^{-1})^t, flattened
        field = determinant_field(3)
        checked = 0
        while checked < 20:
            a = rng.uniform(-1, 1, size=(3, 3))
            try:
                det, inv = det_inverse(a)
            except Exception:
                continue
            if abs(det) < 0.1 or abs(det) > 10:
                continue
            grad = gradient(field, a.ravel())
            expect = det * inv.T.ravel()
            assert np.max(np.abs(grad - expect)) <= 1e-12 * (1.0 + np.max(np.abs(expect)))
            checked += 1

    def test_matches_central_differences(self, rng):
        fields = [
            determinant_field(2),
            determinant_field(3),
            quadric_field([1.0, -2.0, 0.5]),
        ]
        for _ in range(100):
            field = fields[rng.integers(len(fields))]
            p = rng.uniform(-1, 1, size=field.arity)
            grad = gradient(field, p)
            approx = fd_gradient(field, p, h=1e-6)
            bound = 1e-6 * (1.0 + np.max(np.abs(grad)))
            assert np.max(np.abs(grad - approx)) <= bound

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            gradient(determinant_field(2), [1.0, 0.0, 0.0])


class TestHessian:
    def test_det2_at_identity(self):
        # f = ad - bc in coordinates (a, b, c, d): only cross terms survive
        hess = hessian(determinant_field(2), [1.0, 0.0, 0.0, 1.0])
        expect = np.zeros((4, 4))
        expect[0, 3] = expect[3, 0] = 1.0
        expect[1, 2] = expect[2, 1] = -1.0
        assert np.array_equal(hess, expect)

    def test_quadric_constant_hessian(self, rng):
        field = quadric_field([1.0, 1.0])
        for _ in range(5):
            p = rng.uniform(-3, 3, size=2)
            assert np.array_equal(hessian(field, p), 2.0 * np.eye(2))

    def test_det3_identity_action(self, rng):
        # Hessian of det at I maps vec(H) to vec(tr(H) I - H^t)
        hess = hessian(determinant_field(3), np.eye(3).ravel())
        for _ in range(10):
            h = rng.uniform(-1, 1, size=(3, 3))
            expect = np.trace(h) * np.eye(3) - h.T
            assert np.max(np.abs(hess @ h.ravel() - expect.ravel())) <= 1e-12

    def test_det3_identity_against_finite_differences(self):
        from slcurv.surfaces import fd_hessian_oracle

        field = determinant_field(3)
        p = np.eye(3).ravel()
        approx = fd_hessian_oracle(field, p, 1e-5)
        assert np.max(np.abs(hessian(field, p) - approx)) <= 1e-6

    def test_bitwise_symmetric(self, rng):
        field = determinant_field(3)
        for _ in range(5):
            hess = hessian(field, rng.uniform(-1, 1, size=9))
            assert np.array_equal(hess, hess.T)

    def test_one_pass_matches_per_pair_passes(self, rng):
        # the one vector-mode pass runs, entry by entry, the float operations
        # of N scalar first-order passes and N(N+1)/2 scalar mixed passes
        def per_pair(field, p):
            n = p.size
            grad, hess = np.empty(n), np.empty((n, n))
            for i in range(n):
                grad[i] = field([HyperDual(p[k], float(k == i)) for k in range(n)]).d1
                for j in range(i, n):
                    out = field([HyperDual(p[k], float(k == i), float(k == j)) for k in range(n)])
                    hess[i, j] = hess[j, i] = out.d12
            return grad, hess

        cases = [(determinant_field(n), random_sl(n, 30 + n).ravel()) for n in (2, 3, 4, 5)]
        divides = expression_field("(x1 + x2)^3 / (1 + x3^2) - 2*x2^2/(x1*x3) + 1/x2", 3)
        cases += [(divides, rng.uniform(0.5, 1.5, size=3)) for _ in range(5)]
        for field, p in cases:
            grad, hess = per_pair(field, p)
            assert gradient(field, p).tobytes() == grad.tobytes()
            assert hessian(field, p).tobytes() == hess.tobytes()

    def test_det_matches_jacobi_formula(self):
        # Jacobi's formula, independent of AD: grad det(A) = det(A) A^{-t} and
        # D^2 det(A)[H, K] = det(A) (tr(A^{-1}H) tr(A^{-1}K) - tr(A^{-1}H A^{-1}K))
        for n in range(2, 9):
            field = determinant_field(n)
            for seed in range(3):
                a = random_sl(n, 500 + 10 * n + seed)
                det, inv = det_inverse(a)
                b = inv.T.ravel()  # tr(A^{-1} E_ab) = inv[b, a]
                expect = det * (np.outer(b, b) - np.einsum("bc,da->abcd", inv, inv).reshape(n * n, n * n))
                scale = np.max(np.abs(expect))
                # worst measured: 6.5e-16 (Hessian) and 7.6e-16 (gradient)
                assert np.max(np.abs(hessian(field, a.ravel()) - expect)) <= 5e-15 * scale
                assert np.max(np.abs(gradient(field, a.ravel()) - det * b)) <= 5e-15 * np.max(np.abs(b))


def _expression_bodies(n, rng):
    """Quadratic, quartic, division, linear and constant-output expression texts over x1..xn."""
    x = [f"x{k % n + 1}" for k in range(n + 3)]
    quadratic = " + ".join(
        f"{rng.integers(1, 4)}*{x[k]}^2 - {x[k]}*{x[k + 1]}/{rng.integers(4, 10)}" for k in range(n)
    )
    quartic = quadratic + "".join(f" - ({x[k]} + {x[k + 3]})^4/{rng.integers(2, 5)}" for k in range(0, n, 2))
    division = (
        f"({x[0]}*{x[1]} - 2*{x[2]})^2 / (1 + {x[0]}*{x[2]} + {x[1]}^2)"
        f" - 2*{x[1]}^2/({x[0]}*{x[2]}) + 1/{x[n - 1]}"
    )
    return [quadratic, quartic, division, f"1 - {x[0]} - 0.5*{x[1]}", "2*x1^0 + 3"]


def _jet_or_error(jet, field, p):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return jet(field, p)
    except ZeroDivisionError as exc:
        return str(exc)


def test_jet_bitwise_equal_to_hyperdual_pass():
    # the _Jet ring against the HyperDual pass, N = 1..24, at finite points and at
    # points with signed zeros, infinities, NaNs and 1e200. Bits are compared except
    # the payload of a NaN: which operand's NaN an IEEE operation returns is left
    # open, and numpy's SIMD loops choose it by position in the array.
    rng = np.random.default_rng(13)
    for n in range(1, 25):
        fields = [expression_field(text, n) for text in _expression_bodies(n, rng)]
        fields.append(quadric_field(rng.uniform(-3.0, 3.0, size=n)))
        fields.append(ScalarField(n, lambda a: a[0] ** 3 - 0.5 / (a[-1] ** 2 + 1.0)))
        base = rng.uniform(-2.0, 2.0, size=n)
        points = [base, np.zeros(n), np.full(n, -0.0)]
        for special in (0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200):
            p = base.copy()
            p[rng.integers(n)] = special
            points.append(p)
        for field in fields:
            for p in points:
                got, want = _jet_or_error(_jet, field, p), _jet_or_error(hyperdual_jet, field, p)
                if isinstance(want, str):
                    assert got == want
                    continue
                for x, y in zip(got, want):
                    nan = np.isnan(y)
                    assert np.array_equal(np.isnan(x), nan)
                    assert np.where(nan, 0.0, x).tobytes() == np.where(nan, 0.0, y).tobytes()



@pytest.mark.parametrize(
    "text, grad",
    [("-x1", [-1.0, 0.0]), ("x1 - 1", [1.0, 0.0]), ("1 - x1", [-1.0, 0.0]), ("-(x1*x2) - 2", [1.5, -0.75])],
)
def test_scalar_subtraction_and_negation_bitwise(text, grad):
    # negation, and subtraction of and from a float, which no other test runs through
    # both the _Jet ring and the HyperDual pass; squared, the value and d2 slots reach
    # the jet too
    for body in (text, f"({text})^2"):
        field = expression_field(body, 2)
        for p in ([0.75, -1.5], [0.0, -0.0], [-0.0, 1e100]):
            got, want = _jet(field, np.array(p)), hyperdual_jet(field, p)
            for x, y in zip(got, want):
                assert x.tobytes() == y.tobytes()
    assert _jet(expression_field(text, 2), np.array([0.75, -1.5]))[0].tolist() == grad

def test_jet_runs_the_recipe_on_the_body():
    # _jet takes a body's _jet_recipe in place of the ring and fills the lower triangle
    def body(a):
        return a[0] * a[1]

    body._jet_recipe = lambda p: (p * 10.0, np.array([[1.0, 2.0], [0.0, 3.0]]))
    grad, hess = _jet(ScalarField(2, body), np.array([1.0, 2.0]))
    assert grad.tolist() == [10.0, 20.0]
    assert hess.tolist() == [[1.0, 2.0], [2.0, 3.0]]
