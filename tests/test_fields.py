import dataclasses

import numpy as np
import pytest

from slcurv.autodiff import HyperDual, _jet
from slcurv.fields import (
    _MAX_DEPTH,
    _MAX_EXPONENT,
    Const,
    ParseError,
    Pow,
    ScalarField,
    Var,
    determinant_field,
    evaluate,
    parse_expression,
    quadric_field,
    sphere_field,
)
from slcurv.linalg import det_inverse
from slcurv.slgroup import random_sl

from conftest import hyperdual_jet


def laplace_det(a, n, rows, cols):
    """The recursive Laplace expansion along the first row that the minor table
    replaced, which recomputes shared minors; kept as the bitwise reference."""
    if len(rows) == 1:
        return a[rows[0] * n + cols[0]]
    acc = None
    for j, c in enumerate(cols):
        term = a[rows[0] * n + c] * laplace_det(a, n, rows[1:], cols[:j] + cols[j + 1 :])
        if acc is None:
            acc = term
        elif j % 2 == 0:
            acc = acc + term
        else:
            acc = acc - term
    return acc


class Counted:
    """A float that counts, in a shared tally, the ring multiplications made with it."""

    def __init__(self, value, tally):
        self.value, self.tally = value, tally

    def __add__(self, other):
        return Counted(self.value + other.value, self.tally)

    def __sub__(self, other):
        return Counted(self.value - other.value, self.tally)

    def __mul__(self, other):
        self.tally[0] += 1
        return Counted(self.value * other.value, self.tally)


class TestDeterminantField:
    def test_identity_2x2(self):
        assert determinant_field(2)([1.0, 0.0, 0.0, 1.0]) == 1.0

    def test_diagonal_3x3(self):
        field = determinant_field(3)
        value = field(list(np.diag([2.0, 3.0, 1.0 / 6.0]).ravel()))
        assert value == pytest.approx(2.0 * 3.0 * (1.0 / 6.0), rel=1e-15)

    def test_dual_cofactor_slot(self):
        # seeding entry (0, 1) of I2: d(det)/da01 = cof(0, 1) = 0 at the identity
        field = determinant_field(2)
        args = [HyperDual(1.0), HyperDual(0.0, 1.0), HyperDual(0.0), HyperDual(1.0)]
        out = field(args)
        assert out.value == 1.0
        assert out.d1 == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            determinant_field(0)
        with pytest.raises(ValueError):
            determinant_field(9)

    def test_agrees_with_lu_determinant(self, rng):
        for n in (2, 3, 4, 5):
            field = determinant_field(n)
            for _ in range(25):
                a = rng.uniform(-1, 1, size=(n, n))
                oracle = float(field(list(a.ravel())))
                det, _ = det_inverse(a)
                assert det == pytest.approx(oracle, rel=1e-10, abs=1e-12)

    def test_bitwise_equal_to_laplace_recursion(self):
        # the minor table runs the recursion's float operations in its order; the
        # generic pass over the recursion is too slow for jets past n = 6
        for n in range(1, 9):
            field = determinant_field(n)
            idx = tuple(range(n))
            reference = ScalarField(arity=n * n, body=lambda a: laplace_det(a, n, idx, idx))
            for seed in range(6):
                p = (random_sl(n, 700 + 10 * n + seed) if n > 1 else np.array([[1.0 + seed]])).ravel()
                assert float(field(list(p))).hex() == float(reference(list(p))).hex()
                if n > 6:
                    continue
                for got, want in zip(_jet(field, p), _jet(reference, p)):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_jet_recipe_travels_with_the_body(self, n):
        # the recipe is an attribute of the body, so a field rebuilt from it keeps it;
        # only n = 3..6 carry one, and the other sizes run the ring however rebuilt
        field = determinant_field(n)
        recipe = getattr(field.body, "_jet_recipe", None)
        assert (recipe is not None) == (3 <= n <= 6)
        p = (random_sl(n, 31) if n > 1 else np.array([[2.0]])).ravel()
        want = _jet(field, p)
        for other in (
            dataclasses.replace(field, name="renamed"),
            ScalarField(arity=field.arity, body=field.body, name="rebuilt"),
        ):
            assert getattr(other.body, "_jet_recipe", None) is recipe
            for got, expected in zip(_jet(other, p), want):
                assert got.tobytes() == expected.tobytes()

    def test_jet_recipe_bitwise_equal_to_generic_pass(self):
        # the field's jet, the level-by-level recipe at n = 3..6 and the ring elsewhere,
        # against the HyperDual pass over the same body, including signed zeros,
        # infinities and NaNs
        for n in range(1, 9):
            field = determinant_field(n)
            eye = np.eye(n)
            points = [eye, -eye, np.zeros((n, n)), np.full((n, n), -0.0), eye[::-1]]
            for special in (np.inf, -np.inf, np.nan, 1e200, -0.0):
                for i, j in ((0, 0), (n - 1, n - 1), (0, n - 1)):
                    m = eye.copy()
                    m[i, j] = special
                    points.append(m)
            points += [random_sl(n, seed) if n > 1 else np.array([[2.0 + seed]]) for seed in range(5)]
            for a in points:
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = _jet(field, a.ravel()), hyperdual_jet(field, a.ravel())
                for x, y in zip(got, want):
                    assert x.tobytes() == y.tobytes()

    def test_batched_recipe_bitwise_equal_to_generic_pass_property(self):
        # the recipe runs each level's terms as one batch at n = 3..6, and the ring
        # runs n = 2, 7 and 8; both must match the HyperDual pass bitwise, NaN sign
        # bits included
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        fields = {n: determinant_field(n) for n in range(2, 9)}
        specials = st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 1e200])

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.integers(2, 8),
            st.integers(0, 2**32 - 1),
            st.integers(-160, 160),
            st.none() | st.tuples(st.integers(0, 63), specials),
        )
        @hypothesis.example(5, 0, 0, (0, np.nan))
        @hypothesis.example(8, 0, 150, None)
        def check(n, seed, k, replace):
            p = random_sl(n, seed).ravel() * 2.0**k
            if replace is not None:
                p[replace[0] % p.size] = replace[1]
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = _jet(fields[n], p), hyperdual_jet(fields[n], p)
            for x, y in zip(got, want):
                assert x.tobytes() == y.tobytes()

        check()

    def test_each_minor_computed_once(self, rng):
        # sum over k = 2..n of k * C(n, k) products, one per entry of each k x k minor
        for n in range(2, 9):
            tally = [0]
            a = rng.uniform(-1, 1, size=(n, n))
            value = determinant_field(n)([Counted(x, tally) for x in a.ravel()]).value
            assert tally[0] == n * (2 ** (n - 1) - 1)
            assert value == pytest.approx(np.linalg.det(a), rel=1e-10, abs=1e-12)

    def test_supports_n6(self, rng):
        field = determinant_field(6)
        a = rng.uniform(-1, 1, size=(6, 6))
        det, _ = det_inverse(a)
        assert float(field(list(a.ravel()))) == pytest.approx(det, rel=1e-10, abs=1e-12)


class TestParse:
    def test_det2_equivalence(self, rng):
        tree = parse_expression("x1*x4 - x2*x3", 4)
        field = determinant_field(2)
        for _ in range(100):
            p = list(rng.uniform(-2, 2, size=4))
            a, b = tree.evaluate(p), field(p)
            assert abs(a - b) <= 1e-14 * (1.0 + abs(b))

    def test_sphere(self):
        tree = parse_expression("x1^2 + x2^2 + x3^2", 3)
        assert tree.evaluate([1.0, 2.0, 2.0]) == 9.0

    def test_unclosed_paren_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("x1/(", 1)
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expression("sin(x1)", 1)

    def test_variable_out_of_arity(self):
        with pytest.raises(ParseError, match="exceeds arity"):
            parse_expression("x3 + 1", 2)

    def test_zero_index_variable(self):
        with pytest.raises(ParseError):
            parse_expression("x0", 2)

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_expression("x1^-2", 1)

    def test_non_literal_exponent(self):
        with pytest.raises(ParseError, match="non-negative integer literal"):
            parse_expression("x1^x2", 2)

    def test_precedence(self):
        tree = parse_expression("-x1^2", 1)
        assert tree.evaluate([3.0]) == -9.0
        tree = parse_expression("2*x1^2 + 1", 1)
        assert tree.evaluate([3.0]) == 19.0
        tree = parse_expression("8 - 4 - 2", 1)  # left association
        assert tree.evaluate([0.0]) == 2.0
        tree = parse_expression("8/4/2", 1)
        assert tree.evaluate([0.0]) == 1.0

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("(" * 3000 + "x1" + ")" * 3000, _MAX_DEPTH),
            ("-" * 3000 + "x1", _MAX_DEPTH),
            (" + ".join(["x1"] * 2000), 5 * _MAX_DEPTH + 3),
            ("x1^50000000", 3),
            ("x1^" + "9" * 5000, 3),
        ],
        ids=["nested-parentheses", "unary-minus-chain", "long-sum", "huge-exponent", "huge-literal"],
    )
    def test_depth_and_exponent_caps(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_expression(text, 1)
        assert exc.value.offset == offset

    def test_inputs_at_the_caps_parse(self):
        for text in (
            "(" * _MAX_DEPTH + "x1" + ")" * _MAX_DEPTH,
            "-" * _MAX_DEPTH + "x1",
            " + ".join(["x1"] * (_MAX_DEPTH + 1)),
            f"x1^{_MAX_EXPONENT}",
        ):
            assert parse_expression(text, 1).evaluate([1.0]) != 0.0

    @pytest.mark.parametrize(
        "text, outcome",
        [
            ("x1^2.5", "unexpected character '.' (offset 4)"),
            ("x1 ^ 2", Pow(Var(0), 2)),
            ("x1^ -2", "negative exponents are not allowed (offset 4)"),
            ("x1 ^ .5", "exponent must be a non-negative integer literal (offset 5)"),
            ("1.2.3", "unexpected character '.' (offset 3)"),
            ("x1_2", "unexpected character '_' (offset 2)"),
            ("²", "expected a number, variable, or '(' (offset 0)"),
            ("x²", "unknown identifier 'x²' (offset 0)"),
            ("x1 +é", "unknown identifier 'é' (offset 4)"),
            (".", "malformed number literal (offset 0)"),
            ("\u3000x2", "variable x2 exceeds arity 1 (offset 1)"),
            pytest.param(
                "x1/1" + "0" * 400, "number literal out of floating-point range (offset 3)", id="x1/1e400"
            ),
            pytest.param("9" * 308 + ".5", Const(float("9" * 308)), id="9e307.5"),
        ],
    )
    def test_token_edges(self, text, outcome):
        # offsets are character indices; an exponent takes only its leading digits
        try:
            got = parse_expression(text, 1).root
        except ParseError as exc:
            got = str(exc)
            assert got.endswith(f"(offset {exc.offset})")
        assert got == outcome

    def test_whitespace_insignificant(self):
        a = parse_expression(" x1 + 2 * x2 ", 2)
        b = parse_expression("x1+2*x2", 2)
        assert a == b


class TestEvaluate:
    def test_det2_reals(self):
        assert evaluate(determinant_field(2), [2.0, 0.0, 0.0, 0.5]) == 1.0

    def test_parsed_product_rule(self):
        tree = parse_expression("x1*x2", 2)
        out = tree.evaluate([HyperDual(3.0, 1.0), HyperDual(5.0, 0.0)])
        assert out.value == 15.0
        assert out.d1 == 5.0

    def test_det3_mixed_second_derivative(self):
        # pair (slot 0, slot 4) = entries (0,0) and (1,1): d2(det)/da00 da11 = 1 at I
        field = determinant_field(3)
        eye = np.eye(3).ravel()
        args = [
            HyperDual(eye[k], 1.0 if k == 0 else 0.0, 1.0 if k == 4 else 0.0)
            for k in range(9)
        ]
        out = field(args)
        assert out.value == 1.0
        assert out.d12 == 1.0

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            determinant_field(2)([1.0, 2.0])

    def test_ring_division_error_propagates(self):
        tree = parse_expression("1/x1", 1)
        assert tree.evaluate([4.0]) == 0.25
        with pytest.raises(ZeroDivisionError):
            tree.evaluate([HyperDual(0.0, 1.0)])


ROUND_TRIP_CORPUS = [
    ("x1*x4 - x2*x3", 4),
    ("x1^2 + x2^2 + x3^2", 3),
    ("-x1 + 2*x2 - 3.5", 2),
    ("(x1 + x2)^3 / (1 + x3^2)", 3),
    ("x1/x2", 2),
    ("0.5*x1^4 - x1^2 + 1", 1),
    ("x1*x2*x3*x4*x5", 5),
    ("((x1))", 1),
    ("-(x1 - x2)", 2),
    ("x1^0 + x2^1", 2),
    ("2/(x1^2 + 1)", 1),
    ("1.25", 1),
    ("x1 - x2 - x3", 3),
    ("x1/x2/2", 2),
    ("3*x1^2*x2 - 2*x2^2/(1 + x1^2)", 2),
    (".5*x1", 1),
    ("x2^2 - x1*x3", 3),
    ("(x1 - 1)*(x1 + 1)", 1),
    ("-x1^2", 1),
    ("x1 + x2*x3^2 - x3/(2 + x2^2)", 3),
]


@pytest.mark.parametrize("text,arity", ROUND_TRIP_CORPUS)
def test_unparse_round_trip(text, arity, rng):
    first = parse_expression(text, arity)
    second = parse_expression(first.unparse(), arity)
    assert first == second
    for _ in range(50):
        p = list(rng.uniform(-1, 1, size=arity))
        a, b = first.evaluate(p), second.evaluate(p)
        assert abs(a - b) <= 1e-14 * (1.0 + abs(b))


def test_ring_generic_bitwise():
    # plain-real evaluation must equal the value slot of a hyper-dual
    # evaluation bitwise for division-free fields, with float or array payloads
    rng = np.random.default_rng(5)
    cases = [
        determinant_field(2),
        determinant_field(3),
        quadric_field([1.0, -1.0, 0.25]),
        sphere_field(4),
        parse_expression("3*x1^3 - x2*x1 + 0.125", 2).as_field(),
    ]
    for field in cases:
        for _ in range(20):
            p = rng.uniform(-2, 2, size=field.arity)
            plain = field(list(p))
            hyper = field([HyperDual(x, 1.0, 1.0, 0.0) for x in p])
            eye, zeros = np.eye(p.size), np.zeros((p.size, p.size))
            seeded = field([HyperDual(x, eye[k], eye[k], zeros) for k, x in enumerate(p)])
            assert hyper.value == plain
            assert seeded.value == plain
