import pytest

from slcurv.fields import (
    _MAX_DEPTH,
    _MAX_EXPONENT,
    BinOp,
    Const,
    ExpressionTree,
    Neg,
    ParseError,
    Pow,
    Var,
    parse_expression,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# grammar pieces plus inputs that reach Python's own limits: deep nesting,
# long sums, huge exponents, indices and literals (also past float range), and non-ASCII digits,
# which str.isdigit accepts and int and float reject
TOKENS = ["x1", "x3", "x0", "x" + "9" * 5000, "y", "2", "0.5", ".", "9" * 400, "(", ")", "-", "+", "*",
          "/", "^", "^7", "^" + "9" * 5000, " ", "²", "١", "x²", "é", "x1^2.5", "\u3000", "\n", "_",
          "1" + "0" * 400 + ".5"]

ARITY = 3


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(st.text(max_size=60), st.lists(st.sampled_from(TOKENS), max_size=600).map("".join)))
def test_parser_raises_only_parse_error(text):
    # an error names a character offset within the text, or just past its end
    try:
        parse_expression(text, 3)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text)
        assert str(exc).endswith(f"(offset {exc.offset})")


LEAVES = st.one_of(
    st.builds(Var, st.integers(0, ARITY - 1)),
    st.builds(Const, st.floats(0.0, 1e6, allow_nan=False).map(abs)),
)
SIDES = st.one_of(
    LEAVES,
    st.builds(Neg, LEAVES),
    st.builds(Pow, LEAVES, st.integers(0, _MAX_EXPONENT)),
    st.builds(BinOp, st.sampled_from("+-*/"), LEAVES, LEAVES),
)


@st.composite
def trees(draw):
    """A random tree at most _MAX_DEPTH operators high: a spine of random
    operators over a leaf, with side operands at most one operator high."""
    node = draw(LEAVES)
    for _ in range(draw(st.integers(0, _MAX_DEPTH - 1))):
        kind = draw(st.sampled_from(["neg", "pow", "+", "-", "*", "/"]))
        if kind == "neg":
            node = Neg(node)
        elif kind == "pow":
            node = Pow(node, draw(st.integers(0, _MAX_EXPONENT)))
        elif draw(st.booleans()):
            node = BinOp(kind, node, draw(SIDES))
        else:
            node = BinOp(kind, draw(SIDES), node)
    return node


NEG_CHAIN = parse_expression("-" * _MAX_DEPTH + "x1", ARITY).root


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(trees())
@hypothesis.example(NEG_CHAIN)
def test_parse_inverts_unparse(root):
    text = ExpressionTree(root=root, arity=ARITY).unparse()
    assert parse_expression(text, ARITY).root == root
