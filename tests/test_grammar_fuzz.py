import re

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
    _bounded_int,
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


class ReferenceParser:
    """The parser that lexing the whole text once replaced: it matches one token at a
    time at the lookahead's offset; kept as the reference for trees, messages and
    offsets."""

    TOKEN = re.compile(r"\s*(?:(?P<number>[0-9]+\.?[0-9]*|\.[0-9]*)|(?P<name>[^\W_]+)|(?P<char>\S|\Z))")

    def __init__(self, text, arity):
        self.text = text
        self.arity = arity
        self.depth = 0
        self._advance(0)

    def _advance(self, pos):
        m = self.TOKEN.match(self.text, pos)
        self.kind = m.lastgroup
        self.at = m.start(self.kind)
        self.token = m[self.kind]

    def _take(self):
        token = self.token
        self._advance(self.at + len(token))
        return token

    def _enter(self, at):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels", at)

    def _height(self, at, *children):
        height = 1 + max(children)
        if height > _MAX_DEPTH:
            raise ParseError(f"expression tree higher than {_MAX_DEPTH} operators", at)
        return height

    def parse(self):
        root, _ = self._expr()
        if self.token:
            raise ParseError(f"unexpected character {self.token[0]!r}", self.at)
        return root

    def _expr(self):
        node, height = self._term()
        while self.token in ("+", "-"):
            at, op = self.at, self._take()
            right, right_height = self._term()
            node, height = BinOp(op, node, right), self._height(at, height, right_height)
        return node, height

    def _term(self):
        node, height = self._factor()
        while self.token in ("*", "/"):
            at, op = self.at, self._take()
            right, right_height = self._factor()
            node, height = BinOp(op, node, right), self._height(at, height, right_height)
        return node, height

    def _factor(self):
        if self.token == "-":
            at = self.at
            self._enter(at)
            self._take()
            operand, height = self._factor()
            self.depth -= 1
            return Neg(operand), self._height(at, height)
        node, height = self._atom()
        if self.token == "^":
            at = self.at
            self._take()
            node, height = Pow(node, self._exponent()), self._height(at, height)
        return node, height

    def _exponent(self):
        at = self.at
        if self.token == "-":
            raise ParseError("negative exponents are not allowed", at)
        digits = self.token.partition(".")[0] if self.kind == "number" else ""
        if not digits:
            raise ParseError("exponent must be a non-negative integer literal", at)
        exponent = _bounded_int(digits, _MAX_EXPONENT)
        if exponent > _MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {_MAX_EXPONENT}", at)
        self._advance(at + len(digits))
        return exponent

    def _atom(self):
        at, token = self.at, self.token
        if token == "(":
            self._enter(at)
            self._take()
            node, height = self._expr()
            if self.token != ")":
                raise ParseError("expected ')'", self.at)
            self._take()
            self.depth -= 1
            return node, height
        if self.kind == "number":
            if token == ".":
                raise ParseError("malformed number literal", at)
            value = float(token)
            if value == float("inf"):
                raise ParseError("number literal out of floating-point range", at)
            self._take()
            return Const(value), 0
        if self.kind != "name" or not token[0].isalpha():
            raise ParseError("expected a number, variable, or '('", at)
        digits = token[1:]
        if not (token[0] == "x" and digits.isascii() and digits.isdigit()):
            raise ParseError(f"unknown identifier {token!r}", at)
        index = _bounded_int(digits, self.arity)
        if not 1 <= index <= self.arity:
            raise ParseError(f"variable {token} exceeds arity {self.arity}", at)
        self._take()
        return Var(index - 1), 0


def outcomes(text):
    """[reference, parse_expression] outcomes for text: a tree's root, or a
    ParseError's message and offset."""
    got = []
    for parse in (lambda: ReferenceParser(text, ARITY).parse(), lambda: parse_expression(text, ARITY).root):
        try:
            got.append(parse())
        except ParseError as exc:
            got.append((str(exc), exc.offset))
    return got


TOKEN_TEXTS = st.lists(st.sampled_from(TOKENS), max_size=600).map("".join)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(st.text(max_size=60), TOKEN_TEXTS))
@hypothesis.example(" + ".join(["x1"] * (_MAX_DEPTH + 2)))
@hypothesis.example("-(" * _MAX_DEPTH + "x1")
@hypothesis.example("x1 * (x2^3.25 - x3)")
def test_parser_raises_only_parse_error(text):
    # the reference's tree, or its message at its offset, which lies within the text
    # or just past its end
    reference, got = outcomes(text)
    assert got == reference
    if isinstance(got, tuple):
        message, offset = got
        assert 0 <= offset <= len(text)
        assert message.endswith(f"(offset {offset})")


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
    assert outcomes(text) == [root, root]

