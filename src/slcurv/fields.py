"""Scalar fields on R^N evaluable over plain floats or HyperDual numbers.

A field is an arity plus an evaluation recipe built from ring operations
only (+, -, *, /, integer powers), so the same recipe runs unchanged over
any of the supported scalar rings. Built-ins cover the determinant of the
row-major-flattened n x n argument and diagonal quadrics; everything else
comes from parsed expression text.

One minor table drives the determinant field: its body walks the table over any ring
and carries, as _jet_recipe, the walk over float arrays one level of minors at a time,
bitwise equal to the generic HyperDual pass, so a field built on that body keeps it.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import combinations, cycle
from typing import Callable, Sequence, Union

import numpy as np

from .autodiff import ipow

# Row-major flattening, fixed repo-wide: entry (i, j) of an n x n matrix
# lives at coordinate i * n + j.


class ParseError(ValueError):
    """Expression rejected at parse time; offset is a character index into the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class ScalarField:
    """N-variable function applicable to any sequence of N ring elements."""

    arity: int
    body: Callable[[Sequence], object]
    name: str = ""

    def __call__(self, args: Sequence):
        if len(args) != self.arity:
            raise ValueError(
                f"field '{self.name or '?'}' has arity {self.arity}, got {len(args)} arguments"
            )
        return self.body(args)


def _minor_tables(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Laplace expansion along first rows, bottom-up, as index tables for levels 2..n.

    Level m lists the m-column subsets of the last m rows in combinations order; level 1
    is the last row, coordinates n(n - 1) .. n^2 - 1. Row j of a level's (seed, below)
    pair holds, per minor, the coordinate that term j multiplies and the position in
    level m - 1 of the minor it multiplies, so each minor is computed once.
    """
    tables = []
    level = list(combinations(range(n), 1))
    for r in range(n - 2, -1, -1):
        position = {cols: i for i, cols in enumerate(level)}
        level = list(combinations(range(n), n - r))
        seed = [[r * n + cols[j] for cols in level] for j in range(n - r)]
        below = [[position[cols[:j] + cols[j + 1 :]] for cols in level] for j in range(n - r)]
        tables.append((np.array(seed), np.array(below)))
    return tables


def _cofactor_det(a: Sequence, n: int, levels) -> object:
    # the minor table over any ring: per minor, the first term's (coordinate, minor
    # below), then (operator.sub or operator.add, coordinate, minor below) for each
    # later term. Division-free, so it needs no invertible ring elements.
    minors = [a[k] for k in range(n * n - n, n * n)]
    for level in levels:
        below, minors = minors, []
        for k, b, terms in level:
            acc = a[k] * below[b]
            for sign, k, b in terms:
                acc = sign(acc, a[k] * below[b])
            minors.append(acc)
    return minors[0]


def _det_jet(n: int, tables, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, upper Hessian) of the n x n determinant at p: _cofactor_det over the
    seeds HyperDual(p[k], e_k, e_k, 0), one level of minors at a time.

    A level holds each minor's value (C,), d1 (C, N) and d12 (C, N, N); d2 equals d1
    bitwise, so it is not stored. Each term runs HyperDual.__mul__'s float operations
    in its order, x D + e_k v and ((x H + e_k (x) D) + D (x) e_k) + 0 v, and the terms
    are added and subtracted as in _cofactor_det, so the result is bitwise the d1 and
    d12 of the generic pass.
    """
    eye = np.eye(p.size)
    last = np.arange(p.size - n, p.size)
    v, d1, d12 = p[last], eye[last], np.zeros((n, p.size, p.size))
    for seeds, belows in tables:
        for j, (k, b) in enumerate(zip(seeds, belows)):
            # gathered copies, so every step below can run in place
            x, e, tv, td1, td12 = p[k], eye[k], v[b], d1[b], d12[b]
            np.multiply(x[:, None, None], td12, out=td12)
            td12 += e[:, :, None] * td1[:, None, :]
            td12 += td1[:, :, None] * e[:, None, :]
            td12 += (0.0 * tv)[:, None, None]
            np.multiply(x[:, None], td1, out=td1)
            td1 += e * tv[:, None]
            np.multiply(x, tv, out=tv)
            if j == 0:
                acc = tv, td1, td12
            else:
                sign = np.add if j % 2 == 0 else np.subtract
                for a, t in zip(acc, (tv, td1, td12)):
                    sign(a, t, out=a)
        v, d1, d12 = acc
    return d1[0], d12[0]


def determinant_field(n: int) -> ScalarField:
    """Determinant of the row-major-flattened n x n argument, 1 <= n <= 8.

    The body walks _minor_tables(n) and carries _det_jet over the same tables as its
    _jet_recipe, which autodiff._jet runs in place of the bitwise-equal generic pass.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"determinant_field supports 1 <= n <= 8, got {n}")
    tables = _minor_tables(n)
    signs = (operator.sub, operator.add)
    levels = [
        [(k[0], b[0], list(zip(cycle(signs), k[1:], b[1:]))) for k, b in zip(s.T.tolist(), t.T.tolist())]
        for s, t in tables
    ]

    def body(a):
        return _cofactor_det(a, n, levels)

    body._jet_recipe = lambda p: _det_jet(n, tables, p)
    return ScalarField(arity=n * n, body=body, name=f"det{n}")


def quadric_field(coeffs) -> ScalarField:
    """Diagonal quadric sum(c_k * x_k^2); arity is len(coeffs)."""
    coeffs = [float(c) for c in coeffs]
    if not coeffs:
        raise ValueError("quadric_field needs at least one coefficient")

    def body(args):
        acc = coeffs[0] * (args[0] * args[0])
        for c, x in zip(coeffs[1:], args[1:]):
            acc = acc + c * (x * x)
        return acc

    return ScalarField(arity=len(coeffs), body=body, name="quadric")


def sphere_field(dim: int) -> ScalarField:
    """Sum of squares of all coordinates."""
    return quadric_field([1.0] * dim)


# --- expression trees ------------------------------------------------------
#
# Grammar (whitespace insignificant):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ('^' digits)?
#   atom   := number | 'x' digits | '(' expr ')'
#
# The parser reads one _TOKEN at a time: whitespace (str.isspace), then an
# ASCII number, a name (a run of str.isalnum characters), one other
# character, or the end of the text. Offsets are character indices.
#
# The parser, evaluator and unparser recurse, and ipow multiplies
# exponent - 1 times, so parsing bounds both: at most _MAX_DEPTH nested
# parentheses and unary minuses, a tree at most _MAX_DEPTH operators high,
# and exponents at most _MAX_EXPONENT. Digits are ASCII.

_MAX_DEPTH = 128
_MAX_EXPONENT = 100
_TOKEN = re.compile(r"\s*(?:(?P<number>[0-9]+\.?[0-9]*|\.[0-9]*)|(?P<name>[^\W_]+)|(?P<char>\S|\Z))")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # zero-based slot


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int  # non-negative literal


Node = Union[Const, Var, Neg, BinOp, Pow]


@dataclass(frozen=True)
class ExpressionTree:
    root: Node
    arity: int

    def evaluate(self, args: Sequence):
        if len(args) != self.arity:
            raise ValueError(f"expression has arity {self.arity}, got {len(args)} arguments")
        return _eval_node(self.root, args)

    def unparse(self) -> str:
        return _unparse(self.root)

    def as_field(self, name: str = "expr") -> ScalarField:
        return ScalarField(arity=self.arity, body=lambda a: _eval_node(self.root, a), name=name)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval_node(node: Node, args: Sequence):
    # node types tested by how often they occur in a tree
    kind = type(node)
    if kind is BinOp:
        return _BINARY[node.op](_eval_node(node.left, args), _eval_node(node.right, args))
    if kind is Var:
        return args[node.index]
    if kind is Const:
        return node.value
    if kind is Pow:
        return ipow(_eval_node(node.base, args), node.exponent)
    return -_eval_node(node.operand, args)


def _format_number(v: float) -> str:
    # positional notation keeps the text inside the grammar (no 1e-07 forms)
    return np.format_float_positional(v)


def _unparse(node: Node) -> str:
    if isinstance(node, Const):
        return _format_number(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    # a binary operation unparses in parentheses, so only a power's base needs
    # more: -x1^2 means -(x1^2), and the grammar has no x1^2^3. Any other
    # parentheses would nest the text deeper than the tree is high, past the cap.
    if isinstance(node, Neg):
        return f"-{_unparse(node.operand)}"
    if isinstance(node, Pow):
        base = _unparse(node.base)
        if isinstance(node.base, (Neg, Pow)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    return f"({_unparse(node.left)} {node.op} {_unparse(node.right)})"


def _bounded_int(digits: str, limit: int) -> int:
    """int(digits) if it is at most limit, else limit + 1, without converting long strings."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(limit)) else limit + 1


class _Parser:
    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.depth = 0  # open parentheses and unary minuses around the lookahead
        self._advance(0)

    def _advance(self, pos: int):
        # lex the token after pos into the lookahead: its offset, text and kind
        m = _TOKEN.match(self.text, pos)
        self.kind = m.lastgroup
        self.at = m.start(self.kind)
        self.token = m[self.kind]

    def _take(self) -> str:
        token = self.token
        self._advance(self.at + len(token))
        return token

    def _enter(self, at: int):
        # called before the parser recurses into '(' or unary minus
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels", at)

    def _height(self, at: int, *children: int) -> int:
        height = 1 + max(children)
        if height > _MAX_DEPTH:
            raise ParseError(f"expression tree higher than {_MAX_DEPTH} operators", at)
        return height

    # each method below returns (node, height of the node's tree)

    def parse(self) -> ExpressionTree:
        root, _ = self._expr()
        if self.token:
            raise ParseError(f"unexpected character {self.token[0]!r}", self.at)
        return ExpressionTree(root=root, arity=self.arity)

    def _expr(self) -> tuple[Node, int]:
        node, height = self._term()
        while self.token in ("+", "-"):
            at, op = self.at, self._take()
            right, right_height = self._term()
            node, height = BinOp(op=op, left=node, right=right), self._height(at, height, right_height)
        return node, height

    def _term(self) -> tuple[Node, int]:
        node, height = self._factor()
        while self.token in ("*", "/"):
            at, op = self.at, self._take()
            right, right_height = self._factor()
            node, height = BinOp(op=op, left=node, right=right), self._height(at, height, right_height)
        return node, height

    def _factor(self) -> tuple[Node, int]:
        if self.token == "-":
            at = self.at
            self._enter(at)
            self._take()
            operand, height = self._factor()
            self.depth -= 1
            return Neg(operand=operand), self._height(at, height)
        node, height = self._atom()
        if self.token == "^":
            at = self.at
            self._take()
            node, height = Pow(base=node, exponent=self._exponent()), self._height(at, height)
        return node, height

    def _exponent(self) -> int:
        at = self.at
        if self.token == "-":
            raise ParseError("negative exponents are not allowed", at)
        # only the leading digits: x1^2.5 is x1^2 followed by '.5'
        digits = self.token.partition(".")[0] if self.kind == "number" else ""
        if not digits:
            raise ParseError("exponent must be a non-negative integer literal", at)
        exponent = _bounded_int(digits, _MAX_EXPONENT)
        if exponent > _MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {_MAX_EXPONENT}", at)
        self._advance(at + len(digits))
        return exponent

    def _atom(self) -> tuple[Node, int]:
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
            if value == np.inf:
                raise ParseError("number literal out of floating-point range", at)
            self._take()
            return Const(value=value), 0
        if self.kind != "name" or not token[0].isalpha():
            raise ParseError("expected a number, variable, or '('", at)
        digits = token[1:]
        if not (token[0] == "x" and digits.isascii() and digits.isdigit()):
            raise ParseError(f"unknown identifier {token!r}", at)
        index = _bounded_int(digits, self.arity)
        if not 1 <= index <= self.arity:
            raise ParseError(f"variable {token} exceeds arity {self.arity}", at)
        self._take()
        return Var(index=index - 1), 0


def parse_expression(text: str, arity: int) -> ExpressionTree:
    """Parse expression text over variables x1..xN into an ExpressionTree.

    Standard precedence (^ above unary minus above * / above + -), left
    association for - and /; exponents are integer literals in
    [0, _MAX_EXPONENT], and nesting and tree height are at most _MAX_DEPTH.
    """
    if arity < 0:
        raise ValueError("arity must be non-negative")
    return _Parser(text, arity).parse()


def expression_field(text: str, arity: int, name: str = "expr") -> ScalarField:
    """Parse text and wrap it as a ScalarField."""
    return parse_expression(text, arity).as_field(name=name)


def evaluate(field, args: Sequence):
    """Evaluate a ScalarField or ExpressionTree on a sequence of ring elements."""
    if isinstance(field, ExpressionTree):
        return field.evaluate(args)
    return field(args)
