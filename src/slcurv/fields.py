"""Scalar fields on R^N evaluable over plain floats or HyperDual numbers.

A field is an arity plus an evaluation recipe built from ring operations
only (+, -, *, /, integer powers), so the same recipe runs unchanged over
any of the supported scalar rings. Built-ins cover the determinant of the
row-major-flattened n x n argument and diagonal quadrics; everything else
comes from parsed expression text.

The determinant field also carries a private jet recipe: the same cofactor
expansion run over float arrays, one level of minors at a time, whose
gradient and Hessian are bitwise those of the generic HyperDual pass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from typing import Callable, Sequence, Union

import numpy as np

from .autodiff import ipow

# Row-major flattening, fixed repo-wide: entry (i, j) of an n x n matrix
# lives at coordinate i * n + j.


class ParseError(ValueError):
    """Expression rejected at parse time; offset is a byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class ScalarField:
    """N-variable function applicable to any sequence of N ring elements."""

    arity: int
    body: Callable[[Sequence], object]
    name: str = ""
    # (gradient, upper Hessian) at a float point, bitwise equal to the generic
    # HyperDual pass over body; autodiff._jet uses it when set
    _jet_recipe: Callable | None = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )

    def __call__(self, args: Sequence):
        if len(args) != self.arity:
            raise ValueError(
                f"field '{self.name or '?'}' has arity {self.arity}, got {len(args)} arguments"
            )
        return self.body(args)


def _cofactor_det(a: Sequence, n: int):
    # Laplace expansion along the first row, built bottom-up: the minors of the
    # last k rows, one per k-column subset, are expanded along their first row
    # from the minors of the last k - 1 rows, so each is computed once, in
    # n (2^(n-1) - 1) ring multiplications. Division-free, so the recipe is
    # valid over dual rings with no invertibility requirement.
    minors = {(c,): a[(n - 1) * n + c] for c in range(n)}
    for r in range(n - 2, -1, -1):
        below, minors = minors, {}
        for cols in combinations(range(n), n - r):
            acc = a[r * n + cols[0]] * below[cols[1:]]
            for j in range(1, len(cols)):
                term = a[r * n + cols[j]] * below[cols[:j] + cols[j + 1 :]]
                acc = acc + term if j % 2 == 0 else acc - term
            minors[cols] = acc
    return minors[tuple(range(n))]


def _det_jet_tables(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index tables of _cofactor_det for levels 2..n of its minors.

    Level m lists the m-column subsets of the last m rows in combinations order;
    level 1 is the last row, coordinates n(n - 1) .. n^2 - 1. Row j of a level's
    (seed, below) pair holds, per minor, the coordinate that expansion term j
    multiplies and the position in level m - 1 of the minor it multiplies.
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

    The field carries a jet recipe (_det_jet) that autodiff._jet runs in place of its
    generic pass; its gradient and Hessian are bitwise those of the HyperDual pass.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"determinant_field supports 1 <= n <= 8, got {n}")
    field = ScalarField(arity=n * n, body=lambda a: _cofactor_det(a, n), name=f"det{n}")
    tables = _det_jet_tables(n)
    object.__setattr__(field, "_jet_recipe", lambda p: _det_jet(n, tables, p))
    return field


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
# The parser, evaluator and unparser recurse, and ipow multiplies
# exponent - 1 times, so parsing bounds both: at most _MAX_DEPTH nested
# parentheses and unary minuses, a tree at most _MAX_DEPTH operators high,
# and exponents at most _MAX_EXPONENT. Digits are ASCII.

_MAX_DEPTH = 128
_MAX_EXPONENT = 100
_DIGITS = frozenset("0123456789")


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
        self.pos = 0
        self.depth = 0  # open parentheses and unary minuses around pos

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self) -> str:
        ch = self._peek()
        self.pos += 1
        return ch

    def _digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        return self.text[start : self.pos]

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
        self._skip_ws()
        if self.pos < len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return ExpressionTree(root=root, arity=self.arity)

    def _expr(self) -> tuple[Node, int]:
        node, height = self._term()
        while self._peek() in ("+", "-"):
            at, op = self.pos, self._take()
            right, right_height = self._term()
            node, height = BinOp(op=op, left=node, right=right), self._height(at, height, right_height)
        return node, height

    def _term(self) -> tuple[Node, int]:
        node, height = self._factor()
        while self._peek() in ("*", "/"):
            at, op = self.pos, self._take()
            right, right_height = self._factor()
            node, height = BinOp(op=op, left=node, right=right), self._height(at, height, right_height)
        return node, height

    def _factor(self) -> tuple[Node, int]:
        if self._peek() == "-":
            at = self.pos
            self._enter(at)
            self._take()
            operand, height = self._factor()
            self.depth -= 1
            return Neg(operand=operand), self._height(at, height)
        node, height = self._atom()
        if self._peek() == "^":
            at = self.pos
            self._take()
            node, height = Pow(base=node, exponent=self._exponent()), self._height(at, height)
        return node, height

    def _exponent(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek() == "-":
            raise ParseError("negative exponents are not allowed", self.pos)
        digits = self._digits()
        if not digits:
            raise ParseError("exponent must be a non-negative integer literal", start)
        exponent = _bounded_int(digits, _MAX_EXPONENT)
        if exponent > _MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {_MAX_EXPONENT}", start)
        return exponent

    def _atom(self) -> tuple[Node, int]:
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self._enter(start)
            self._take()
            node, height = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self._take()
            self.depth -= 1
            return node, height
        if ch in _DIGITS or ch == ".":
            return Const(value=self._number()), 0
        if ch.isalpha():
            return self._variable(), 0
        raise ParseError("expected a number, variable, or '('", start)

    def _number(self) -> float:
        start = self.pos
        self._digits()
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            self._digits()
        token = self.text[start : self.pos]
        if token == ".":
            raise ParseError("malformed number literal", start)
        return float(token)

    def _variable(self) -> Var:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start : self.pos]
        digits = name[1:]
        if not (name[0] == "x" and digits.isascii() and digits.isdigit()):
            raise ParseError(f"unknown identifier {name!r}", start)
        index = _bounded_int(digits, self.arity)
        if not 1 <= index <= self.arity:
            raise ParseError(f"variable {name} exceeds arity {self.arity}", start)
        return Var(index=index - 1)


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
