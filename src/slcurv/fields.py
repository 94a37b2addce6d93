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
from itertools import combinations, cycle, islice
from typing import Callable, Sequence, Union

import numpy as np

from .autodiff import ipow
from .linalg import _FLOAT_MAX, _as_integer, _as_real

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


# A chunk of terms holds at most this many float64 d12 entries (256 KiB), so that a
# chunk and its outer-product temporary stay in a core's L2 cache. Measured on a
# 2-vCPU Xeon with 2 MiB of L2 per core, best of 31: a bound of 2^17 ran the n = 6..8
# jets 4-8% slower than term by term, and 2^15 no slower. Every level up to n = 5 is
# one chunk under either bound, which halves the n = 3 jet.
_CHUNK_ENTRIES = 2**15


def _det_jet(n: int, tables, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, upper Hessian) of the n x n determinant at p: _cofactor_det over the
    seeds HyperDual(p[k], e_k, e_k, 0), one level of minors at a time.

    A level holds each minor's value (C,), d1 (C, N) and d12 (C, N, N); d2 equals d1
    bitwise, so it is not stored. Its terms run in chunks with a leading term axis,
    (g, C, ...), each chunk in one numpy pass of HyperDual.__mul__'s float operations
    in its order, x D + e_k v and ((x H + e_k (x) D) + D (x) e_k) + 0 v. A chunk holds
    g = max(1, _CHUNK_ENTRIES // (C N^2)) terms, so every level is one chunk for
    n <= 5, where numpy calls rather than arithmetic bound the jet, and the largest
    levels at n = 6..8 run term by term. The terms are then
    folded in _cofactor_det's order, each with its own np.subtract or np.add: a
    reduction over the term axis with negated odd terms would give a + (-NaN) where
    the generic pass gives a - NaN, which differ in the NaN's sign bit. So the result
    is bitwise the d1 and d12 of the generic pass.
    """
    eye = np.eye(p.size)
    last = np.arange(p.size - n, p.size)
    v, d1, d12 = p[last], eye[last], np.zeros((n, p.size, p.size))
    for seeds, belows in tables:
        size = max(1, _CHUNK_ENTRIES // (seeds.shape[1] * p.size**2))
        for start in range(0, len(seeds), size):
            k, b = seeds[start : start + size], belows[start : start + size]
            # gathered copies, so every step below can run in place
            x, e, tv, td1, td12 = p[k], eye[k], v[b], d1[b], d12[b]
            np.multiply(x[..., None, None], td12, out=td12)
            td12 += e[..., :, None] * td1[..., None, :]
            td12 += td1[..., :, None] * e[..., None, :]
            td12 += (0.0 * tv)[..., None, None]
            np.multiply(x[..., None], td1, out=td1)
            td1 += e * tv[..., None]
            np.multiply(x, tv, out=tv)
            for j, term in enumerate(zip(tv, td1, td12), start):
                if j == 0:
                    acc = term
                else:
                    sign = np.add if j % 2 == 0 else np.subtract
                    for a, t in zip(acc, term):
                        sign(a, t, out=a)
        v, d1, d12 = acc
    return d1[0], d12[0]


def determinant_field(n: int) -> ScalarField:
    """Determinant of the row-major-flattened n x n argument, 1 <= n <= 8.

    The body walks _minor_tables(n) and carries _det_jet over the same tables as its
    _jet_recipe, which autodiff._jet runs in place of the bitwise-equal generic pass.
    """
    n = _as_integer(n, 1, 8, "determinant_field n")
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
    """Diagonal quadric sum(c_k * x_k^2); arity is len(coeffs), each c_k a finite real."""
    coeffs = [float(_as_real(c, -_FLOAT_MAX, _FLOAT_MAX, "quadric_field coeffs")) for c in coeffs]
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
    return quadric_field([1.0] * _as_integer(dim, 1, np.inf, "sphere_field dim"))


# --- expression trees ------------------------------------------------------
#
# Grammar (whitespace insignificant):
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ('^' digits)?
#   atom   := number | 'x' digits | '(' expr ')'
#
# One findall of _TOKEN lexes the whole text. Each token, after any whitespace
# (str.isspace), is an ASCII number, a name (a run of str.isalnum characters),
# one other character, or "" at the end of the text; its first character tells
# which. Offsets are character indices.
#
# The parser, evaluator and unparser recurse, and ipow multiplies
# exponent - 1 times, so parsing bounds both: at most _MAX_DEPTH nested
# parentheses and unary minuses, a tree at most _MAX_DEPTH operators high,
# and exponents at most _MAX_EXPONENT. Digits are ASCII.

_MAX_DEPTH = 128
_MAX_EXPONENT = 100
_TOKEN = re.compile(r"\s*([0-9]+\.?[0-9]*|\.[0-9]*|[^\W_]+|\S|\Z)")
_NUMBER_START = frozenset("0123456789.")
_TOO_HIGH = f"expression tree higher than {_MAX_DEPTH} operators"


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
    """Recursive descent over the token list. Each method takes the index of its first
    token and returns (node, height of the node's tree, index of the token after it)."""

    def __init__(self, text: str, arity: int):
        self.text = text
        self.arity = arity
        self.tokens = _TOKEN.findall(text)  # its last token is "", the end of the text
        self.depth = 0  # open parentheses and unary minuses around the current token

    def error(self, message: str, i: int) -> ParseError:
        # re-lex up to token i for its offset; an exponent leaves the rest of its number
        # token at that token's index, so token i ends where the lexed one does
        m = next(islice(_TOKEN.finditer(self.text), i, None))
        return ParseError(message, m.end(1) - len(self.tokens[i]))

    def parse(self) -> ExpressionTree:
        root, _, i = self.expr(0)
        if self.tokens[i]:
            raise self.error(f"unexpected character {self.tokens[i][0]!r}", i)
        return ExpressionTree(root=root, arity=self.arity)

    def expr(self, i: int) -> tuple[Node, int, int]:
        tokens, term = self.tokens, self.term
        node, height, i = term(i)
        while (op := tokens[i]) == "+" or op == "-":
            right, right_height, j = term(i + 1)
            if (height := 1 + max(height, right_height)) > _MAX_DEPTH:
                raise self.error(_TOO_HIGH, i)
            node, i = BinOp(op, node, right), j
        return node, height, i

    def term(self, i: int) -> tuple[Node, int, int]:
        tokens, factor = self.tokens, self.factor
        node, height, i = factor(i)
        while (op := tokens[i]) == "*" or op == "/":
            right, right_height, j = factor(i + 1)
            if (height := 1 + max(height, right_height)) > _MAX_DEPTH:
                raise self.error(_TOO_HIGH, i)
            node, i = BinOp(op, node, right), j
        return node, height, i

    def factor(self, i: int) -> tuple[Node, int, int]:
        tokens = self.tokens
        token = tokens[i]
        if token == "-" or token == "(":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise self.error(f"nesting deeper than {_MAX_DEPTH} levels", i)
        if token == "-":
            operand, height, j = self.factor(i + 1)
            self.depth -= 1
            if height >= _MAX_DEPTH:
                raise self.error(_TOO_HIGH, i)
            return Neg(operand), height + 1, j
        if token == "(":
            node, height, i = self.expr(i + 1)
            if tokens[i] != ")":
                raise self.error("expected ')'", i)
            self.depth -= 1
        elif token[:1] in _NUMBER_START:
            if token == ".":
                raise self.error("malformed number literal", i)
            node, height = Const(float(token)), 0
            if node.value == np.inf:
                raise self.error("number literal out of floating-point range", i)
        elif not token[:1].isalpha():
            raise self.error("expected a number, variable, or '('", i)
        elif not (token[0] == "x" and token[1:].isascii() and token[1:].isdigit()):
            raise self.error(f"unknown identifier {token!r}", i)
        elif not 1 <= (index := _bounded_int(token[1:], self.arity)) <= self.arity:
            raise self.error(f"variable {token} exceeds arity {self.arity}", i)
        else:
            node, height = Var(index - 1), 0
        i += 1
        if tokens[i] != "^":
            return node, height, i
        token = tokens[i + 1]
        if token == "-":
            raise self.error("negative exponents are not allowed", i + 1)
        # only the leading digits: x1^2.5 is x1^2 followed by the token '.5'
        digits = token.partition(".")[0] if token[:1] in _NUMBER_START else ""
        if not digits:
            raise self.error("exponent must be a non-negative integer literal", i + 1)
        if (exponent := _bounded_int(digits, _MAX_EXPONENT)) > _MAX_EXPONENT:
            raise self.error(f"exponent exceeds {_MAX_EXPONENT}", i + 1)
        if height >= _MAX_DEPTH:
            raise self.error(_TOO_HIGH, i)
        tokens[i + 1] = token[len(digits) :]
        return Pow(node, exponent), height + 1, i + 1 if tokens[i + 1] else i + 2


def parse_expression(text: str, arity: int) -> ExpressionTree:
    """Parse expression text over variables x1..xN into an ExpressionTree.

    Standard precedence (^ above unary minus above * / above + -), left
    association for - and /; exponents are integer literals in
    [0, _MAX_EXPONENT], and nesting and tree height are at most _MAX_DEPTH.
    """
    return _Parser(text, _as_integer(arity, 0, np.inf, "parse_expression arity")).parse()


def expression_field(text: str, arity: int, name: str = "expr") -> ScalarField:
    """Parse text and wrap it as a ScalarField."""
    return parse_expression(text, arity).as_field(name=name)


def evaluate(field, args: Sequence):
    """Evaluate a ScalarField or ExpressionTree on a sequence of ring elements."""
    if isinstance(field, ExpressionTree):
        return field.evaluate(args)
    return field(args)
