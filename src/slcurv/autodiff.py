"""Forward-mode automatic differentiation with hyper-dual numbers.

HyperDual carries two independent first-order payloads and their mixed
second-order coefficient (eps1, eps2, eps1*eps2 with eps1^2 = eps2^2 = 0).
The payloads are floats or numpy arrays. With float payloads one
evaluation yields one exact mixed partial; seeding coordinate k with the
unit vector e_k in both first-order slots (vector mode) makes one
evaluation yield the whole gradient in d1 and the whole Hessian in d12.

_jet runs that vector-mode pass on a private ring, _Jet, which keeps d1 and
d12 in one buffer and no d2 (in vector mode d2 is d1 bitwise) and runs
HyperDual's float operations in its order, so its gradient and Hessian are
bitwise those of the HyperDual pass, up to the payload of a NaN (numpy's
SIMD loops pick which operand's NaN to return by position in the array).
HyperDual is the public scalar type and the oracle. A field's body may carry a
_jet_recipe (determinant_field's walks the body's own minor table), which _jet
runs in place of the ring; it too must match the HyperDual pass bitwise.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import _as_integer, _as_point

_SCALARS = (int, float, np.integer, np.floating)

# the mixed term of a product: an outer product of array payloads, the plain
# product of float payloads
_outer = np.multiply.outer


class HyperDual:
    """Scalar a + b*eps1 + c*eps2 + d*eps1*eps2 with eps1^2 = eps2^2 = 0.

    Setting d2 = d12 = 0 reproduces dual-number arithmetic in the d1 slot.
    """

    __slots__ = ("value", "d1", "d2", "d12")

    def __init__(self, value: float, d1=0.0, d2=0.0, d12=0.0):
        self.value = float(value)
        self.d1 = d1
        self.d2 = d2
        self.d12 = d12

    def __repr__(self):
        return f"HyperDual({self.value!r}, {self.d1!r}, {self.d2!r}, {self.d12!r})"

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.value + other.value,
                self.d1 + other.d1,
                self.d2 + other.d2,
                self.d12 + other.d12,
            )
        if isinstance(other, _SCALARS):
            return HyperDual(self.value + other, self.d1, self.d2, self.d12)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.value - other.value,
                self.d1 - other.d1,
                self.d2 - other.d2,
                self.d12 - other.d12,
            )
        if isinstance(other, _SCALARS):
            return HyperDual(self.value - other, self.d1, self.d2, self.d12)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return HyperDual(other - self.value, -self.d1, -self.d2, -self.d12)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.value * other.value,
                self.value * other.d1 + self.d1 * other.value,
                self.value * other.d2 + self.d2 * other.value,
                self.value * other.d12
                + _outer(self.d1, other.d2)
                + _outer(other.d1, self.d2)
                + self.d12 * other.value,
            )
        if isinstance(other, _SCALARS):
            return HyperDual(
                self.value * other, self.d1 * other, self.d2 * other, self.d12 * other
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            if other.value == 0.0:
                raise ZeroDivisionError("division by hyper-dual with zero real part")
            return self * other._reciprocal()
        if isinstance(other, _SCALARS):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return HyperDual(
                self.value / other, self.d1 / other, self.d2 / other, self.d12 / other
            )
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._reciprocal() * other
        return NotImplemented

    def _reciprocal(self):
        # series inverse of a + b e1 + c e2 + d e12 around a != 0
        inv = 1.0 / self.value
        inv2 = inv * inv
        return HyperDual(
            inv,
            -self.d1 * inv2,
            -self.d2 * inv2,
            (_outer(2.0 * self.d1, self.d2) * inv - self.d12) * inv2,
        )

    def __neg__(self):
        return HyperDual(-self.value, -self.d1, -self.d2, -self.d12)

    def __pow__(self, k):
        return ipow(self, k)


def ipow(x, k: int):
    """x**k by left-folded repeated multiplication, k a non-negative int or numpy integer.

    The same multiplication sequence runs for every scalar ring, so the
    value slot of a hyper-dual evaluation matches plain-float evaluation
    bitwise.
    """
    return _ipow(x, _as_integer(k, 0, np.inf, "exponent"))


def _ipow(x, k: int):
    # ipow for an int k >= 0 already gated, such as a parsed exponent
    if k == 0:
        return 1.0
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


class _Jet:
    """The vector-mode HyperDual over a private buffer: a float value and j, one
    (N + 1, N) float64 array whose row 0 is d1 and whose rows 1..N are d12.

    In vector mode d2 is d1 bitwise, so it is not stored. Every operation runs
    HyperDual's float operations in its order on each entry; the mixed term of a
    product adds outer(d1, d1') and its transpose, which is outer(d1', d1) because
    float multiplication commutes (up to the payload of a NaN). An operation writes
    only to the buffer it allocates, so values may share buffers.
    """

    __slots__ = ("value", "j")

    def __init__(self, value: float, j: np.ndarray):
        self.value = value
        self.j = j

    def __add__(self, other):
        if type(other) is _Jet:
            return _Jet(self.value + other.value, self.j + other.j)
        if isinstance(other, _SCALARS):
            return _Jet(float(self.value + other), self.j)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is _Jet:
            return _Jet(self.value - other.value, self.j - other.j)
        if isinstance(other, _SCALARS):
            return _Jet(float(self.value - other), self.j)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return _Jet(float(other - self.value), -self.j)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is _Jet:
            a, b = self.j, other.j
            out = self.value * b
            m = _outer(a[0], b[0])
            h = out[1:]
            h += m
            h += m.T
            out += a * other.value
            return _Jet(self.value * other.value, out)
        if isinstance(other, _SCALARS):
            return _Jet(float(self.value * other), self.j * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is _Jet:
            if other.value == 0.0:
                raise ZeroDivisionError("division by hyper-dual with zero real part")
            return self * other._reciprocal()
        if isinstance(other, _SCALARS):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _Jet(float(self.value / other), self.j / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._reciprocal() * other
        return NotImplemented

    def _reciprocal(self):
        inv = 1.0 / self.value
        inv2 = inv * inv
        a, out = self.j, np.empty_like(self.j)
        np.multiply(-a[0], inv2, out=out[0])
        h = out[1:]
        _outer(2.0 * a[0], a[0], out=h)
        h *= inv
        h -= a[1:]
        h *= inv2
        return _Jet(inv, out)

    def __neg__(self):
        return _Jet(-self.value, -self.j)

    __pow__ = HyperDual.__pow__


@lru_cache(maxsize=None)
def _lower_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    # np.tril_indices(n, -1), built once per arity and read-only, since it is shared
    rows, cols = np.tril_indices(n, -1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _jet(field, p) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, Hessian) of a scalar field at a point p from _as_point, in one vector-mode pass.

    Coordinate k enters as HyperDual(p[k], e_k, e_k, 0), run on the _Jet ring.
    Entry (i, j) of the result runs the float operations of a scalar pass
    seeded with e_i and e_j; the lower triangle is copied from the upper one,
    so the Hessian is bitwise symmetric. A field whose output is constant has
    zero derivatives. A field whose body has a _jet_recipe attribute gets its
    gradient and upper Hessian from that recipe, which must return bitwise what
    the HyperDual pass returns; the recipe goes wherever the body goes.
    """
    n = p.size
    recipe = getattr(field.body, "_jet_recipe", None)
    if recipe is not None:
        grad, hess = recipe(p)
    else:
        seeds = np.zeros((n, n + 1, n))
        seeds[:, 0] = np.eye(n)
        out = field([_Jet(x, j) for x, j in zip(p.tolist(), seeds)])
        if not isinstance(out, _Jet):
            return np.zeros(n), np.zeros((n, n))
        grad, hess = out.j[0].copy(), out.j[1:].copy()
    lower = _lower_indices(n)
    hess[lower] = hess.T[lower]
    return grad, hess


def _checked_jet(field, p, part: int, what: str) -> np.ndarray:
    # the public face of _jet: a finite point in, finite values or a ValueError out,
    # and no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        out = _jet(field, _as_point(p, field.arity))[part]
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} out of floating-point range")
    return out


def gradient(field, p) -> np.ndarray:
    """Exact gradient of a scalar field at a finite p; a non-finite entry is a ValueError."""
    return _checked_jet(field, p, 0, "gradient")


def hessian(field, p) -> np.ndarray:
    """Exact Hessian of a scalar field at a finite p, bitwise symmetric; a non-finite
    entry is a ValueError."""
    return _checked_jet(field, p, 1, "Hessian")
