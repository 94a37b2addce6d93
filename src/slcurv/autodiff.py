"""Forward-mode automatic differentiation with hyper-dual numbers.

HyperDual carries two independent first-order payloads and their mixed
second-order coefficient (eps1, eps2, eps1*eps2 with eps1^2 = eps2^2 = 0).
The payloads are floats or numpy arrays. With float payloads one
evaluation yields one exact mixed partial; seeding coordinate k with the
unit vector e_k in both first-order slots (vector mode) makes one
evaluation yield the whole gradient in d1 and the whole Hessian in d12.
A field may carry its own jet recipe (determinant_field does), which _jet
runs in place of that generic pass; the generic pass stays the oracle that
the recipe must match bitwise.
"""

from __future__ import annotations

import numpy as np

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
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError("dual powers require a non-negative integer exponent")
        return ipow(self, int(k))


def ipow(x, k: int):
    """x**k by left-folded repeated multiplication, k a non-negative integer.

    The same multiplication sequence runs for every scalar ring, so the
    value slot of a hyper-dual evaluation matches plain-float evaluation
    bitwise.
    """
    if k < 0:
        raise ValueError("ipow requires a non-negative exponent")
    if k == 0:
        return 1.0
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _jet(field, p) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, Hessian) of a scalar field at p from one vector-mode pass.

    Coordinate k enters as HyperDual(p[k], e_k, e_k, 0). Entry (i, j) of the
    result runs the float operations of a scalar pass seeded with e_i and
    e_j; the lower triangle is copied from the upper one, so the Hessian is
    bitwise symmetric. A field whose output is constant has zero derivatives.
    A field with a _jet_recipe gets its gradient and upper Hessian from that
    recipe, which must return bitwise what this generic pass returns.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size != field.arity:
        raise ValueError(f"point has {p.size} coordinates, field arity is {field.arity}")
    n = p.size
    recipe = getattr(field, "_jet_recipe", None)
    if recipe is not None:
        grad, hess = recipe(p)
    else:
        eye, zeros = np.eye(n), np.zeros((n, n))
        out = field([HyperDual(p[k], eye[k], eye[k], zeros) for k in range(n)])
        if not isinstance(out, HyperDual):
            return np.zeros(n), zeros
        grad, hess = np.array(out.d1, dtype=float), np.array(out.d12, dtype=float)
    lower = np.tril_indices(n, -1)
    hess[lower] = hess.T[lower]
    return grad, hess


def gradient(field, p) -> np.ndarray:
    """Exact gradient of a scalar field at p."""
    return _jet(field, p)[0]


def hessian(field, p) -> np.ndarray:
    """Exact Hessian of a scalar field at p, bitwise symmetric."""
    return _jet(field, p)[1]
