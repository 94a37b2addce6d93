import numpy as np
import pytest

from slcurv.autodiff import HyperDual
from slcurv.fields import determinant_field
from slcurv.surfaces import ImplicitHypersurface


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def sl_surface(n: int) -> ImplicitHypersurface:
    """SL(n) = det^{-1}(1) as a hypersurface in R^{n^2}."""
    return ImplicitHypersurface(field=determinant_field(n), level=1.0)


def random_trace_zero(n: int, rng) -> np.ndarray:
    """A uniform random n x n matrix on [-1, 1), made trace-zero by subtracting (tr/n) I."""
    h = rng.uniform(-1.0, 1.0, size=(n, n))
    return h - (np.trace(h) / n) * np.eye(n)


def fd_gradient(field, p, h=1e-6):
    """Central-difference gradient, the AD-independent first-derivative oracle."""
    p = np.asarray(p, dtype=float)
    out = np.empty(p.size)
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = h
        out[i] = (float(field(list(p + e))) - float(field(list(p - e)))) / (2.0 * h)
    return out


def hyperdual_jet(field, p):
    """(gradient, Hessian) from one vector-mode HyperDual pass, the reference for the
    jets of autodiff._jet: coordinate k enters as HyperDual(p[k], e_k, e_k, 0), and
    the lower Hessian triangle is copied from the upper one, as _jet does."""
    p = np.asarray(p, dtype=float)
    n = p.size
    eye, zeros = np.eye(n), np.zeros((n, n))
    out = field([HyperDual(p[k], eye[k], eye[k], zeros) for k in range(n)])
    if not isinstance(out, HyperDual):
        return np.zeros(n), zeros
    grad, hess = np.array(out.d1, dtype=float), np.array(out.d12, dtype=float)
    lower = np.tril_indices(n, -1)
    hess[lower] = hess.T[lower]
    return grad, hess
