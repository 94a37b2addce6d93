import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


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
