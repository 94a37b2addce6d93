import numpy as np
import pytest

from slcurv.cli import _random_trace_zero as random_trace_zero  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def fd_gradient(field, p, h=1e-6):
    """Central-difference gradient, the AD-independent first-derivative oracle."""
    p = np.asarray(p, dtype=float)
    out = np.empty(p.size)
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = h
        out[i] = (float(field(list(p + e))) - float(field(list(p - e)))) / (2.0 * h)
    return out
