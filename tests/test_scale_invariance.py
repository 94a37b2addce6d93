import numpy as np
import pytest

from slcurv.fields import quadric_field, sphere_field
from slcurv.surfaces import ImplicitHypersurface, curvature_report

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


# f -> 2^k f at level 2^k c scales the gradient, the Hessian and |grad f| by 2^k
# exactly, so the normal, W and every curvature are bitwise unchanged. |grad f|^2
# overflows from about k = 510 on; |grad f| itself does not before k = 1020.
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(0, 1000), st.integers(0, 2**32 - 1))
@hypothesis.example(510, 0)
@hypothesis.example(1000, 0)
def test_report_invariant_under_power_of_two_field_scaling(k, seed):
    p = np.random.default_rng(seed).uniform(-2.0, 2.0, size=4)
    level = float(sphere_field(4)(list(p)))
    base = curvature_report(ImplicitHypersurface(field=sphere_field(4), level=level), p)
    scaled_surface = ImplicitHypersurface(field=quadric_field([2.0**k] * 4), level=2.0**k * level)
    scaled = curvature_report(scaled_surface, p)
    for name in ("point", "normal", "tangent_basis", "weingarten", "eigenvalues"):
        assert getattr(scaled, name).tobytes() == getattr(base, name).tobytes(), name
    assert scaled.curvatures == base.curvatures
    assert scaled.gauss_kronecker.hex() == base.gauss_kronecker.hex()
    assert scaled.mean.hex() == base.mean.hex()
