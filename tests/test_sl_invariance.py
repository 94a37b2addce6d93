import numpy as np
import pytest

from slcurv.fields import determinant_field
from slcurv.linalg import jacobi_eigh
from slcurv.slgroup import curvatures_at, random_sl, random_special_orthogonal
from slcurv.surfaces import ImplicitHypersurface, curvature_report

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SURFACES = {n: ImplicitHypersurface(field=determinant_field(n), level=1.0) for n in range(2, 9)}
SEEDS = st.integers(0, 2**32 - 1)


def spectrum(a: np.ndarray) -> np.ndarray:
    return np.sort(curvature_report(SURFACES[a.shape[0]], a.ravel()).eigenvalues)


# A -> PAQ with P, Q in SO(n), and A -> A^t, are isometries of the matrix space
# (Frobenius inner product) that preserve det, so they carry SL(n) onto itself
# and the shape operator at A onto the one at the image: the same spectrum
@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(2, 8), SEEDS, SEEDS, SEEDS)
def test_spectrum_invariant_under_isometries(n, seed_a, seed_p, seed_q):
    a = random_sl(n, seed_a)
    p, q = random_special_orthogonal(n, seed_p), random_special_orthogonal(n, seed_q)
    expect = spectrum(a)
    tol = 1e-10 * np.maximum(1.0, np.abs(expect))
    for image in (p @ a @ q, a.T):
        assert np.all(np.abs(spectrum(image) - expect) <= tol)


@pytest.mark.parametrize("n", range(2, 9))
def test_eigenvalues_match_lapack(n):
    # the report's LAPACK spectrum of W against the Jacobi oracle's, at generic
    # points up to the n = 8 cap
    for seed in range(10):
        report = curvature_report(SURFACES[n], random_sl(n, seed).ravel())
        expect = jacobi_eigh(report.weingarten).values
        assert np.all(np.abs(report.eigenvalues - expect) <= 2e-14 * np.maximum(1.0, np.abs(expect)))


# the closed form from the singular values against the whole pipeline (AD Hessian of
# det, Householder basis, eigensolve of the (n^2 - 1)-dimensional W). Tolerances are
# about 5x the worst errors measured over 2100 random SL(2..8) points: 9.1e-15 on the
# spectrum (relative to max(1, |k|)), 5.6e-13 on K (relative; K is a product of
# n^2 - 1 curvatures) and 3.1e-14 on H
@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.integers(2, 8), SEEDS)
def test_report_matches_closed_form(n, seed):
    a = random_sl(n, seed)
    values, gauss_kronecker, mean = curvatures_at(a)
    report = curvature_report(SURFACES[n], a.ravel())
    assert np.all(np.abs(report.eigenvalues - values) <= 5e-14 * np.maximum(1.0, np.abs(values)))
    assert abs(report.gauss_kronecker - gauss_kronecker) <= 3e-12 * abs(gauss_kronecker)
    assert abs(report.mean - mean) <= 1.5e-13 * abs(mean)
