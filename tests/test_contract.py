"""The argument contract of the matrix-taking exports: on an edge-case matrix each one
raises a ValueError subclass or returns finite values, with no warning."""

import warnings

import numpy as np
import pytest

import slcurv
from slcurv import EigenSpectrum

INPUTS = {
    "0x0": np.zeros((0, 0)),
    "[[1]]": np.ones((1, 1)),
    "[[0]]": np.zeros((1, 1)),
    "[[-0.0]]": np.full((1, 1), -0.0),
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "-inf": np.array([[-np.inf, 0.0], [0.0, 1.0]]),
}
R = ValueError  # raises a ValueError subclass
F = "finite"  # returns finite values, compared by np.isfinite only
EMPTY = np.zeros((0, 0))

# one row per export, one outcome per input in INPUTS order; an outcome that is neither
# R nor F is the value the export is meant to return there
TABLE = {
    # the determinant of the 0 x 0 matrix is the empty product, 1
    "determinant": (1.0, F, F, F, R, R, R),
    # so the 0 x 0 matrix is invertible, and its inverse is itself
    "det_inverse": ((1.0, EMPTY), F, R, R, R, R, R),
    # the norm passes inf and NaN through: the surface frame's critical-point gate reads them
    "frobenius_norm": (F, F, F, F, float("nan"), float("inf"), float("inf")),
    # the 0 x 0 symmetric matrix has the empty spectrum
    "jacobi_eigh": (EigenSpectrum(np.zeros(0), EMPTY), F, F, F, R, R, R),
    "gauss_map": (R, F, R, R, R, R, R),
    "gauss_map_preimage": (R, F, R, R, R, R, R),
    "spherical_image_contains": (R, F, R, R, R, R, R),
    "weingarten_identity": (R, R, F, F, R, R, R),
    "sym_skew_decompose": (R, R, F, F, R, R, R),
    "fundamental_forms": (R, R, F, F, R, R, R),
    "curvatures_at": (R, R, R, R, R, R, R),
}


def _leaves(out):
    if isinstance(out, EigenSpectrum):
        return [out.values, out.vectors]
    if isinstance(out, tuple):
        return [leaf for item in out for leaf in _leaves(item)]
    return [np.asarray(out, dtype=float)]


@pytest.mark.parametrize("name", sorted(TABLE))
def test_matrix_exports_on_edge_inputs(name):
    fn = getattr(slcurv, name)
    for (label, a), expect in zip(INPUTS.items(), TABLE[name], strict=True):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expect is R:
                with pytest.raises(ValueError):
                    fn(a.copy())
                continue
            got = _leaves(fn(a.copy()))
        if expect is F:
            assert all(np.all(np.isfinite(leaf)) for leaf in got), (label, got)
        else:
            want = _leaves(expect)
            assert len(got) == len(want), label
            for x, y in zip(got, want):
                np.testing.assert_array_equal(x, y, err_msg=label, strict=True)
