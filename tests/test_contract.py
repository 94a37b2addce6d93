"""The argument contract of the exports: on an edge-case matrix, size, point or vector, each one
raises a ValueError subclass, or an OverflowError for a result out of range, or returns its
values, with no warning."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

import slcurv
from slcurv import (
    EigenSpectrum,
    HyperDual,
    ImplicitHypersurface,
    determinant_field,
    expression_field,
    parse_expression,
    sphere_field,
)
from slcurv.autodiff import ipow
from slcurv.fields import ExpressionTree, Pow, Var

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
    if dataclasses.is_dataclass(out):
        return _leaves(dataclasses.astuple(out))
    if isinstance(out, (tuple, list)):
        return [leaf for item in out for leaf in _leaves(item)]
    return [np.asarray(out, dtype=float)]


def _check(call, expect, label):
    # expect is the exception type the call raises (R for a ValueError subclass), F, a
    # pattern that the ValueError's message must match, or the value the call is meant
    # to return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expect, (type, re.Pattern)):
            pattern = expect if isinstance(expect, re.Pattern) else None
            with pytest.raises(ValueError if pattern else expect, match=pattern):
                call()
            return
        got = _leaves(call())
    if expect is F:
        assert all(np.all(np.isfinite(leaf)) for leaf in got), (label, got)
    else:
        want = _leaves(expect)
        assert len(got) == len(want), label
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x, y, err_msg=label, strict=True)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_matrix_exports_on_edge_inputs(name):
    fn = getattr(slcurv, name)
    for (label, a), expect in zip(INPUTS.items(), TABLE[name], strict=True):
        _check(lambda: fn(a.copy()), expect, label)


NAN, INF = float("nan"), float("inf")
SPHERE2, SPHERE3, DET2, DET3 = sphere_field(2), sphere_field(3), determinant_field(2), determinant_field(3)
RECIPROCAL = expression_field("1/x1", 1)
CONSTANT = expression_field("1", 0)
SURFACE = ImplicitHypersurface(SPHERE3, 1.0)
E1, E2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
# x1^2 + x3 = 1 holds at (1, y, 0) for every y, and its gradient (2, 0, 1) does not read y
PARABOLIC = ImplicitHypersurface(expression_field("x1^2 + x3", 3), 1.0)
INF_POINT, NAN_POINT = [1.0, INF, 0.0], [1.0, NAN, 0.0]
# an int with no float value, and one too long for Python to print (over 4300 digits)
HUGE, GIANT = 10**400, 10**5000
SL_SEED, SO_SEED = re.compile("random_sl seed"), re.compile("random_special_orthogonal seed")
BIG_EYE = np.eye(3) * 1e200  # det = 1e600 overflows

# one row per call of an export on scalar or vector arguments: (label, export,
# arguments, outcome); an export given by name is looked up in slcurv
CALLS = [
    # n is an integer >= 2, given as int or np.integer
    ("identity-nan", "principal_curvatures_identity", (NAN,), R),
    ("identity-2.5", "principal_curvatures_identity", (2.5,), R),
    ("identity-inf", "principal_curvatures_identity", (INF,), R),
    ("identity-True", "principal_curvatures_identity", (True,), R),
    ("identity-1", "principal_curvatures_identity", (1,), R),
    ("identity-int64", "principal_curvatures_identity", (np.int64(3),), F),
    ("summary-nan", "curvature_summary", (NAN,), R),
    ("summary-2.5", "curvature_summary", (2.5,), R),
    ("summary-inf", "curvature_summary", (INF,), R),
    ("summary-int64", "curvature_summary", (np.int64(4),), F),
    # the difference quotient's denominator 4 step^2 must be positive and finite
    ("fd-underflow", "fd_hessian_oracle", (SPHERE2, [1.0, 0.0], 1e-320), R),
    ("fd-overflow", "fd_hessian_oracle", (SPHERE2, [1.0, 0.0], 1e300), R),
    ("fd-half", "fd_hessian_oracle", (SPHERE2, [1.0, 0.0], 0.5), F),
    # a finite point in, finite derivatives or a ValueError out
    ("gradient-inf-point", "gradient", (SPHERE3, [INF, 0.0, 0.0]), R),
    ("gradient-nan-point", "gradient", (SPHERE3, [NAN, 0.0, 0.0]), R),
    ("hessian-inf-point", "hessian", (SPHERE3, [INF, 0.0, 0.0]), R),
    ("gradient-det2-large", "gradient", (DET2, [1e200] * 4), F),
    ("hessian-det2-large", "hessian", (DET2, [1e200] * 4), F),
    ("gradient-det3-overflow", "gradient", (DET3, [1e200] * 9), R),
    ("gradient-reciprocal-overflow", "gradient", (RECIPROCAL, [1e-200]), R),
    ("hessian-reciprocal-overflow", "hessian", (RECIPROCAL, [1e-200]), R),
    ("gradient-arity-0", "gradient", (CONSTANT, []), F),
    ("complement-empty", "complement_basis", ([],), R),
    ("complement-zero", "complement_basis", ([0.0, 0.0],), R),
    ("complement-negative-zero", "complement_basis", ([-0.0],), R),
    ("complement-nan", "complement_basis", ([NAN, 1.0],), R),
    ("complement-inf", "complement_basis", ([INF, 1.0],), R),
    ("complement-minus-inf", "complement_basis", ([-INF, 1.0],), R),
    ("complement-1", "complement_basis", ([1.0],), F),
    ("cluster-empty", "cluster_multiplicities", ([],), []),
    ("random-sl-1", "random_sl", (1, 0), R),
    ("random-sl-0", "random_sl", (0, 0), R),
    ("random-sl-negative", "random_sl", (-1, 0), R),
    ("random-so-1", "random_special_orthogonal", (1, 0), R),
    ("random-so-0", "random_special_orthogonal", (0, 0), R),
    # a size is an int or np.integer, not a bool, in the export's range
    ("random-sl-2.5", "random_sl", (2.5, 0), R),
    ("random-sl-nan", "random_sl", (NAN, 0), R),
    ("random-sl-int64", "random_sl", (np.int64(3), 0), F),
    ("random-so-2.5", "random_special_orthogonal", (2.5, 0), R),
    ("random-so-int64", "random_special_orthogonal", (np.int64(3), 0), F),
    # a seed is a non-negative int or np.integer, not a bool: None would draw fresh entropy
    ("random-sl-seed-None", "random_sl", (3, None), SL_SEED),
    ("random-sl-seed-list-None", "random_sl", (3, [None]), SL_SEED),
    ("random-sl-seed-1.5", "random_sl", (3, 1.5), SL_SEED),
    ("random-sl-seed-str", "random_sl", (3, "ab"), SL_SEED),
    ("random-sl-seed-True", "random_sl", (3, True), SL_SEED),
    ("random-sl-seed-int64", "random_sl", (3, [np.int64(5)]), F),
    ("random-so-seed-None", "random_special_orthogonal", (3, None), SO_SEED),
    ("random-so-seed-True", "random_special_orthogonal", (3, True), SO_SEED),
    # a size is an int with a float value, as a real is
    ("identity-huge", "principal_curvatures_identity", (HUGE,), R),
    ("summary-huge", "curvature_summary", (HUGE,), re.compile(r"curvature_summary n .* 1329 bits")),
    ("sphere-field-huge", "sphere_field", (HUGE,), R),
    # a value past the float maximum is an inf, with no warning
    ("norm-overflow-vector", "frobenius_norm", ([1.7e308, 1.7e308],), INF),
    ("norm-overflow-matrix", "frobenius_norm", (np.full((2, 2), 1.7e308),), INF),
    ("norm-overflow-stack", "frobenius_norm", (np.full((2, 1, 2), 1.7e308),), np.array([INF, INF])),
    ("determinant-overflow", "determinant", (BIG_EYE,), INF),
    ("det-inverse-overflow", lambda a: slcurv.det_inverse(a)[0], (BIG_EYE,), INF),
    ("gauss-map-overflow", "gauss_map", (BIG_EYE,), R),
    ("curvatures-at-overflow", "curvatures_at", (BIG_EYE,), R),
    # a fundamental form out of range is an OverflowError, as the second fundamental form is
    ("forms-overflow", "fundamental_forms", (np.diag([1e200, -1e200]),), OverflowError),
    ("forms-large", "fundamental_forms", (np.diag([1e150, -1e150]),), F),
    ("determinant-field-2.5", "determinant_field", (2.5,), R),
    ("determinant-field-True", "determinant_field", (True,), R),
    ("determinant-field-int64", lambda n: determinant_field(n).arity, (np.int64(3),), 9.0),
    ("sphere-field-2.5", "sphere_field", (2.5,), R),
    ("sphere-field-0", "sphere_field", (0,), R),
    ("sphere-field-int64", lambda n: sphere_field(n).arity, (np.int64(2),), 2.0),
    ("parse-arity-1.5", "parse_expression", ("x1", 1.5), R),
    ("parse-arity-negative", "parse_expression", ("x1", -1), R),
    ("parse-arity-int64", lambda n: parse_expression("x1", n).arity, (np.int64(2),), 2.0),
    ("expression-field-arity-True", "expression_field", ("x1", True), R),
    # a NaN has no place in a descending order
    ("cluster-nan-first", "cluster_multiplicities", ([NAN, 1.0],), R),
    ("cluster-nan-last", "cluster_multiplicities", ([1.0, NAN],), R),
    ("weingarten-nan", "weingarten_apply", (SURFACE, E1, [0.0, NAN, 0.0]), R),
    ("weingarten-inf", "weingarten_apply", (SURFACE, E1, [0.0, INF, 0.0]), R),
    ("weingarten-minus-inf", "weingarten_apply", (SURFACE, E1, [0.0, -INF, 0.0]), R),
    ("weingarten-empty", "weingarten_apply", (SURFACE, E1, []), R),
    ("weingarten-tangent", "weingarten_apply", (SURFACE, E1, [0.0, 1.0, 0.0]), F),
    # a point of a surface is a vector of its ambient dimension with finite coordinates
    ("report-inf-point", "curvature_report", (PARABOLIC, INF_POINT), R),
    ("report-nan-point", "curvature_report", (PARABOLIC, NAN_POINT), R),
    ("report-finite-point", "curvature_report", (PARABOLIC, [1.0, 0.0, 0.0]), F),
    ("normal-inf-point", "unit_normal", (PARABOLIC, INF_POINT), R),
    ("weingarten-matrix-inf-point", "weingarten_matrix", (PARABOLIC, INF_POINT), R),
    ("weingarten-inf-point", "weingarten_apply", (PARABOLIC, INF_POINT, E2), R),
    ("second-form-inf-point", "second_fundamental_form", (PARABOLIC, INF_POINT, E2, E2), R),
    ("contains-inf-point", PARABOLIC.contains, (INF_POINT,), R),
    ("contains-nan-point", PARABOLIC.contains, (NAN_POINT,), R),
    ("contains-matrix", PARABOLIC.contains, ([E1],), R),
    ("contains-short", PARABOLIC.contains, ([1.0, 0.0],), R),
    ("contains-on-surface", PARABOLIC.contains, ([1.0, 5.0, 0.0],), True),
    ("fd-nan-point", "fd_hessian_oracle", (PARABOLIC.field, [NAN, 0.0, 0.0], 1e-3), R),
    ("fd-inf-point", "fd_hessian_oracle", (PARABOLIC.field, INF_POINT, 1e-3), R),
    ("fd-short-point", "fd_hessian_oracle", (PARABOLIC.field, [1.0, 0.0], 1e-3), R),
    # a real scalar is an int, float or numpy number, not a bool, in its argument's range
    ("surface-level-str", "ImplicitHypersurface", (SPHERE2, "1"), R),
    ("surface-level-None", "ImplicitHypersurface", (SPHERE2, None), R),
    ("surface-level-True", "ImplicitHypersurface", (SPHERE2, True), R),
    ("surface-level-huge", "ImplicitHypersurface", (SPHERE2, HUGE), R),
    ("surface-tol-str", "ImplicitHypersurface", (SPHERE2, 1.0, "0.1"), R),
    ("surface-tol-True", "ImplicitHypersurface", (SPHERE2, 1.0, True), R),
    ("surface-tol-huge", "ImplicitHypersurface", (SPHERE2, 1.0, HUGE), R),
    ("fd-step-str", "fd_hessian_oracle", (SPHERE2, [1.0, 0.0], "0.1"), R),
    ("fd-step-None", "fd_hessian_oracle", (SPHERE2, [1.0, 0.0], None), R),
    ("fd-step-True", "fd_hessian_oracle", (SPHERE2, [1.0, 0.0], True), R),
    ("fd-step-huge", "fd_hessian_oracle", (SPHERE2, [1.0, 0.0], HUGE), R),
    ("jacobi-tol-str", "jacobi_eigh", (np.eye(2), "x"), R),
    ("jacobi-tol-None", "jacobi_eigh", (np.eye(2), None), R),
    ("jacobi-tol-True", "jacobi_eigh", (np.eye(2), True), R),
    ("jacobi-tol-huge", "jacobi_eigh", (np.eye(2), HUGE), R),
    ("cluster-tol-str", "cluster_multiplicities", ([1.0], "x"), R),
    ("cluster-tol-None", "cluster_multiplicities", ([1.0], None), R),
    ("cluster-tol-True", "cluster_multiplicities", ([1.0], True), R),
    ("cluster-tol-huge", "cluster_multiplicities", ([1.0], HUGE), R),
    # a rejected int is shown by its size, so the message still names the argument
    ("jacobi-tol-giant", "jacobi_eigh", ([[1.0]], GIANT), re.compile(r"jacobi_eigh tol .* 16610 bits")),
    ("summary-giant", "curvature_summary", (-GIANT,), re.compile(r"curvature_summary n .* 16610 bits")),
    ("cluster-tol-giant", "cluster_multiplicities", ([1.0], GIANT), re.compile(r"cluster_tol .* 16610 bits")),
    # an int with no float value is shown by its sign and bit length
    ("summary-2^1100", "curvature_summary", (2**1100,), re.compile(r"\], got an int of 1101 bits$")),
    ("summary-minus-2^1100", "curvature_summary", (-(2**1100),), re.compile(r"\], got a negative int of 1101 bits$")),
    ("report-cluster-tol-str", "curvature_report", (SURFACE, E1, "x"), R),
    ("report-cluster-tol-None", "curvature_report", (SURFACE, E1, None), R),
    ("report-cluster-tol-True", "curvature_report", (SURFACE, E1, True), R),
    ("report-cluster-tol-huge", "curvature_report", (SURFACE, E1, HUGE), R),
    # a quadric's coefficients are finite reals
    ("quadric-str", "quadric_field", (["1.5"],), R),
    ("quadric-None", "quadric_field", ([None],), R),
    ("quadric-True", "quadric_field", ([1.0, True],), R),
    ("quadric-nan", "quadric_field", ([NAN],), R),
    ("quadric-inf", "quadric_field", ([1.0, INF],), R),
    ("quadric-minus-inf", "quadric_field", ([-INF],), R),
    ("quadric-huge", "quadric_field", ([HUGE],), R),
    # an exponent is a non-negative int or np.integer, for ipow and ** alike
    ("power-True", lambda k: HyperDual(2.0, 1.0) ** k, (True,), R),
    ("ipow-True", ipow, (2.0, True), R),
    ("ipow-float", ipow, (2.0, 2.0), R),
    ("ipow-str", ipow, (2.0, "2"), R),
    ("ipow-None", ipow, (2.0, None), R),
    # a tree built by hand is gated as the parser gates its text
    ("tree-pow-minus-1", ExpressionTree(Pow(Var(0), -1), 1).evaluate, ([3.0],), re.compile(r"^exponent .*, got -1$")),
    ("tree-pow-2.5", ExpressionTree(Pow(Var(0), 2.5), 1).evaluate, ([3.0],), re.compile(r"^exponent .*, got 2\.5$")),
]


@pytest.mark.parametrize("name, args, expect", [row[1:] for row in CALLS], ids=[row[0] for row in CALLS])
def test_scalar_and_vector_exports_on_edge_inputs(name, args, expect):
    fn = getattr(slcurv, name) if isinstance(name, str) else name
    _check(lambda: fn(*args), expect, str(name))
