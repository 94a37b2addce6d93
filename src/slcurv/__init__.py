"""Curvature toolkit for implicit hypersurfaces in R^N.

Numeric pipeline: one forward-mode AD pass per point for the gradient and
Hessian of a scalar field,
an orthonormal tangent basis from a Householder reflector, the shape
operator in that basis, and principal/Gauss-Kronecker/mean curvatures
from its eigenvalues (LAPACK's symmetric eigensolver; the package's own
Jacobi eigensolver is kept as the oracle it is tested against). The det = 1
hypersurface SL(n, R) comes with exact closed forms, at the identity and at
any of its points, for cross-checking the whole pipeline.
"""

from .autodiff import HyperDual, gradient, hessian
from .fields import (
    ExpressionTree,
    ParseError,
    ScalarField,
    determinant_field,
    evaluate,
    expression_field,
    parse_expression,
    quadric_field,
    sphere_field,
)
from .linalg import (
    EigenSpectrum,
    JacobiConvergenceError,
    NonSymmetricMatrixError,
    SingularMatrixError,
    cluster_multiplicities,
    complement_basis,
    det_inverse,
    determinant,
    frobenius_norm,
    jacobi_eigh,
)
from .slgroup import (
    SLCurvatureSummary,
    curvature_summary,
    curvatures_at,
    fundamental_forms,
    gauss_map,
    gauss_map_preimage,
    principal_curvatures_identity,
    random_sl,
    random_special_orthogonal,
    spherical_image_contains,
    sym_skew_decompose,
    weingarten_identity,
)
from .surfaces import (
    CriticalPointError,
    CurvatureReport,
    ImplicitHypersurface,
    NonTangentVectorError,
    OffSurfaceError,
    curvature_report,
    fd_hessian_oracle,
    second_fundamental_form,
    unit_normal,
    weingarten_apply,
    weingarten_matrix,
)

__version__ = "0.1.0"
