"""Exact Clifford-algebra arithmetic and Lagrange interpolation.

The package works over the low-dimensional real Clifford algebras R_{p,q}
with exact rational coordinates. Its centrepiece is Lagrange interpolation
for points in the quadratic cone of the quaternions (R_{0,2}) and of
R_{0,3}, together with the supporting machinery: conjugation, trace and
norm, zero-divisor detection, conjugacy classes, right-coefficient
polynomials and their root structure, and an independent linear-system
oracle for existence and uniqueness.
"""

from .errors import (
    AlgebraError,
    CollinearityViolated,
    DuplicatePoint,
    InternalNonInvertible,
    MultiPointClassInR03,
    NotInCone,
    NotInvertible,
    ParseError,
    PointNotInCone,
    SignatureMismatch,
    UnsupportedSignature,
    WrongSignature,
)
from .interpolate import (
    ClassGroup,
    ClassGrouping,
    InterpolationProblem,
    OracleResult,
    brute_force_interpolate,
    first_collinearity_violation,
    group_by_class,
    interpolate,
    interpolate_quaternion,
    interpolate_r03,
    lagrange_basis,
    verify_interpolant,
)
from .multivector import (
    HARD_DIM_LIMIT,
    QUATERNIONS,
    R03,
    ConjugacyClassId,
    Multivector,
    Signature,
    from_quaternion_pair,
    same_class,
    to_quaternion_pair,
)
from .poly import (
    MAX_DEGREE,
    AffineRestriction,
    Polynomial,
    RootSet,
    affine_restriction,
    append_root,
    characteristic_poly,
    divide_by_real,
    eval_of_product,
    factor_out_characteristic,
    paravector_root_census,
    real_root_multiplicity,
    roots_in_class,
)

__version__ = "0.1.0"

__all__ = [
    "AffineRestriction",
    "AlgebraError",
    "ClassGroup",
    "ClassGrouping",
    "CollinearityViolated",
    "ConjugacyClassId",
    "DuplicatePoint",
    "HARD_DIM_LIMIT",
    "InternalNonInvertible",
    "InterpolationProblem",
    "MAX_DEGREE",
    "MultiPointClassInR03",
    "Multivector",
    "NotInCone",
    "NotInvertible",
    "OracleResult",
    "ParseError",
    "PointNotInCone",
    "Polynomial",
    "QUATERNIONS",
    "R03",
    "RootSet",
    "Signature",
    "SignatureMismatch",
    "UnsupportedSignature",
    "WrongSignature",
    "affine_restriction",
    "append_root",
    "brute_force_interpolate",
    "characteristic_poly",
    "divide_by_real",
    "eval_of_product",
    "factor_out_characteristic",
    "first_collinearity_violation",
    "from_quaternion_pair",
    "group_by_class",
    "interpolate",
    "interpolate_quaternion",
    "interpolate_r03",
    "lagrange_basis",
    "paravector_root_census",
    "real_root_multiplicity",
    "roots_in_class",
    "same_class",
    "to_quaternion_pair",
    "verify_interpolant",
]
