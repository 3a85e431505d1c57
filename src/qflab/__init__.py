"""qflab: exact computations with filiform and quasi-filiform nilpotent Lie algebras."""

from qflab.exact import (
    MissingParameterError,
    Poly,
    QflabError,
    SingularMatrixError,
    nullspace,
    parse_poly,
    rat,
    rat_str,
)
from qflab.liealg import (
    Algebra,
    DimensionMismatchError,
    JacobiReport,
    abelian,
    change_of_basis,
    jacobi_check,
)
from qflab.gradation import (
    Filtration,
    GradedAlgebra,
    NonNilpotentError,
    TypeInfo,
    TypeVector,
    gr,
    lower_central_series,
    type_of,
)
from qflab.derivations import (
    derivation_space,
    diagonal_derivations,
    rank_in_basis,
    verify_claimed_weights,
)
from qflab.catalog import (
    FamilySpec,
    InvalidParametersError,
    UnknownFamilyError,
    aij_table,
    extract_constraints,
    generate,
    spec_for,
)
from qflab.isomorphy import Fingerprint, classify_gr, cn_to_qn_transform, fingerprint

__all__ = [
    "Algebra", "DimensionMismatchError", "FamilySpec", "Filtration",
    "Fingerprint", "GradedAlgebra", "InvalidParametersError", "JacobiReport",
    "MissingParameterError", "NonNilpotentError", "Poly", "QflabError",
    "SingularMatrixError", "TypeInfo", "TypeVector",
    "UnknownFamilyError", "abelian", "aij_table", "change_of_basis",
    "classify_gr", "cn_to_qn_transform", "derivation_space",
    "diagonal_derivations", "extract_constraints", "fingerprint", "generate",
    "gr", "jacobi_check", "lower_central_series", "nullspace", "parse_poly",
    "rank_in_basis", "rat", "rat_str", "spec_for", "type_of",
    "verify_claimed_weights",
]
__version__ = "0.1.0"
