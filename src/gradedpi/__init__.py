"""Exact computation with group-graded real algebras and their identities."""

from .algebras import (AlgebraElement, DivisionVerdict, GradedAlgebra,
                       TripleSpec, catalog, catalog_names,
                       check_graded_division, is_invertible,
                       matrix_over_division, quotient_grading, regrade,
                       tensor_product, trivially_graded_complex,
                       trivially_graded_reals, twisted_group_algebra, validate)
from .cache import cached_identity_space, default_cache_dir, space_key
from .errors import (GradedPIError, InadmissibleSubstitution,
                     InvariantViolation, PolynomialSyntaxError,
                     PreconditionError, SpecFormatError)
from .groups import (FinAbGroup, GroupElement, GroupHom, Subgroup, cosets,
                     is_elementary_2group, make_group, make_hom, quotient_hom,
                     squares_subgroup, subgroup_as_group)
from .identities import (EquivalenceReport, GradedPolynomial, IdentitySpace,
                         VarRef, evaluate, identity_space, is_identity,
                         parse_polynomial, same_identities_up_to, theta_image)
from .scalars import CycloScalar, sqrt_of_rational_in_field
from .specfile import (load_algebra_file, parse_algebra, parse_triple,
                       serialize_algebra)
from .structure import (BicharTable, ClassificationReport, EquivDivisionReport,
                        MatrixEquivReport, bicharacter_table, central_support,
                        classify, commutation_factor,
                        complex_commutation_factor, equiv_division,
                        equiv_matrix_over_division, find_complex_unit,
                        normalize_triple)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "BicharTable", "ClassificationReport", "CycloScalar",
    "DivisionVerdict", "EquivDivisionReport", "EquivalenceReport",
    "FinAbGroup", "GradedAlgebra", "GradedPIError", "GradedPolynomial",
    "GroupElement", "GroupHom", "IdentitySpace", "InadmissibleSubstitution",
    "InvariantViolation", "MatrixEquivReport", "PolynomialSyntaxError",
    "PreconditionError", "SpecFormatError", "Subgroup",
    "TripleSpec", "VarRef", "bicharacter_table", "cached_identity_space",
    "catalog", "catalog_names", "central_support", "check_graded_division",
    "classify", "commutation_factor", "complex_commutation_factor", "cosets",
    "default_cache_dir", "equiv_division", "equiv_matrix_over_division",
    "evaluate", "find_complex_unit", "identity_space", "is_elementary_2group",
    "is_identity", "is_invertible", "load_algebra_file", "make_group",
    "make_hom", "matrix_over_division", "normalize_triple",
    "parse_algebra", "parse_polynomial", "parse_triple", "quotient_grading",
    "quotient_hom", "regrade", "same_identities_up_to", "serialize_algebra",
    "space_key", "sqrt_of_rational_in_field", "squares_subgroup",
    "subgroup_as_group", "tensor_product", "theta_image", "trivially_graded_complex",
    "trivially_graded_reals", "twisted_group_algebra", "validate",
]
