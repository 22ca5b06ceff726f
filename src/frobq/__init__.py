"""Exact computation of nearly Frobenius coproduct spaces on path algebra quotients."""

from .errors import (
    FrobqError,
    InfiniteDimensionalError,
    InternalFaultError,
    ParseError,
    SupportViolationError,
    UnsupportedIdealRegimeError,
    ValidationError,
)
from .quiver import Arrow, Path, PathExpr, Quiver
from .linalg import QQ, PrimeField, SparseMatrix, kernel_basis, rank, rref
from .ideal import (
    AlgebraBasis,
    IdealSpec,
    compute_basis,
    compute_bound,
    validate,
)
from .frobenius import (
    CoproductCandidate,
    TensorElement,
    build_constraint_system,
    candidate_from_json,
    candidate_to_json,
    extend_coproduct,
    frobenius_dimension,
    solve_frobenius_space,
    verify_coproduct,
)
from .closed_forms import (
    LocalPatternMatch,
    ToupieClassification,
    detect_local_patterns,
    is_gentle,
    is_radical_square_zero,
    is_string,
    is_string_quadratic,
    radical_square_zero_dimension,
    string_relation_witness,
    toupie_classify,
    witness_coproduct,
)
from .dsl import QuiverDocument, format_document, parse_document

__version__ = "0.1.0"
