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
    build_constraint_system,
    candidate_from_json,
    candidate_to_json,
    frobenius_dimension,
    solve_frobenius_space,
    verify_coproduct,
)
from .dsl import QuiverDocument, format_document, parse_document

__version__ = "0.1.0"
