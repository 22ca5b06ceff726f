"""Exact computation of nearly Frobenius coproduct spaces on path algebra quotients.

The closed-form names (``detect_local_patterns``, ``toupie_classify``,
``witness_coproduct`` and the rest of ``frobq.closed_forms``) load on
first use, so a process that never reads one never compiles that module.
They are the same objects as ``frobq.closed_forms``'s.
"""

import importlib

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

_CLOSED_FORMS = frozenset({
    "LocalPatternMatch",
    "ToupieClassification",
    "detect_local_patterns",
    "is_gentle",
    "is_radical_square_zero",
    "is_string",
    "is_string_quadratic",
    "radical_square_zero_dimension",
    "string_relation_witness",
    "toupie_classify",
    "witness_coproduct",
})


def __getattr__(name):
    if name not in _CLOSED_FORMS and name != "closed_forms":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importlib, not "from . import closed_forms": that statement first reads
    # the attribute closed_forms through this very function.
    closed_forms = importlib.import_module(".closed_forms", __name__)
    if name == "closed_forms":
        return closed_forms
    value = globals()[name] = getattr(closed_forms, name)
    return value


def __dir__():
    return sorted(set(globals()) | _CLOSED_FORMS | {"closed_forms"})
