"""Nearly Frobenius coproducts as the kernel of a linear constraint system.

A coproduct is determined by its values on the vertex idempotents, and
those values are forced into one block of the tensor square: every term
u (x) v of the value at p satisfies source(u) = p and target(v) = p.  The
solver emits one constraint row per arrow and tensor basis pair; the
verifier below re-checks candidates against the full bimodule condition
on all ordered pairs of basis paths, so the cheap system is never trusted
on its own.
"""

import json

from .errors import InternalFaultError, SupportViolationError, ValidationError
from .ideal import AlgebraBasis
from .linalg import SparseMatrix, kernel_basis, rank
from .quiver import Path, compose


class TensorElement:
    """An element of A (x) A in the induced basis of path pairs."""

    def __init__(self, field, coefficients=None):
        self.field = field
        self.coefficients = {}
        if coefficients:
            for pair, value in coefficients.items():
                if value != field.zero:
                    self.coefficients[pair] = value

    def add_term(self, u, v, value):
        key = (u, v)
        new = self.coefficients.get(key, self.field.zero) + value
        if new == self.field.zero:
            self.coefficients.pop(key, None)
        else:
            self.coefficients[key] = new

    def scaled(self, factor):
        out = TensorElement(self.field)
        if factor != self.field.zero:
            for pair, value in self.coefficients.items():
                out.coefficients[pair] = value * factor
        return out

    @property
    def is_zero(self):
        return not self.coefficients

    def sorted_items(self):
        return sorted(self.coefficients.items(),
                      key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.coefficients == other.coefficients

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for (u, v), c in self.sorted_items():
            prefix = "" if c == self.field.one else f"{c}*"
            parts.append(f"{prefix}{u}(x){v}")
        return " + ".join(parts)


class CoproductCandidate:
    """A candidate coproduct, given by its value on every idempotent."""

    def __init__(self, algebra: AlgebraBasis, values=None):
        self.algebra = algebra
        self.values = {}
        if values:
            for vertex, tensor in values.items():
                if not tensor.is_zero:
                    self.values[vertex] = tensor

    def value_at(self, vertex):
        return self.values.get(vertex, TensorElement(self.algebra.field))

    @property
    def is_zero(self):
        return not self.values

    def check_support(self):
        for vertex, tensor in self.values.items():
            if vertex not in self.algebra.quiver.out_arrows:
                raise SupportViolationError(f"unknown vertex {vertex} in coproduct")
            for (u, v) in tensor.coefficients:
                if u not in self.algebra.index or v not in self.algebra.index:
                    raise SupportViolationError(
                        f"coproduct term {u}(x){v} does not use basis paths"
                    )
                if u.source != vertex or v.target != vertex:
                    raise SupportViolationError(
                        f"term {u}(x){v} at vertex {vertex} breaks the support "
                        f"condition source(left) = target(right) = {vertex}"
                    )

    def coefficient_vector(self, legend_index):
        vec = {}
        for vertex, tensor in self.values.items():
            for (u, v), value in tensor.coefficients.items():
                col = legend_index.get((vertex, u, v))
                if col is None:
                    raise SupportViolationError(
                        f"term {u}(x){v} at {vertex} is outside the support block"
                    )
                vec[col] = value
        return vec


class FrobeniusSpace:
    """A basis of the space of all nearly Frobenius coproducts."""

    def __init__(self, algebra, dimension, basis):
        self.algebra = algebra
        self.dimension = dimension
        self.basis = list(basis)


def _support_columns(algebra: AlgebraBasis):
    """Columns (p, u, v) with source(u) = p and target(v) = p, fixed order."""
    by_source = {}
    by_target = {}
    for b in algebra.basis:
        by_source.setdefault(b.source, []).append(b)
        by_target.setdefault(b.target, []).append(b)
    for d in (by_source, by_target):
        for paths in d.values():
            paths.sort(key=Path.sort_key)
    legend = []
    for p in algebra.quiver.vertices:
        for u in by_source.get(p, ()):
            for v in by_target.get(p, ()):
                legend.append((p, u, v))
    return legend


def _all_pair_columns(algebra: AlgebraBasis):
    legend = []
    for p in algebra.quiver.vertices:
        for u in algebra.basis:
            for v in algebra.basis:
                legend.append((p, u, v))
    return legend


def build_constraint_system(algebra: AlgebraBasis, restrict_support=True):
    """The linear system whose kernel is the Frobenius space.

    Unknowns are the coefficients of each candidate value at each vertex.
    With restrict_support=True (the default) the support condition is
    imposed structurally; the unrestricted variant keeps every pair and
    adds the idempotent constraints explicitly, and exists so tests can
    confirm both formulations agree.
    """
    field = algebra.field
    legend = _support_columns(algebra) if restrict_support else _all_pair_columns(algebra)
    legend_index = {key: i for i, key in enumerate(legend)}

    rows = []
    if not restrict_support:
        # e_p * u = 0 unless u starts at p; same on the right leg.
        for col, (p, u, v) in enumerate(legend):
            if u.source != p or v.target != p:
                rows.append({col: field.one})

    for arrow in algebra.quiver.arrows:
        p, q = arrow.source, arrow.target
        arrow_path = Path(p, q, (arrow.name,))
        # Coefficient of each tensor pair in (arrow (x) 1) D(e_q) - D(e_p) (1 (x) arrow).
        pair_rows = {}
        for col, (vertex, u, v) in enumerate(legend):
            if vertex == q:
                left = compose(arrow_path, u)
                if left is not None:
                    for w, c in algebra.reduce_path(left).items():
                        row = pair_rows.setdefault((w, v), {})
                        row[col] = row.get(col, field.zero) + c
            if vertex == p:
                right = compose(v, arrow_path)
                if right is not None:
                    for z, c in algebra.reduce_path(right).items():
                        row = pair_rows.setdefault((u, z), {})
                        row[col] = row.get(col, field.zero) - c
        for pair in sorted(pair_rows, key=lambda wz: (wz[0].sort_key(), wz[1].sort_key())):
            row = {col: c for col, c in pair_rows[pair].items() if c != field.zero}
            if row:
                rows.append(row)

    matrix = SparseMatrix.from_rows(rows, len(legend), field)
    return matrix, legend


def frobenius_dimension(algebra: AlgebraBasis) -> int:
    matrix, legend = build_constraint_system(algebra)
    return len(legend) - rank(matrix)


def solve_frobenius_space(algebra: AlgebraBasis) -> FrobeniusSpace:
    matrix, legend = build_constraint_system(algebra)
    kernel = kernel_basis(matrix)
    candidates = []
    for vec in kernel.vectors:
        values = {}
        for col, value in vec.items():
            p, u, v = legend[col]
            tensor = values.setdefault(p, TensorElement(algebra.field))
            tensor.add_term(u, v, value)
        candidate = CoproductCandidate(algebra, values)
        ok, counterexample = verify_coproduct(algebra, candidate)
        if not ok:
            raise InternalFaultError(
                "kernel vector failed independent verification at pair "
                f"({counterexample.x}, {counterexample.y}); solver bug"
            )
        candidates.append(candidate)
    return FrobeniusSpace(algebra, kernel.dimension, candidates)


def extend_coproduct(candidate: CoproductCandidate, w: Path) -> TensorElement:
    """The induced value on a basis path: (w (x) 1) applied at its target."""
    algebra = candidate.algebra
    if w not in algebra.index:
        raise ValidationError(f"foreign path: {w}")
    result = TensorElement(algebra.field)
    base = candidate.value_at(w.target)
    for (u, v), c in base.coefficients.items():
        left = compose(w, u)
        if left is None:
            continue
        for z, value in algebra.reduce_path(left).items():
            result.add_term(z, v, c * value)
    return result


class Counterexample:
    """A failing pair of basis paths, with both sides for error reporting."""

    def __init__(self, x, y, expected, left_side, right_side):
        self.x = x
        self.y = y
        self.expected = expected
        self.left_side = left_side
        self.right_side = right_side

    def describe(self):
        return (f"pair ({self.x}, {self.y}): value on product = {self.expected}, "
                f"(left (x) 1) form = {self.left_side}, "
                f"(1 (x) right) form = {self.right_side}")


def verify_coproduct(algebra: AlgebraBasis, candidate: CoproductCandidate):
    """Check the bimodule condition on all ordered pairs of basis paths.

    This is the independent oracle: it does not share the arrow-only
    shortcut of the constraint system.  Returns (True, None) or
    (False, Counterexample).  Support violations raise instead, since they
    make the candidate malformed rather than merely non-Frobenius.
    """
    candidate.check_support()
    field = algebra.field

    delta = {b: extend_coproduct(candidate, b) for b in algebra.basis}

    def delta_of_coords(coords):
        out = TensorElement(field)
        for b, c in coords.items():
            for pair, value in delta[b].coefficients.items():
                out.add_term(pair[0], pair[1], c * value)
        return out

    for x in algebra.basis:
        for y in algebra.basis:
            product = compose(x, y)
            coords = algebra.reduce_path(product) if product is not None else {}
            expected = delta_of_coords(coords)

            left_side = TensorElement(field)
            for (u, v), c in delta[y].coefficients.items():
                glued = compose(x, u)
                if glued is None:
                    continue
                for z, value in algebra.reduce_path(glued).items():
                    left_side.add_term(z, v, c * value)

            right_side = TensorElement(field)
            for (u, v), c in delta[x].coefficients.items():
                glued = compose(v, y)
                if glued is None:
                    continue
                for z, value in algebra.reduce_path(glued).items():
                    right_side.add_term(u, z, c * value)

            if expected != left_side or expected != right_side:
                return False, Counterexample(x, y, expected, left_side, right_side)
    return True, None


# ---------------------------------------------------------------------------
# JSON coproduct encoding: one object per vertex, paths as arrow name lists,
# trivial paths as {"e": vertex}, scalars as "num/den" strings.

def _path_to_json(path: Path):
    if path.is_trivial:
        return {"e": path.source}
    return list(path.arrows)

def _path_from_json(data, quiver):
    if isinstance(data, dict):
        if set(data) != {"e"}:
            raise ValidationError(f"bad path encoding: {data!r}")
        return quiver.trivial_path(data["e"])
    if isinstance(data, list) and all(isinstance(s, str) for s in data):
        return quiver.path(data)
    raise ValidationError(f"bad path encoding: {data!r}")


def candidate_to_json(candidate: CoproductCandidate):
    out = []
    for vertex in candidate.algebra.quiver.vertices:
        tensor = candidate.values.get(vertex)
        if tensor is None or tensor.is_zero:
            continue
        terms = []
        for (u, v), c in tensor.sorted_items():
            terms.append({
                "left": _path_to_json(u),
                "right": _path_to_json(v),
                "coeff": candidate.algebra.field.format(c),
            })
        out.append({"vertex": vertex, "terms": terms})
    return out


def candidate_from_json(data, algebra: AlgebraBasis) -> CoproductCandidate:
    if isinstance(data, dict) and "coproduct" in data:
        data = data["coproduct"]
    if not isinstance(data, list):
        raise ValidationError("coproduct file must be a list of per-vertex objects")
    values = {}
    for entry in data:
        if not isinstance(entry, dict):
            raise ValidationError(f"coproduct entry is not an object: {entry!r}")
        vertex = entry.get("vertex")
        if not isinstance(vertex, str) or vertex not in algebra.quiver.out_arrows:
            raise ValidationError(f"unknown vertex in coproduct: {vertex!r}")
        tensor = values.setdefault(vertex, TensorElement(algebra.field))
        terms = entry.get("terms", [])
        if not isinstance(terms, list):
            raise ValidationError(f"terms at vertex {vertex!r} must be a list")
        for term in terms:
            if not isinstance(term, dict) or not {"left", "right", "coeff"} <= set(term):
                raise ValidationError(
                    f"term at vertex {vertex!r} must be an object with "
                    f"left, right and coeff: {term!r}"
                )
            u = _path_from_json(term["left"], algebra.quiver)
            v = _path_from_json(term["right"], algebra.quiver)
            coeff = algebra.field.parse(str(term["coeff"]))
            tensor.add_term(u, v, coeff)
    return CoproductCandidate(algebra, values)


def candidate_dumps(candidate: CoproductCandidate) -> str:
    payload = {"schema": "frobq/1", "coproduct": candidate_to_json(candidate)}
    return json.dumps(payload, indent=2) + "\n"
