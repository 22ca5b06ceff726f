"""Nearly Frobenius coproducts as the kernel of a linear constraint system.

A coproduct is determined by its values on the vertex idempotents, and
those values are forced into one block of the tensor square: every term
u (x) v of the value at p satisfies source(u) = p and target(v) = p.  The
solver emits one constraint row per arrow and tensor basis pair; the
verifier below re-checks candidates against the full bimodule condition
on every composable pair of basis paths (all other pairs have zero on
every side), using the algebra's full multiplication rather than arrows,
so the cheap system is never trusted on its own.
"""

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


def build_constraint_system(algebra: AlgebraBasis):
    """The linear system whose kernel is the Frobenius space.

    Unknowns are the coefficients of each candidate value at each vertex,
    one column per (p, u, v) with source(u) = target(v) = p: the support
    condition is imposed structurally, so only arrow constraints remain.
    """
    field = algebra.field
    legend = _support_columns(algebra)

    rows = []
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


def solve_frobenius_space(algebra: AlgebraBasis) -> list:
    """A basis of the space of all nearly Frobenius coproducts.

    One verified CoproductCandidate per kernel vector of the constraint
    system, so the length of the list is the dimension of the space.
    """
    matrix, legend = build_constraint_system(algebra)
    candidates = []
    for vec in kernel_basis(matrix):
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
    return candidates


def extend_coproduct(candidate: CoproductCandidate, w: Path) -> TensorElement:
    """The induced value on a basis path: (w (x) 1) applied at its target.

    Left legs of the value at target(w) must be basis paths (check_support
    guarantees it); a leg that does not start at target(w) contributes zero.
    """
    algebra = candidate.algebra
    basis, index = algebra.basis, algebra.index
    i = index.get(w)
    if i is None:
        raise ValidationError(f"foreign path: {w}")
    products = algebra.product_table[i]
    result = TensorElement(algebra.field)
    for (u, v), c in candidate.value_at(w.target).coefficients.items():
        j = index.get(u)
        if j is None:
            raise SupportViolationError(f"coproduct term {u}(x){v} does not use basis paths")
        for k, value in products.get(j, {}).items():
            result.add_term(basis[k], v, c * value)
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


def _nonzero(terms, zero):
    return {key: value for key, value in terms.items() if value != zero}


def _tensor_of_indices(algebra, terms):
    basis = algebra.basis
    return TensorElement(algebra.field, {(basis[a], basis[b]): c
                                         for (a, b), c in terms.items()})


def verify_coproduct(algebra: AlgebraBasis, candidate: CoproductCandidate):
    """Check the bimodule condition on every composable pair of basis paths.

    For basis paths x, y the three sides are the value on the product,
    D(xy) = sum of c_b D(b) over the coordinates of xy, the left form
    (x (x) 1) D(y) and the right form D(x) (1 (x) y).  Only pairs with
    target(x) = source(y) are visited, because every other pair has zero
    on all three sides once check_support has passed:

    - xy = 0, so D(xy) = 0;
    - D(y) = (y (x) 1) D(e_t) with t = target(y), and every left leg u of
      D(e_t) starts at t, so each left leg of D(y) is a basis path
      parallel to y * u: it starts at source(y) != target(x), and
      x * (left leg) = 0;
    - every right leg of D(e_s), s = target(x), ends at s, and extension
      acts on the left leg only, so each right leg of D(x) ends at
      target(x) != source(y); hence (right leg) * y = 0.

    Pairs are visited in basis order of x, then of y, so the first failing
    pair is the one a walk over all ordered pairs would find.  Products of
    basis paths come from algebra.product_table, built once per algebra.

    This is the independent oracle: it does not share the arrow-only
    shortcut of the constraint system.  Returns (True, None) or
    (False, Counterexample).  Support violations raise instead, since they
    make the candidate malformed rather than merely non-Frobenius.
    """
    candidate.check_support()
    zero = algebra.field.zero
    basis, index = algebra.basis, algebra.index
    products = algebra.product_table

    delta = [{(index[u], index[v]): c
              for (u, v), c in extend_coproduct(candidate, b).coefficients.items()}
             for b in basis]

    for i, row in enumerate(products):
        delta_x = delta[i]
        for j, coords in row.items():
            expected = {}
            for k, ck in coords.items():
                for pair, c in delta[k].items():
                    expected[pair] = expected.get(pair, zero) + ck * c

            left_side = {}
            for (u, v), c in delta[j].items():
                for z, cz in row[u].items():
                    key = (z, v)
                    left_side[key] = left_side.get(key, zero) + c * cz

            right_side = {}
            for (u, v), c in delta_x.items():
                for z, cz in products[v][j].items():
                    key = (u, z)
                    right_side[key] = right_side.get(key, zero) + c * cz

            if expected == left_side == right_side:
                continue  # equal with their zero entries, so equal without them
            expected = _nonzero(expected, zero)
            left_side = _nonzero(left_side, zero)
            right_side = _nonzero(right_side, zero)
            if expected != left_side or expected != right_side:
                return False, Counterexample(
                    basis[i], basis[j], _tensor_of_indices(algebra, expected),
                    _tensor_of_indices(algebra, left_side),
                    _tensor_of_indices(algebra, right_side))
    return True, None


# ---------------------------------------------------------------------------
# JSON coproduct encoding: one object per vertex, paths as arrow name lists,
# trivial paths as {"e": vertex}, scalars as "num/den" strings.

def path_to_json(path: Path):
    if path.is_trivial:
        return {"e": path.source}
    return list(path.arrows)


def _path_from_json(data, quiver):
    if isinstance(data, dict):
        if set(data) != {"e"} or not isinstance(data["e"], str):
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
                "left": path_to_json(u),
                "right": path_to_json(v),
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
