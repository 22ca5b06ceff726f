"""Nearly Frobenius coproducts as the kernel of a linear constraint system.

A coproduct is determined by its values on the vertex idempotents, and
those values are forced into one block of the tensor square: every term
u (x) v of the value at p satisfies source(u) = p and target(v) = p.  The
solver emits one constraint row per arrow and tensor basis pair; the
verifier below re-checks candidates against the full bimodule condition
on every composable pair of basis paths that the candidate reaches (all
other pairs have zero on every side), using the algebra's full
multiplication rather than arrows, so the cheap system is never trusted
on its own.  Both take every product of basis paths from the algebra's
int product table, over basis indices.  The verifier computes on exact
int representatives: the product table and the candidate each scaled by
the lcm of their denominators.
"""

from math import lcm

from .errors import InternalFaultError, SupportViolationError, ValidationError, shorten
from .ideal import AlgebraBasis
from .linalg import SparseMatrix, kernel_basis, rank
from .quiver import Path


class TensorElement:
    """An element of A (x) A in the induced basis of path pairs."""

    def __init__(self, field, coefficients=None):
        self.field = field
        self.coefficients = {}
        if coefficients:
            for pair, value in coefficients.items():
                value = field.coerce(value)
                if value:
                    self.coefficients[pair] = value

    def add_term(self, u, v, value):
        key = (u, v)
        new = self.field.reduce(self.coefficients.get(key, self.field.zero) + value)
        if not new:
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
            prefix = "" if c == self.field.one else f"{self.field.format(c)}*"
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
                raise SupportViolationError(f"unknown vertex {shorten(vertex)} in coproduct")
            for (u, v) in tensor.coefficients:
                if u not in self.algebra.index or v not in self.algebra.index:
                    raise SupportViolationError(
                        f"coproduct term {_term(u, v)} does not use basis paths"
                    )
                if u.source != vertex or v.target != vertex:
                    raise SupportViolationError(
                        f"term {_term(u, v)} at vertex {shorten(vertex)} breaks the support "
                        f"condition source(left) = target(right) = {shorten(vertex)}"
                    )


def _term(u, v):
    """u (x) v as an error message echoes it, each path cut by shorten."""
    return f"{shorten(str(u))}(x){shorten(str(v))}"


def _reduced(terms, reduce):
    """terms with every value reduced and the zero ones dropped."""
    return {key: r for key, value in terms.items() if (r := reduce(value))}


def build_constraint_system(algebra: AlgebraBasis):
    """The linear system whose kernel is the Frobenius space.

    Unknowns are the coefficients of each candidate value at each vertex,
    one column per (p, u, v) with source(u) = target(v) = p: the support
    condition is imposed structurally, so only arrow constraints remain.
    The legend lists the columns vertex by vertex, with u and then v in
    sort_key order, so each vertex owns one contiguous range of columns.

    An arrow a: p -> q gives one row per tensor pair of basis indices in
    (a (x) 1) D(e_q) - D(e_p) (1 (x) a).  The products a * u and v * a
    come from algebra.product_table, the table the verifier reads; a is
    a basis path, since every generator term has length >= 2.  Over Q
    those ints are product_scale times the true coordinates, so the
    matrix is product_scale times the true one, which has the same RREF
    and kernel.  Neither depends on the order of the rows, so the rows
    stay in the order they are built.
    """
    basis, products = algebra.basis, algebra.product_table
    by_source = {}
    by_target = {}
    for i in sorted(range(len(basis)), key=lambda i: basis[i].sort_key()):
        by_source.setdefault(basis[i].source, []).append(i)
        by_target.setdefault(basis[i].target, []).append(i)
    legend = []
    columns = {}
    for p in algebra.quiver.vertices:
        columns[p] = []
        for u in by_source[p]:
            for v in by_target[p]:
                columns[p].append((len(legend), u, v))
                legend.append((p, basis[u], basis[v]))

    rows = []
    for arrow in algebra.quiver.arrows:
        p, q = arrow.source, arrow.target
        a = algebra.index[Path(p, q, (arrow.name,))]
        pair_rows = {}
        for col, u, v in columns[q]:
            for w, c in products[a][u].items():
                row = pair_rows.setdefault((w, v), {})
                row[col] = row.get(col, 0) + c
        for col, u, v in columns[p]:
            for z, c in products[v][a].items():
                row = pair_rows.setdefault((u, z), {})
                row[col] = row.get(col, 0) - c
        rows.extend(r for row in pair_rows.values() if (r := _reduced(row, algebra.field.reduce)))

    matrix = SparseMatrix(rows, len(legend), algebra.field)
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


def _common_denominator(field, tensors):
    """The lcm of the coefficients' denominators (1 over F_p)."""
    return lcm(*(field.denominator(c) for t in tensors for c in t.coefficients.values()))


def _integer_terms(algebra, tensor, scale):
    """{(index of u, index of v): scale * c as an int} for the terms of tensor."""
    index, integer = algebra.index, algebra.field.integer
    terms = {}
    for (u, v), c in tensor.coefficients.items():
        j, l = index.get(u), index.get(v)
        if j is None or l is None:
            raise SupportViolationError(f"coproduct term {_term(u, v)} does not use basis paths")
        terms[(j, l)] = integer(c, scale)
    return terms


_EMPTY = {}


def _delta(products, terms, reduce):
    """D(basis[i]) over basis indices, with its zero values dropped.

    products is product_table[i] and terms the int terms of the value at
    target(basis[i]); the result is scaled by the product of their scales.
    """
    out = {}
    for (j, l), c in terms.items():
        for k, ck in products.get(j, _EMPTY).items():
            key = (k, l)
            out[key] = out.get(key, 0) + c * ck
    return _reduced(out, reduce)


def extend_coproduct(candidate: CoproductCandidate, w: Path) -> TensorElement:
    """The induced value on a basis path: (w (x) 1) applied at its target.

    Both legs of the value at target(w) must be basis paths (check_support
    guarantees it); a leg that does not start at target(w) contributes
    zero.  Computed on the int representatives verify_coproduct uses.
    """
    algebra = candidate.algebra
    i = algebra.index.get(w)
    if i is None:
        raise ValidationError(f"foreign path: {w}")
    tensor = candidate.value_at(w.target)
    scale = _common_denominator(algebra.field, (tensor,))
    terms = _delta(algebra.product_table[i], _integer_terms(algebra, tensor, scale),
                   algebra.field.reduce)
    return _tensor_of_indices(algebra, terms, scale * algebra.product_scale)


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


def _tensor_of_indices(algebra, terms, scale):
    """The TensorElement of int terms over basis indices that are scale times its coefficients."""
    basis, scalar = algebra.basis, algebra.field.scalar
    return TensorElement(algebra.field, {(basis[a], basis[b]): scalar(c, scale)
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

    Of the composable pairs, those the candidate does not reach are
    skipped too.  Let S be the basis indices b with D(b) != 0.  A pair
    with x, y outside S whose product xy has no coordinate in S has zero
    on all three sides: D(xy) is a combination of D(b) over those
    coordinates, so it is 0; (x (x) 1) D(y) = 0 because D(y) = 0; and
    D(x) (1 (x) y) = 0 because D(x) = 0.  So the skip drops no check.

    Pairs are visited in basis order of x, then of y, so the first failing
    pair is the one a walk over all ordered pairs would find.  Products of
    basis paths come from algebra.product_table, built once per algebra.

    The scalars are exact ints.  Every side is linear in the candidate
    and of degree 2 in the product table, whose ints are product_scale
    times its coordinates; with the candidate's coefficients scaled by
    the lcm L of their denominators, every side is an int equal to
    product_scale**2 * L times the true side (the scale is 1 over F_p).
    So the sides agree exactly when their ints do, after field.reduce
    over F_p; a Counterexample maps its sides back with field.scalar.

    This is the independent oracle: it does not share the arrow-only
    shortcut of the constraint system.  Returns (True, None) or
    (False, Counterexample).  Support violations raise instead, since they
    make the candidate malformed rather than merely non-Frobenius.
    """
    candidate.check_support()
    reduce = algebra.field.reduce
    basis = algebra.basis
    products = algebra.product_table
    candidate_scale = _common_denominator(algebra.field, candidate.values.values())
    values = {vertex: _integer_terms(algebra, tensor, candidate_scale)
              for vertex, tensor in candidate.values.items()}
    delta = [_delta(products[i], terms, reduce) if (terms := values.get(b.target)) else _EMPTY
             for i, b in enumerate(basis)]

    for i, row in enumerate(products):
        delta_x = delta[i]
        for j, coords in row.items():
            delta_y = delta[j]
            if not delta_x and not delta_y:
                for k in coords:
                    if delta[k]:
                        break
                else:
                    continue  # zero on all three sides, see above
            expected = {}
            for k, ck in coords.items():
                for pair, c in delta[k].items():
                    expected[pair] = expected.get(pair, 0) + ck * c

            left_side = {}
            for (u, v), c in delta_y.items():
                for z, cz in row[u].items():
                    key = (z, v)
                    left_side[key] = left_side.get(key, 0) + c * cz

            right_side = {}
            for (u, v), c in delta_x.items():
                for z, cz in products[v][j].items():
                    key = (u, z)
                    right_side[key] = right_side.get(key, 0) + c * cz

            if expected == left_side == right_side:
                continue  # equal before reduction, so equal after it
            expected = _reduced(expected, reduce)
            left_side = _reduced(left_side, reduce)
            right_side = _reduced(right_side, reduce)
            if expected != left_side or expected != right_side:
                scale = algebra.product_scale ** 2 * candidate_scale
                return False, Counterexample(
                    basis[i], basis[j], _tensor_of_indices(algebra, expected, scale),
                    _tensor_of_indices(algebra, left_side, scale),
                    _tensor_of_indices(algebra, right_side, scale))
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
            raise ValidationError(f"bad path encoding: {shorten(data, repr)}")
        return quiver.trivial_path(data["e"])
    if isinstance(data, list) and all(isinstance(s, str) for s in data):
        return quiver.path(data)
    raise ValidationError(f"bad path encoding: {shorten(data, repr)}")


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
            raise ValidationError(f"coproduct entry is not an object: {shorten(entry, repr)}")
        vertex = entry.get("vertex")
        if not isinstance(vertex, str) or vertex not in algebra.quiver.out_arrows:
            raise ValidationError(f"unknown vertex in coproduct: {shorten(vertex, repr)}")
        tensor = values.setdefault(vertex, TensorElement(algebra.field))
        terms = entry.get("terms", [])
        if not isinstance(terms, list):
            raise ValidationError(f"terms at vertex {shorten(vertex, repr)} must be a list")
        for term in terms:
            if not isinstance(term, dict) or not {"left", "right", "coeff"} <= set(term):
                raise ValidationError(
                    f"term at vertex {shorten(vertex, repr)} must be an object with "
                    f"left, right and coeff: {shorten(term, repr)}"
                )
            u = _path_from_json(term["left"], algebra.quiver)
            v = _path_from_json(term["right"], algebra.quiver)
            coeff = algebra.field.parse(str(term["coeff"]))
            tensor.add_term(u, v, coeff)
    return CoproductCandidate(algebra, values)
