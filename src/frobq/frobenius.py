"""Nearly Frobenius coproducts as the kernel of a linear constraint system.

A coproduct is determined by its values on the vertex idempotents, and
those values are forced into one block of the tensor square: every term
u (x) v of the value at p satisfies source(u) = p and target(v) = p.  The
solver emits one constraint row per arrow and tensor basis pair; the
verifier below re-checks candidates against the full bimodule condition
on every composable pair of basis paths that some candidate reaches (all
other pairs have zero on every side), using the algebra's full
multiplication rather than arrows, so the cheap system is never trusted
on its own.  The solver's whole kernel basis is checked in one such
walk.  The solver reads each product off the reduction table by arrow
word; the verifier reads the algebra's int product table, over basis
indices, and computes on exact int representatives: the product table
and each candidate scaled by the lcm of their denominators.

Only a non-monomial ideal's system is built and row-reduced: over a
monomial ideal each product of basis paths is one basis path or zero, so
every row is e_i - e_j or +-e_i, and the kernel is spanned by the
indicator vectors of the components of the graph joining the columns of
each two-entry row that hold no one-entry row.  These are exactly
kernel_basis's vectors, because the RREF is unique and a component's one
column relation has all coefficients equal, so the elimination leaves its
largest column free and makes every other one a pivot.
"""

from math import lcm

from .errors import InternalFaultError, SupportViolationError, ValidationError, shorten
from .ideal import AlgebraBasis
from .linalg import SparseMatrix, kernel_basis
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
        old = self.coefficients.get(key)
        new = self.field.reduce(value if old is None else old + value)
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
        return self._text(str)

    def _text(self, show):
        """The terms joined by " + ", each path written by show."""
        if self.is_zero:
            return "0"
        parts = []
        for (u, v), c in self.sorted_items():
            prefix = "" if c == self.field.one else f"{self.field.format(c)}*"
            parts.append(f"{prefix}{show(u)}(x){show(v)}")
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


_EMPTY = {}


def _columns(algebra: AlgebraBasis):
    """The legend, one column per (p, u, v) with source(u) = target(v) = p,
    {p: [(column, index of u, index of v)]} and the basis paths' words.

    The columns run vertex by vertex, with u and then v in sort_key
    order, so each vertex owns one contiguous range of columns.
    """
    basis = algebra.basis
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
    return legend, columns, [b.arrows for b in basis]


def build_constraint_system(algebra: AlgebraBasis):
    """The linear system whose kernel is the Frobenius space.

    Unknowns are the coefficients of each candidate value at each vertex,
    one column per (p, u, v) with source(u) = target(v) = p, laid out by
    _columns: the support condition is imposed structurally, so only
    arrow constraints remain.

    An arrow a: p -> q gives one row per tensor pair of basis indices in
    (a (x) 1) D(e_q) - D(e_p) (1 (x) a).  The coordinates of a * u and
    v * a are the reduction table's entry for their joined arrow word:
    a is a basis path, since every generator term has length >= 2, and
    a word with no entry is at or past the bound, so zero.  Neither the
    RREF nor the kernel depends on the order of the rows, so the rows
    stay in the order they are built.
    """
    table = algebra.table
    legend, columns, words = _columns(algebra)
    rows = []
    for arrow in algebra.quiver.arrows:
        p, q = arrow.source, arrow.target
        a = (arrow.name,)
        pair_rows = {}
        for col, u, v in columns[q]:
            for w, c in table.get(a + words[u], _EMPTY).items():
                row = pair_rows.setdefault((w, v), {})
                row[col] = row.get(col, 0) + c
        for col, u, v in columns[p]:
            for z, c in table.get(words[v] + a, _EMPTY).items():
                row = pair_rows.setdefault((u, z), {})
                row[col] = row.get(col, 0) - c
        rows.extend(r for row in pair_rows.values() if (r := _reduced(row, algebra.field.reduce)))

    matrix = SparseMatrix(rows, len(legend), algebra.field)
    return matrix, legend


def _monomial_kernel(algebra: AlgebraBasis):
    """(legend, kernel_basis) of a monomial ideal's constraint system, by
    union-find over the columns (the module docstring says why).

    Each row (w, v) of an arrow a: p -> q holds at most the column
    (q, u, v) with a * u = w and the column (p, w, v') with v' * a = v.
    It joins the two, or the one it holds to the node ncols, for zero.
    """
    table = algebra.table
    legend, columns, words = _columns(algebra)
    ncols = len(legend)
    parent = list(range(ncols + 1))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for arrow in algebra.quiver.arrows:
        p, q = arrow.source, arrow.target
        a = (arrow.name,)
        left = {(w, v): col for col, u, v in columns[q] for w in table.get(a + words[u], ())}
        for col, u, v in columns[p]:
            for z in table.get(words[v] + a, ()):
                parent[find(col)] = find(left.pop((u, z), ncols))
        for col in left.values():
            parent[find(col)] = find(ncols)
    components = {}
    for c in range(ncols + 1):
        components.setdefault(find(c), []).append(c)
    del components[find(ncols)]
    live = sorted(components.values(), key=lambda cols: cols[-1])
    return legend, [dict.fromkeys(cols, algebra.field.one) for cols in live]


def _kernel(algebra: AlgebraBasis):
    """(legend, kernel_basis of the constraint system); only a non-monomial
    ideal builds the rows and row-reduces them."""
    if algebra.ideal.is_monomial:
        return _monomial_kernel(algebra)
    matrix, legend = build_constraint_system(algebra)
    return legend, kernel_basis(matrix)


def frobenius_dimension(algebra: AlgebraBasis) -> int:
    """The dimension of the space of nearly Frobenius coproducts.

    The number of kernel vectors solve_frobenius_space would turn into
    candidates; none of them is verified here.
    """
    return len(_kernel(algebra)[1])


def solve_frobenius_space(algebra: AlgebraBasis) -> list:
    """A basis of the space of all nearly Frobenius coproducts.

    One CoproductCandidate per kernel vector of the constraint system, so
    the length of the list is the dimension of the space.  All of them
    are verified together, in one walk over the product table.
    """
    legend, vectors = _kernel(algebra)
    candidates = []
    for vec in vectors:
        values = {}
        for col, value in vec.items():
            p, u, v = legend[col]
            tensor = values.setdefault(p, TensorElement(algebra.field))
            tensor.add_term(u, v, value)
        candidates.append(CoproductCandidate(algebra, values))
    if failure := _first_failure(algebra, candidates):
        raise InternalFaultError(
            "kernel vector failed independent verification at pair "
            f"({failure[1].x}, {failure[1].y}); solver bug"
        )
    return candidates


def _common_denominator(field, tensors):
    """The lcm of the coefficients' denominators (1 over F_p)."""
    return lcm(*(field.denominator(c) for t in tensors for c in t.coefficients.values()))


def _integer_terms(algebra, tensor, scale, n):
    """{(index of u, index of v, n): scale * c as an int} for the terms of tensor."""
    index, integer = algebra.index, algebra.field.integer
    terms = {}
    for (u, v), c in tensor.coefficients.items():
        j, l = index.get(u), index.get(v)
        if j is None or l is None:
            raise SupportViolationError(f"coproduct term {_term(u, v)} does not use basis paths")
        terms[(j, l, n)] = integer(c, scale)
    return terms


def _delta(products, terms, reduce):
    """D(basis[i]) over basis indices, with its zero values dropped.

    products is product_table[i] and terms the int terms, keyed (index,
    index, candidate), of the values at target(basis[i]); each
    candidate's part of the result is scaled by the product of the
    table's scale and its own.
    """
    out = {}
    for (j, l, n), c in terms.items():
        for k, ck in products.get(j, _EMPTY).items():
            key = (k, l, n)
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
    terms = _delta(algebra.product_table[i], _integer_terms(algebra, tensor, scale, 0),
                   algebra.field.reduce)
    return _tensor_of_indices(algebra, terms, scale * algebra.product_scale, 0)


class Counterexample:
    """A failing pair of basis paths, with both sides for error reporting."""

    def __init__(self, x, y, expected, left_side, right_side):
        self.x = x
        self.y = y
        self.expected = expected
        self.left_side = left_side
        self.right_side = right_side

    def describe(self):
        """One line with every arrow and vertex name cut by shorten."""
        return (f"pair ({_short(self.x)}, {_short(self.y)}): "
                f"value on product = {self.expected._text(_short)}, "
                f"(left (x) 1) form = {self.left_side._text(_short)}, "
                f"(1 (x) right) form = {self.right_side._text(_short)}")


def _short(path):
    """str(path) with each arrow or vertex name cut by shorten."""
    if path.is_trivial:
        return f"e_{shorten(path.source)}"
    return "*".join(map(shorten, path.arrows))


def _tensor_of_indices(algebra, terms, scale, n):
    """The TensorElement of candidate n whose coefficients times scale are
    the int terms keyed (index, index, n)."""
    basis, scalar = algebra.basis, algebra.field.scalar
    return TensorElement(algebra.field, {(basis[a], basis[b]): scalar(c, scale)
                                         for (a, b, m), c in terms.items() if m == n})


def verify_coproduct(algebra: AlgebraBasis, candidate: CoproductCandidate):
    """Check the bimodule condition on every composable pair of basis paths.

    This is the independent oracle: it does not share the arrow-only
    shortcut of the constraint system.  Returns (True, None) or
    (False, Counterexample) at the first failing pair.  Support
    violations raise instead, since they make the candidate malformed
    rather than merely non-Frobenius.  The walk is _first_failure's.
    """
    failure = _first_failure(algebra, [candidate])
    return (True, None) if failure is None else (False, failure[1])


def _first_failure(algebra: AlgebraBasis, candidates):
    """(n, Counterexample) for the first of the candidates that fails, or None.

    All candidates are checked in one walk.  Every int term is keyed
    (basis index, basis index, candidate index n), so candidates never
    mix: each side below is linear in the candidate, and its terms keyed
    n are candidate n's side alone.

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

    Of the composable pairs, those no candidate reaches are skipped too.
    Let S be the basis indices b with D(b) != 0 for some candidate, the
    union of the candidates' reach.  A pair with x, y outside S whose
    product xy has no coordinate in S has zero on all three sides for
    every candidate: D(xy) is a combination of D(b) over those
    coordinates, so it is 0; (x (x) 1) D(y) = 0 because D(y) = 0; and
    D(x) (1 (x) y) = 0 because D(x) = 0.  So the skip drops no check.

    Pairs are visited in basis order of x, then of y, so a candidate's
    first failing pair is the one a walk over all ordered pairs would
    find.  Products of basis paths come from algebra.product_table,
    built once per algebra.

    The scalars are exact ints.  Every side is linear in the candidate
    and of degree 2 in the product table, whose ints are product_scale
    times its coordinates; with candidate n's coefficients scaled by the
    lcm L_n of their denominators, its side is an int equal to
    product_scale**2 * L_n times the true side (the scale is 1 over
    F_p).  So the sides agree exactly when their ints do, after
    field.reduce over F_p; a Counterexample maps its sides back with
    field.scalar.

    At the first pair where some candidate fails, n is the lowest such
    candidate, failing there for the first time; the candidates before
    it have passed every pair so far, so they are walked again alone.
    """
    if not candidates:
        return None
    reduce = algebra.field.reduce
    basis = algebra.basis
    products = algebra.product_table
    scales = []
    values = {}
    for n, candidate in enumerate(candidates):
        candidate.check_support()
        scales.append(_common_denominator(algebra.field, candidate.values.values()))
        for vertex, tensor in candidate.values.items():
            values.setdefault(vertex, {}).update(_integer_terms(algebra, tensor, scales[n], n))
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
                for key, c in delta[k].items():
                    expected[key] = expected.get(key, 0) + ck * c

            left_side = {}
            for (u, v, n), c in delta_y.items():
                for z, cz in row[u].items():
                    key = (z, v, n)
                    left_side[key] = left_side.get(key, 0) + c * cz

            right_side = {}
            for (u, v, n), c in delta_x.items():
                for z, cz in products[v][j].items():
                    key = (u, z, n)
                    right_side[key] = right_side.get(key, 0) + c * cz

            if expected == left_side == right_side:
                continue  # equal before reduction, so equal after it
            sides = [_reduced(side, reduce) for side in (expected, left_side, right_side)]
            failing = [key[2] for key in sides[0].keys() | sides[1].keys() | sides[2].keys()
                       if not sides[0].get(key) == sides[1].get(key) == sides[2].get(key)]
            if failing:
                n = min(failing)
                scale = algebra.product_scale ** 2 * scales[n]
                return _first_failure(algebra, candidates[:n]) or (n, Counterexample(
                    basis[i], basis[j], *(_tensor_of_indices(algebra, side, scale, n)
                                          for side in sides)))
    return None


# ---------------------------------------------------------------------------
# JSON coproduct encoding: one object per vertex, paths as arrow name lists,
# trivial paths as {"e": vertex}, scalars as "num/den" strings.

def path_to_json(path: Path):
    if path.is_trivial:
        return {"e": path.source}
    return list(path.arrows)


def _path_from_json(data, quiver, words):
    """The path data encodes.  words maps arrow words to the basis paths
    they spell; any other word is built by quiver.path, which refuses an
    unknown arrow or arrows that do not compose."""
    if isinstance(data, dict):
        if set(data) != {"e"} or not isinstance(data["e"], str):
            raise ValidationError(f"bad path encoding: {shorten(data, repr)}")
        return quiver.trivial_path(data["e"])
    if isinstance(data, list) and all(isinstance(s, str) for s in data):
        word = tuple(data)
        path = words.get(word)
        return quiver.path(word) if path is None else path
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
    words = {p.arrows: p for p in algebra.basis if p.arrows}
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
            u = _path_from_json(term["left"], algebra.quiver, words)
            v = _path_from_json(term["right"], algebra.quiver, words)
            coeff = algebra.field.parse(str(term["coeff"]))
            tensor.add_term(u, v, coeff)
    return CoproductCandidate(algebra, values)
