"""Quotient algebra arithmetic on coordinate vectors, used only by tests.

Coordinates are {basis Path: scalar} maps, and an element of A (x) A is
a {(Path, Path): scalar} map; `add` sums into either.  `reduce_path`
gives the coordinates of one path from the reduction table, and
`multiply` composes paths with `compose` and rewrites each product with
`reduce_path`.  It never reads `AlgebraBasis.product_table`,
so the raw-definition oracle built on it stays independent of the table
the verifier reads.  `extend_coproduct` gives a candidate's induced value
on a basis path the same way.  `path_terms` and `index_terms` turn a
candidate's {(i, j): c} over basis indices into paths and back,
`terms_text` writes a value over paths as the CLI does, `combine`
sums candidates, `blocks` groups the basis by (source, target), and
`canonical_key` sorts paths into the canonical order the basis is in.
`has_subword` tells whether an arrow word holds one of the given words,
as a path that is zero modulo monomial generators does.
`assert_canonical` checks that scalars are in their field's one form,
and `reference_rref` is a dense-scan Gauss-Jordan that every route of
`rref` is checked against.
"""

from fractions import Fraction

from frobq.errors import SupportViolationError, ValidationError
from frobq.linalg import QQ, SparseMatrix
from frobq.quiver import Path


def assert_canonical(field, scalars):
    """Every scalar is in field's canonical form: over Q an int when it is
    integral, otherwise a Fraction with denominator > 1, never a float or a
    bool; over F_p an int in [0, p)."""
    for value in scalars:
        if field == QQ:
            assert type(value) is int or (
                type(value) is Fraction and value.denominator > 1), repr(value)
        else:
            assert type(value) is int and 0 <= value < field.p, repr(value)


def reference_rref(matrix):
    """Dense-scan Gauss-Jordan: scans every row for every column.

    It pivots on the first nonzero entry at or below the current rank:
    the RREF is unique, so any nonzero pivot gives the same result.
    """
    field = matrix.field
    zero = field.zero
    rows = [dict(row) for row in matrix.rows]
    pivots = []
    rank = 0
    for col in range(matrix.ncols):
        i = next((i for i in range(rank, len(rows))
                  if rows[i].get(col, zero) != zero), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot_value = rows[rank][col]
        if pivot_value != field.one:
            inverse = field.inverse(pivot_value)
            rows[rank] = {j: field.reduce(v * inverse) for j, v in rows[rank].items()}
        pivot_row = rows[rank]
        for k in range(len(rows)):
            if k == rank:
                continue
            factor = rows[k].get(col)
            if factor is None or factor == zero:
                continue
            row = rows[k]
            for j, v in pivot_row.items():
                new = field.reduce(row.get(j, zero) - factor * v)
                if new == zero:
                    row.pop(j, None)
                else:
                    row[j] = new
        pivots.append(col)
        rank += 1
    return SparseMatrix(rows, matrix.ncols, field), pivots


def add(terms, key, value, field):
    """Add value to terms[key] in field; a key whose sum is zero is dropped."""
    new = field.reduce(terms.get(key, field.zero) + value)
    if new == field.zero:
        terms.pop(key, None)
    else:
        terms[key] = new


def path_terms(algebra, terms):
    """{(i, j): c} over basis indices as {(basis[i], basis[j]): c}."""
    basis = algebra.basis
    return {(basis[i], basis[j]): c for (i, j), c in terms.items()}


def index_terms(algebra, terms):
    """{(u, v): c} over paths as {(i, j): c} over basis indices, the form
    CoproductCandidate takes; a leg that is no basis path stays its Path."""
    index = algebra.index
    return {(index.get(u, u), index.get(v, v)): c for (u, v), c in terms.items()}


def terms_text(field, terms, show=str):
    """{(Path, Path): c} as the CLI writes a value: the terms in
    Path.sort_key order of their legs, joined by " + ", each leg written
    by show and each c other than 1 as a prefix "c*"; "0" when empty."""
    if not terms:
        return "0"
    ordered = sorted(terms.items(), key=lambda t: (t[0][0].sort_key(), t[0][1].sort_key()))
    return " + ".join(("" if c == field.one else f"{c}*") + f"{show(u)}(x){show(v)}"
                      for (u, v), c in ordered)


def combine(algebra, weighted):
    """The values {vertex: {(i, j): c}} of the sum of factor * candidate over
    the (factor, candidate) pairs of weighted."""
    values = {}
    for factor, candidate in weighted:
        for vertex, terms in candidate.values.items():
            total = values.setdefault(vertex, {})
            for key, c in terms.items():
                add(total, key, factor * c, algebra.field)
    return values


def blocks(algebra):
    """{(source, target): tuple of basis paths} over the nonempty blocks,
    each block's paths in basis order."""
    grouped = {}
    for p in algebra.basis:
        grouped.setdefault((p.source, p.target), []).append(p)
    return {key: tuple(paths) for key, paths in grouped.items()}


def canonical_key(path):
    """The sort key of canonical order: Path.sort_key, then the source,
    which orders the trivial paths, the only ones sort_key ties, by vertex
    name."""
    return (*path.sort_key(), path.source)


def compose(p, q):
    """Concatenate two paths, or return None when endpoints mismatch.

    Non-composability is an ordinary value here because the path algebra
    product is zero in that case, not an error.
    """
    if p.target != q.source:
        return None
    return Path(p.source, q.target, p.arrows + q.arrows)


def has_subword(word, subwords):
    """True when one of the arrow words in subwords occurs inside word."""
    for f in subwords:
        if len(f) <= len(word):
            for i in range(len(word) - len(f) + 1):
                if word[i:i + len(f)] == f:
                    return True
    return False


def reduce_path(algebra, path):
    """Coordinates {basis Path: scalar} of a single path; zero map when
    the path vanishes.  The map is built afresh on every call."""
    if not algebra.quiver.has_path(path):
        raise ValidationError(f"foreign path: {path}")
    if len(path) >= algebra.bound:
        return {}
    return {algebra.basis[k]: c for k, c in algebra.table[path.arrows or path.source].items()}


def coords_of(algebra, path):
    return {path: algebra.field.one}


def unit(algebra):
    """Coordinates of the identity, the sum of all trivial idempotents."""
    one = algebra.field.one
    return {algebra.quiver.trivial_path(v): one for v in algebra.quiver.vertices}


def reduce(algebra, expr):
    """Linear extension of reduce_path to path expressions."""
    field = algebra.field
    result = {}
    for path, coeff in expr.terms.items():
        for b, value in reduce_path(algebra, path).items():
            add(result, b, field.coerce(coeff) * value, field)
    return result


def multiply(algebra, x, y):
    """Product of two coordinate vectors over the basis."""
    result = {}
    for u, cu in x.items():
        for v, cv in y.items():
            w = compose(u, v)
            if w is None:
                continue
            coeff = cu * cv
            for b, value in reduce_path(algebra, w).items():
                add(result, b, coeff * value, algebra.field)
    return result


def extend_coproduct(candidate, w):
    """The induced value on a basis path, {(Path, Path): c}: (w (x) 1)
    applied at its target.

    Each term u (x) v of the value at target(w) gives w * u (x) v, with
    w * u rewritten by reduce_path; a leg u that does not start at
    target(w) contributes zero.
    """
    algebra = candidate.algebra
    value = {}
    for (u, v), c in path_terms(algebra, candidate.values.get(w.target, {})).items():
        product = compose(w, u)
        if product is not None:
            for b, coeff in reduce_path(algebra, product).items():
                add(value, (b, v), c * coeff, algebra.field)
    return value


def coefficient_vector(candidate, legend_index):
    """The candidate as a {column: scalar} vector over a constraint legend."""
    vec = {}
    for vertex, terms in candidate.values.items():
        for (u, v), value in terms.items():
            col = legend_index.get((vertex, u, v))
            if col is None:
                raise SupportViolationError(
                    f"term {u}(x){v} at {vertex} is outside the support block"
                )
            vec[col] = value
    return vec
