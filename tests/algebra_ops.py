"""Quotient algebra arithmetic on coordinate vectors, used only by tests.

Coordinates are {basis Path: scalar} maps.  `multiply` composes paths
with `compose` and rewrites each product with `AlgebraBasis.reduce_path`.
It never reads `AlgebraBasis.product_table`, so the raw-definition
oracle built on it stays independent of the table the verifier reads.
`extend_coproduct` gives a candidate's induced value on a basis path the
same way.  `has_subword` tells whether an arrow word holds one of the
given words, as a path that is zero modulo monomial generators does.
"""

from frobq.errors import SupportViolationError
from frobq.frobenius import TensorElement
from frobq.quiver import Path


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
        for b, value in algebra.reduce_path(path).items():
            new = field.reduce(result.get(b, field.zero) + field.coerce(coeff) * value)
            if new == field.zero:
                result.pop(b, None)
            else:
                result[b] = new
    return result


def multiply(algebra, x, y):
    """Product of two coordinate vectors over the basis."""
    field = algebra.field
    zero = field.zero
    result = {}
    for u, cu in x.items():
        for v, cv in y.items():
            w = compose(u, v)
            if w is None:
                continue
            coeff = cu * cv
            for b, value in algebra.reduce_path(w).items():
                new = field.reduce(result.get(b, zero) + coeff * value)
                if new == zero:
                    result.pop(b, None)
                else:
                    result[b] = new
    return result


def extend_coproduct(candidate, w):
    """The induced value on a basis path: (w (x) 1) applied at its target.

    Each term u (x) v of the value at target(w) gives w * u (x) v, with
    w * u rewritten by reduce_path; a leg u that does not start at
    target(w) contributes zero.
    """
    algebra = candidate.algebra
    value = TensorElement(algebra.field)
    for (u, v), c in candidate.value_at(w.target).coefficients.items():
        product = compose(w, u)
        if product is not None:
            for b, coeff in algebra.reduce_path(product).items():
                value.add_term(b, v, c * coeff)
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
