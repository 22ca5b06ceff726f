"""Admissible ideals and normal-form bases of the quotient algebra.

The engine certifies that the quotient is finite dimensional before it
builds anything, with one longest-walk pass (longest_surviving_walk).
An acyclic quiver is finite outright, with bound its longest path + 1.
A cyclic quiver is accepted only when the walks that avoid the monomial
generators' words reach no cycle, with bound the longest such walk + 1.
A path holding a monomial generator's word is zero, which one recurrence
over path length finds.  Only the other generators' rows, on the other
short paths, are row-reduced, all at once; the pivots give every block.
The tests in tests/, not each call, check that this bound is sound.
"""

from functools import cached_property
from math import lcm

from .errors import (
    InfiniteDimensionalError,
    UnsupportedIdealRegimeError,
    ValidationError,
)
from .linalg import QQ, SparseMatrix, rref
from .quiver import Path, Quiver


class IdealSpec:
    """A finite list of parallel-path generators of an admissible ideal."""

    def __init__(self, generators):
        self.generators = tuple(generators)

    @property
    def is_monomial(self):
        return all(g.is_monomial for g in self.generators)

    def monomial_paths(self):
        """Paths generating the monomial part (single-term generators)."""
        return [next(iter(g.terms)) for g in self.generators if g.is_monomial]


def validate(quiver: Quiver, ideal: IdealSpec, field=QQ) -> IdealSpec:
    """Check admissibility of the generator list.

    Every generator must be nonzero over field, parallel (enforced by
    PathExpr), supported on genuine paths of the quiver, and contained in
    the square of the arrow ideal, i.e. all terms have length >= 2.
    """
    for g in ideal.generators:
        if not any(map(field.coerce, g.terms.values())):
            raise ValidationError("zero generator in ideal")
        for path in g.terms:
            if not quiver.has_path(path):
                raise ValidationError(f"generator term is not a path of the quiver: {path}")
            if len(path) < 2:
                raise ValidationError(
                    f"generator term {path} has length {len(path)}; "
                    "admissible ideals sit inside the square of the arrow ideal"
                )
    return ideal


def longest_surviving_walk(quiver: Quiver, forbidden_words) -> int | None:
    """Length of the longest walk with no forbidden arrow word inside it.

    None when such walks are unbounded.  A state is (vertex, longest suffix
    of the walk that is a proper prefix of some forbidden word), and a step
    that completes a forbidden word dies, so walks through the states
    reachable from every (v, ()) are exactly the surviving walks.  One Kahn
    pass over those states gives the longest walk ending at each; a state it
    never frees lies on or after a reachable cycle, which pumps survivors of
    every length.  With no forbidden words the states are the vertices, and
    the result is the quiver's longest path.
    """
    words = {tuple(w) for w in forbidden_words}
    # The empty word is a prefix of every word, so the suffix search below
    # always stops.
    prefixes = {()} | {w[:i] for w in words for i in range(len(w))}
    lengths = {len(w) for w in words}
    stack = [(v, ()) for v in quiver.vertices]
    indegree = dict.fromkeys(stack, 0)
    edges = {}
    while stack:
        state = stack.pop()
        edges[state] = targets = []
        for arrow in quiver.out_arrows[state[0]]:
            walked = state[1] + (arrow.name,)
            # A word ending at this step began with a proper prefix that
            # the state's suffix kept, so the word is a suffix of walked.
            if any(walked[-k:] in words for k in lengths):
                continue
            suffix = next(walked[i:] for i in range(len(walked) + 1) if walked[i:] in prefixes)
            nxt = (arrow.target, suffix)
            if nxt not in indegree:
                stack.append(nxt)
            indegree[nxt] = indegree.get(nxt, 0) + 1
            targets.append(nxt)

    longest = dict.fromkeys(indegree, 0)
    free = [state for state, degree in indegree.items() if degree == 0]
    while free:
        state = free.pop()
        for nxt in edges[state]:
            longest[nxt] = max(longest[nxt], longest[state] + 1)
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                free.append(nxt)
    return None if any(indegree.values()) else max(longest.values())


def compute_bound(quiver: Quiver, ideal: IdealSpec) -> int:
    """Least certified m with every path of length >= m inside the ideal.

    Acyclic quivers need no ideal at all: there are simply no long paths.
    Cyclic quivers must be cut down by the monomial generators alone; when
    they are not, a purely monomial ideal is provably infinite dimensional
    while a mixed one is merely out of scope for this engine.
    """
    longest = longest_surviving_walk(quiver, ())
    if longest is None:
        longest = longest_surviving_walk(quiver, [p.arrows for p in ideal.monomial_paths()])
    if longest is None:
        if ideal.is_monomial:
            raise InfiniteDimensionalError(
                "monomial quotient is infinite dimensional: paths avoiding the "
                "generators wind around a cycle forever"
            )
        raise UnsupportedIdealRegimeError(
            "cyclic quiver whose monomial generators do not certify a finite "
            "quotient; the non-monomial relations are not used for this proof"
        )
    return longest + 1


class AlgebraBasis:
    """Normal-form basis of the quotient of a path algebra.

    basis paths are grouped by (source, target) block and the reduction
    table rewrites every path of length < bound into coordinates over the
    basis indices.  A path is keyed by its arrow word, which fixes it
    since arrow names are unique, and the trivial path e_v by the vertex
    name v.  Paths of length >= bound are zero in the quotient.
    """

    def __init__(self, quiver, ideal, field, bound, basis, blocks, table):
        self.quiver = quiver
        self.ideal = ideal
        self.field = field
        self.bound = bound
        self.basis = basis          # tuple of Paths, canonical order
        self.blocks = blocks        # {(source, target): tuple of Paths}
        self.table = table          # {arrow word or vertex: {basis index: scalar}}
        self.index = {p: i for i, p in enumerate(basis)}

    @property
    def dimension(self):
        return len(self.basis)

    @property
    def product_table(self):
        """Products of composable basis paths, over basis indices, as ints.

        product_table[i][j] is the coordinate map {k: int} of
        basis[i] * basis[j] scaled by product_scale (empty when the product
        vanishes), for every j with source(basis[j]) = target(basis[i]),
        keyed in basis order.  Pairs that do not compose have no entry:
        their product is zero.  product_scale is the lcm of the
        coordinates' denominators (1 over F_p), so every entry is an exact
        int.  Built on the verifier's first use and kept, so every
        verification of this algebra shares it; treat it as read-only.
        """
        return self._products[0]

    @property
    def product_scale(self):
        """The int that scales every coordinate in product_table."""
        return self._products[1]

    @cached_property
    def _products(self):
        """(product_table, product_scale).  The product of composable basis
        paths is the path of their joined word, e_v when both are trivial,
        so each entry is one table lookup, or zero at or past the bound."""
        field, table, bound = self.field, self.table, self.bound
        starting_at = {}
        for j, b in enumerate(self.basis):
            starting_at.setdefault(b.source, []).append((j, b.arrows))
        rows = [{j: table[word or a.source] if len(word := a.arrows + w) < bound else {}
                 for j, w in starting_at.get(a.target, ())}
                for a in self.basis]
        scale = lcm(*(field.denominator(c) for row in rows
                      for coords in row.values() for c in coords.values()))
        for row in rows:
            for j, coords in row.items():
                row[j] = {k: field.integer(c, scale) for k, c in coords.items()}
        return rows, scale

    def reduce_path(self, path: Path):
        """Coordinates {basis Path: scalar} of a single path; zero map when
        the path vanishes.  The map is built afresh on every call."""
        if not self.quiver.has_path(path):
            raise ValidationError(f"foreign path: {path}")
        if len(path) >= self.bound:
            return {}
        return {self.basis[k]: c for k, c in self.table[path.arrows or path.source].items()}


def compute_basis(quiver: Quiver, ideal: IdealSpec, field=QQ) -> AlgebraBasis:
    """The normal-form basis of kQ/I over field, as an AlgebraBasis.

    Raises ValidationError (from validate), InfiniteDimensionalError or
    UnsupportedIdealRegimeError (from compute_bound).  The bound is
    compute_bound's certificate, not proved again here; tests/ check it.
    """
    validate(quiver, ideal, field)
    bound = compute_bound(quiver, ideal)
    # A word is zero modulo the monomial generators when it is one of their
    # words or stays zero without its last or its first arrow.  Paths come
    # shorter first, so both of those are known by then.  Zero paths
    # rewrite to {}, and every other ("live") path gets a column.
    paths = quiver.enumerate_paths(bound - 1)
    words = {p.arrows for p in ideal.monomial_paths()}
    table = {}
    for p in paths if words else ():
        w = p.arrows
        if w in words or w[:-1] in table or w[1:] in table:
            table[w] = {}
    # The columns are grouped by (source, target) block with a stable sort,
    # so each block keeps the canonical order.  A nontrivial word fixes its
    # path; the ideal's rows hold no trivial one.
    paths.sort(key=lambda p: (p.source, p.target))
    blocks = {}
    live = []
    by_target = {}
    by_source = {}
    for p in paths:
        blocks.setdefault((p.source, p.target), [])
        if p.arrows not in table:
            live.append(p)
            by_target.setdefault(p.target, []).append(p)
            by_source.setdefault(p.source, []).append(p)
    column = {p.arrows: j for j, p in enumerate(live)}

    # The ideal is spanned by the zero paths and the rows u * g * v of the
    # other generators with u, v live, each term dropped when its word is
    # not a column: it is zero, or of length >= bound and so zero by the
    # certified bound.  The terms of g have distinct words, so those of
    # u * g * v do too, and all run from source(u) to target(v): no row
    # crosses a block.
    rows = []
    for g in ideal.generators:
        if g.is_monomial:
            continue
        terms = [(t.arrows, c) for t, coeff in g.terms.items() if (c := field.coerce(coeff))]
        for u in by_target.get(g.source(), ()):
            for v in by_source.get(g.target(), ()):
                row = {j: c for t, c in terms
                       if (j := column.get(u.arrows + t + v.arrows)) is not None}
                if row:
                    rows.append(row)

    # Hence the matrix is block diagonal, and its unique RREF is that of
    # each block.  With a unit row for each zero path it would have the
    # same RREF plus those rows.  The free columns, in order, are the basis
    # in (source, target, sort_key) order; each pivot row rewrites its path
    # over them.
    reduced, pivots = rref(SparseMatrix(rows, len(live), field))
    pivot_set = set(pivots)
    basis = []
    index_of = {}               # column -> basis index
    for j, p in enumerate(live):
        if j not in pivot_set:
            index_of[j] = len(basis)
            table[p.arrows or p.source] = {len(basis): field.one}
            blocks[p.source, p.target].append(p)
            basis.append(p)
    for i, col in enumerate(pivots):
        table[live[col].arrows] = {index_of[j]: field.reduce(-value)
                                   for j, value in reduced.rows[i].items() if j != col}
    blocks = {key: tuple(block) for key, block in blocks.items()}
    return AlgebraBasis(quiver, ideal, field, bound, tuple(basis), blocks, table)
