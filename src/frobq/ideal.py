"""Admissible ideals and normal-form bases of the quotient algebra.

The engine certifies that the quotient is finite dimensional before it
builds anything.  A Kahn pass over the vertices (longest_path) finds an
acyclic quiver finite outright, with bound its longest path + 1.  Only
on a cyclic quiver does a longest-walk pass (longest_surviving_walk)
follow; the quiver is accepted when the walks that avoid the monomial
generators' words reach no cycle, with bound the longest such walk + 1.
A path holding a monomial generator's word is zero, which one recurrence
over path length finds.  Only the other generators' rows, on the other
short paths, are row-reduced, all at once; the pivots give every block.
The tests in tests/, not each call, check that this bound is sound.
"""

from functools import cached_property

from .errors import (
    InfiniteDimensionalError,
    UnsupportedIdealRegimeError,
    ValidationError,
)
from .linalg import QQ, SparseMatrix, rref
from .quiver import Quiver


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
            check_term_length(path)
    return ideal


def check_term_length(path):
    """Refuse a generator term of length below 2."""
    if len(path) < 2:
        raise ValidationError(f"generator term {path} has length {len(path)}; "
                              "admissible ideals sit inside the square of the arrow ideal")


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

    return _kahn(edges, indegree)


def longest_path(quiver: Quiver) -> int | None:
    """longest_surviving_walk(quiver, ()) by a Kahn pass over the vertices
    and arrows alone: each arrow, a loop or a parallel one too, counts in
    its target's in-degree."""
    return _kahn({v: [a.target for a in quiver.out_arrows[v]] for v in quiver.vertices},
                 {v: len(quiver.in_arrows[v]) for v in quiver.vertices})


def _kahn(edges, indegree):
    """The longest walk in the graph of edges (node -> successors) with
    these in-degrees, which it consumes; None when it has a cycle."""
    longest = dict.fromkeys(indegree, 0)
    free = [node for node, degree in indegree.items() if degree == 0]
    while free:
        node = free.pop()
        for nxt in edges[node]:
            longest[nxt] = max(longest[nxt], longest[node] + 1)
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
    longest = longest_path(quiver)
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

    The basis is in canonical order, enumerate_paths': sort_key order with
    the trivial paths by vertex name.  The reduction table rewrites every
    path of length < bound into coordinates over the basis indices.  A
    path is keyed by its arrow word, which fixes it since arrow names are
    unique, and the trivial path e_v by the vertex name v.  Paths of
    length >= bound are zero in the quotient.
    """

    def __init__(self, quiver, ideal, field, bound, basis, table):
        self.quiver = quiver
        self.ideal = ideal
        self.field = field
        self.bound = bound
        self.basis = basis          # tuple of Paths, canonical order
        self.table = table          # {arrow word or vertex: {basis index: scalar}}

    @property
    def dimension(self):
        return len(self.basis)

    @cached_property
    def index(self):
        """index[path] is the place of a basis path in basis; built on first read."""
        return {p: i for i, p in enumerate(self.basis)}

    @cached_property
    def product_table(self):
        """Products of composable basis paths, over basis indices.

        product_table[i][j] is the coordinate map {k: scalar} of
        basis[i] * basis[j] (empty when the product vanishes), for every j
        with source(basis[j]) = target(basis[i]), keyed in basis order.
        Pairs that do not compose have no entry: their product is zero.
        The product is the path of their joined word, e_v when both are
        trivial, so an entry is the reduction table's own map for that
        word, shared; a word with no entry is at or past the bound, so
        zero, and all such entries share one empty map.  Built on the
        verifier's first use and kept, so every verification of this
        algebra shares it; treat it and the table as read-only.
        """
        table, zero = self.table, {}
        starting_at = {}
        for j, b in enumerate(self.basis):
            starting_at.setdefault(b.source, []).append((j, b.arrows))
        return [{j: table.get(a.arrows + w or a.source, zero)
                 for j, w in starting_at.get(a.target, ())}
                for a in self.basis]


def compute_basis(quiver: Quiver, ideal: IdealSpec, field=QQ) -> AlgebraBasis:
    """The normal-form basis of kQ/I over field, as an AlgebraBasis.

    The basis comes in canonical order with no sort: the columns of the
    one row reduction are the live paths in enumerate_paths' order, and
    the basis is its free columns in that order.  The normal form is the
    one each (source, target) block gives reduced alone, however the
    blocks interleave among the columns.  No row crosses a block, so the
    matrix is block diagonal up to the order of its columns; a column is a
    pivot exactly when it is outside the span of the columns before it,
    and only those of its own block can reach it.  So the unique RREF of
    the whole is each block's RREF, on its columns in sort_key order.

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
    # The columns are the live paths in canonical order.  A nontrivial word
    # fixes its path; the ideal's rows hold no trivial one.
    live = [p for p in paths if p.arrows not in table]
    # Only the non-monomial generators' rows read these; a monomial ideal builds none.
    by_target, by_source, column = {}, {}, {}
    for j, p in enumerate(live if not ideal.is_monomial else ()):
        by_target.setdefault(p.target, []).append(p)
        by_source.setdefault(p.source, []).append(p)
        column[p.arrows] = j

    # The ideal is spanned by the zero paths and the rows u * g * v of the
    # other generators with u, v live, each term dropped when its word is
    # not a column: it is zero, or of length >= bound and so zero by the
    # certified bound.  The terms of g have distinct words, so those of
    # u * g * v do too, and all run from source(u) to target(v): no row
    # crosses a block.  Each coefficient is coerced and nonzero, so the
    # matrix adopts the rows as they are.
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

    # Hence the RREF is each block's (see above).  With a unit row for each
    # zero path it would have the same RREF plus those rows.  The free
    # columns, in order, are the basis; each pivot row rewrites its path
    # over them.
    reduced, pivots = rref(SparseMatrix._adopt(rows, len(live), field))
    pivot_set = set(pivots)
    basis = []
    index_of = {}               # column -> basis index
    for j, p in enumerate(live):
        if j not in pivot_set:
            index_of[j] = len(basis)
            table[p.arrows or p.source] = {len(basis): field.one}
            basis.append(p)
    for i, col in enumerate(pivots):
        table[live[col].arrows] = {index_of[j]: field.reduce(-value)
                                   for j, value in reduced.rows[i].items() if j != col}
    return AlgebraBasis(quiver, ideal, field, bound, tuple(basis), table)
