"""Admissible ideals and normal-form bases of the quotient algebra.

The engine certifies that the quotient is finite dimensional before it
builds anything: acyclic quivers are finite outright, and cyclic quivers
are accepted only when the monomial generators alone forbid every cycle
(checked with a subword-avoidance automaton).  The basis is then computed
by row-reducing a spanning set of the ideal inside the space of short
paths, one (source, target) block at a time.
"""

from functools import cached_property
from math import lcm

from .errors import (
    InfiniteDimensionalError,
    InternalFaultError,
    UnsupportedIdealRegimeError,
    ValidationError,
)
from .linalg import QQ, SparseMatrix, rref
from .quiver import Path, Quiver, compose


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


def validate(quiver: Quiver, ideal: IdealSpec) -> IdealSpec:
    """Check admissibility of the generator list.

    Every generator must be nonzero, parallel (enforced by PathExpr),
    supported on genuine paths of the quiver, and contained in the square
    of the arrow ideal, i.e. all terms have length >= 2.
    """
    for g in ideal.generators:
        if g.is_zero:
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


def _prefixes(words):
    out = {()}
    for w in words:
        for i in range(len(w)):
            out.add(w[:i])
    return out


class AvoidanceAutomaton:
    """Walks of the quiver that avoid a set of forbidden arrow words.

    States are (vertex, longest suffix of the walk that is a proper prefix
    of some forbidden word).  A transition dies when it completes a
    forbidden word, so walks through live states correspond exactly to
    surviving paths.
    """

    def __init__(self, quiver, forbidden_paths):
        self.quiver = quiver
        self.words = {p.arrows for p in forbidden_paths}
        self.prefixes = _prefixes(self.words)

    def _step(self, state, arrow):
        suffix = state[1] + (arrow.name,)
        for word in self.words:
            if len(suffix) >= len(word) and suffix[-len(word):] == word:
                return None
        for i in range(len(suffix) + 1):
            if suffix[i:] in self.prefixes:
                return (arrow.target, suffix[i:])
        raise InternalFaultError("suffix bookkeeping broke in avoidance automaton")

    def explore(self):
        """(has_live_cycle, longest_surviving_length or None)."""
        starts = [(v, ()) for v in self.quiver.vertices]
        order = []
        index = {}
        edges = {}
        stack = list(reversed(starts))
        for s in starts:
            index[s] = len(order)
            order.append(s)
        while stack:
            state = stack.pop()
            targets = []
            for arrow in self.quiver.out_arrows[state[0]]:
                nxt = self._step(state, arrow)
                if nxt is None:
                    continue
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    stack.append(nxt)
                targets.append(index[nxt])
            edges[index[state]] = targets

        n = len(order)
        # Iterative depth-first search for a reachable cycle.
        color = [0] * n  # 0 unvisited, 1 on stack, 2 done
        for root in range(n):
            if color[root]:
                continue
            work = [(root, iter(edges[root]))]
            color[root] = 1
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == 1:
                        return True, None
                    if color[nxt] == 0:
                        color[nxt] = 1
                        work.append((nxt, iter(edges[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    work.pop()

        # Acyclic: longest walk by dynamic programming in reverse topological order.
        longest = [0] * n
        done = [False] * n
        for root in range(n):
            if done[root]:
                continue
            work = [(root, iter(edges[root]))]
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if not done[nxt]:
                        work.append((nxt, iter(edges[nxt])))
                        advanced = True
                        break
                if not advanced:
                    longest[node] = max((longest[t] + 1 for t in edges[node]), default=0)
                    done[node] = True
                    work.pop()
        return False, max(longest, default=0)


def compute_bound(quiver: Quiver, ideal: IdealSpec) -> int:
    """Least certified m with every path of length >= m inside the ideal.

    Acyclic quivers need no ideal at all: there are simply no long paths.
    Cyclic quivers must be cut down by the monomial generators alone; when
    they are not, a purely monomial ideal is provably infinite dimensional
    while a mixed one is merely out of scope for this engine.
    """
    longest = quiver.longest_path_length()
    if longest is not None:
        return longest + 1
    monomial_paths = [Path(p.source, p.target, p.arrows) for p in ideal.monomial_paths()]
    has_cycle, survivor = AvoidanceAutomaton(quiver, monomial_paths).explore()
    if has_cycle:
        if ideal.is_monomial:
            raise InfiniteDimensionalError(
                "monomial quotient is infinite dimensional: paths avoiding the "
                "generators wind around a cycle forever"
            )
        raise UnsupportedIdealRegimeError(
            "cyclic quiver whose monomial generators do not certify a finite "
            "quotient; the non-monomial relations are not used for this proof"
        )
    return survivor + 1


class AlgebraBasis:
    """Normal-form basis of the quotient of a path algebra.

    basis paths are grouped by (source, target) block and the reduction
    table rewrites every path of length < bound into coordinates over the
    basis.  Paths of length >= bound are zero in the quotient.
    """

    def __init__(self, quiver, ideal, field, bound, basis, blocks, table):
        self.quiver = quiver
        self.ideal = ideal
        self.field = field
        self.bound = bound
        self.basis = basis          # tuple of Paths, canonical order
        self.blocks = blocks        # {(source, target): tuple of Paths}
        self.table = table          # {Path: {basis Path: scalar}}
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
        int.  Built on first use and kept, so every verification of this
        algebra shares it; treat it as read-only.
        """
        return self._products[0]

    @property
    def product_scale(self):
        """The int that scales every coordinate in product_table."""
        return self._products[1]

    @cached_property
    def _products(self):
        field, index = self.field, self.index
        starting_at = {}
        for j, b in enumerate(self.basis):
            starting_at.setdefault(b.source, []).append((j, b))
        # Rows first hold the reduction table's own maps, then their ints.
        table = [{j: self.reduce_path(compose(a, b)) for j, b in starting_at.get(a.target, ())}
                 for a in self.basis]
        scale = lcm(*(field.denominator(c) for row in table
                      for coords in row.values() for c in coords.values()))
        for row in table:
            for j, coords in row.items():
                row[j] = {index[k]: field.integer(c, scale) for k, c in coords.items()}
        return table, scale

    def reduce_path(self, path: Path):
        """Coordinates of a single path; zero map when the path vanishes.

        The returned map is shared with the reduction table; treat it as
        read-only.
        """
        if len(path) >= self.bound:
            if not self.quiver.has_path(path):
                raise ValidationError(f"foreign path: {path}")
            return {}
        coords = self.table.get(path)
        if coords is None:
            raise ValidationError(f"foreign path: {path}")
        return coords


def compute_basis(quiver: Quiver, ideal: IdealSpec, field=QQ) -> AlgebraBasis:
    validate(quiver, ideal)
    bound = compute_bound(quiver, ideal)
    paths = quiver.enumerate_paths(bound - 1)

    blocks_paths = {}
    for p in paths:
        blocks_paths.setdefault((p.source, p.target), []).append(p)
    for key in blocks_paths:
        blocks_paths[key].sort(key=Path.sort_key)

    # Spanning rows of the ideal inside each block: u * g * v with terms of
    # length >= bound dropped (they are zero in the quotient by the
    # certified bound).
    rows_by_block = {key: [] for key in blocks_paths}
    by_target = {}
    by_source = {}
    for p in paths:
        by_target.setdefault(p.target, []).append(p)
        by_source.setdefault(p.source, []).append(p)
    for g in ideal.generators:
        g_source, g_target = g.source(), g.target()
        min_len = g.min_term_length()
        for u in by_target.get(g_source, ()):
            room_after_u = bound - 1 - len(u) - min_len
            if room_after_u < 0:
                continue
            for v in by_source.get(g_target, ()):
                if len(v) > room_after_u:
                    continue
                row = {}
                for term, coeff in g.terms.items():
                    word = u.arrows + term.arrows + v.arrows
                    if len(word) >= bound:
                        continue
                    p = Path(u.source, v.target, word)
                    new = field.reduce(row.get(p, field.zero) + field.coerce(coeff))
                    if not new:
                        row.pop(p, None)
                    else:
                        row[p] = new
                if row:
                    rows_by_block[(u.source, v.target)].append(row)

    basis = []
    blocks = {}
    table = {}
    for key in sorted(blocks_paths):
        block = blocks_paths[key]
        col_of = {p: j for j, p in enumerate(block)}
        rows = [{col_of[p]: c for p, c in row.items()} for row in rows_by_block[key]]
        matrix = SparseMatrix(rows, len(block), field)
        reduced, pivots = rref(matrix)
        pivot_set = set(pivots)
        block_basis = tuple(p for j, p in enumerate(block) if j not in pivot_set)
        blocks[key] = block_basis
        basis.extend(block_basis)
        for p in block_basis:
            table[p] = {p: field.one}
        for i, col in enumerate(pivots):
            coords = {}
            for j, value in reduced.rows[i].items():
                if j == col:
                    continue
                coords[block[j]] = field.reduce(-value)
            table[block[col]] = coords

    basis.sort(key=lambda p: (p.source, p.target, p.sort_key()))
    algebra = AlgebraBasis(quiver, ideal, field, bound, tuple(basis), blocks, table)
    _closure_check(algebra)
    return algebra


def has_subword(word, subwords):
    """True when one of the arrow words in subwords occurs inside word."""
    for f in subwords:
        if len(f) <= len(word):
            for i in range(len(word) - len(f) + 1):
                if word[i:i + len(f)] == f:
                    return True
    return False


def _closure_check(algebra: AlgebraBasis):
    """Abort when the certified bound and the reduction table disagree.

    Two facts must hold if the construction is sound: paths one short of
    the bound that contain a forbidden monomial word reduce to zero, and
    any product of a basis path with an arrow that reaches the bound is
    justified zero by a forbidden subword.  Failure here is a bug in the
    certificate, never a user error.
    """
    quiver = algebra.quiver
    forbidden = {p.arrows for p in algebra.ideal.monomial_paths()}
    for path, coords in algebra.table.items():
        if len(path) == algebra.bound - 1 and has_subword(path.arrows, forbidden):
            if coords:
                raise InternalFaultError(
                    f"path {path} contains a forbidden word but does not reduce to zero"
                )
    for b in algebra.basis:
        for arrow in quiver.out_arrows[b.target]:
            word = b.arrows + (arrow.name,)
            if len(word) == algebra.bound and not has_subword(word, forbidden):
                raise InternalFaultError(
                    f"product {'*'.join(word)} reaches the bound without justification"
                )
        for arrow in quiver.in_arrows[b.source]:
            word = (arrow.name,) + b.arrows
            if len(word) == algebra.bound and not has_subword(word, forbidden):
                raise InternalFaultError(
                    f"product {'*'.join(word)} reaches the bound without justification"
                )
