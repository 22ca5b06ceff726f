"""Closed-form dimension results, pattern witnesses and classifications.

Everything in this module has an independent route through the generic
solver; tests cross-check the two.  The radical square zero dimension is
a count over vertex and arrow degrees, the local patterns yield explicit
witness coproducts that must verify, and the toupie classifier predicts
the dimension statement that the solver then has to reproduce.
"""

from .errors import ValidationError
from .frobenius import CoproductCandidate, TensorElement, verify_coproduct
from .ideal import AlgebraBasis, IdealSpec, validate
from .linalg import QQ, SparseMatrix, rref
from .quiver import Path, Quiver


# ---------------------------------------------------------------------------
# Radical square zero

def is_radical_square_zero(algebra: AlgebraBasis) -> bool:
    """True when every length-2 path dies, i.e. no basis path has length >= 2."""
    return all(len(p) <= 1 for p in algebra.basis)


def radical_square_zero_dimension(quiver: Quiver) -> int:
    """Dimension of the coproduct space of the radical square zero algebra.

    The count is sum_v in(v) * out(v) plus the number of arrows a with
    out(source a) = 1 = in(target a).  It comes from a quotient of formal
    spans of pairs x (x) y of trivial paths and arrows.  The numerator N
    is spanned by, at each vertex p, (arrow out of p) (x) (e_p or arrow
    into p) and e_p (x) (arrow into p).  The denominator D kills the e_p
    legs at vertices of in/out degree two or more and glues the two legs
    of each arrow with arrow (x) e_source - e_target (x) arrow.  Every
    vector of D lies in N, and the relators touch disjoint pairs of
    coordinates.  So N/D keeps the arrow (x) arrow pairs, and one class for
    each arrow whose two e legs D does not kill.
    """
    if not quiver.arrows:
        raise ValidationError("dimension formula needs at least one arrow")
    ins, outs = quiver.in_arrows, quiver.out_arrows
    return (sum(len(ins[v]) * len(outs[v]) for v in quiver.vertices)
            + sum(len(outs[a.source]) == 1 == len(ins[a.target]) for a in quiver.arrows))


# ---------------------------------------------------------------------------
# Local vertex patterns

class LocalPatternMatch:
    """One of the five local configurations that force a nonzero coproduct.

    in_arrows/out_arrows are the arrows of the matched vertex, sorted by
    name; vanishing lists the length-2 compositions that reduce to zero,
    as witnessed by the ideal, and surviving those that do not.
    """

    def __init__(self, pattern, vertex, in_arrows, out_arrows, vanishing, surviving=()):
        self.pattern = pattern
        self.vertex = vertex
        self.in_arrows = in_arrows
        self.out_arrows = out_arrows
        self.vanishing = vanishing
        self.surviving = surviving


def _composition_vanishes(algebra, incoming, outgoing):
    # A word at or past the bound has no table entry: it is zero too.
    return not algebra.table.get((incoming.name, outgoing.name))


def detect_local_patterns(algebra: AlgebraBasis):
    """Scan every vertex for the five coproduct-forcing configurations.

    Vanishing is judged after full reduction, not just against the listed
    generators.  A vertex whose four compositions all vanish reports the
    most specific pattern (4), not its two pattern-3 weakenings.
    """
    quiver = algebra.quiver
    matches = []
    for v in quiver.vertices:
        ins = sorted(quiver.in_arrows[v], key=lambda a: a.name)
        outs = sorted(quiver.out_arrows[v], key=lambda a: a.name)
        dead, alive = [], []
        for a in ins:
            for b in outs:
                pair = Path(a.source, b.target, (a.name, b.name))
                (dead if _composition_vanishes(algebra, a, b) else alive).append(pair)
        shape = (len(ins), len(outs))
        pattern = None
        if shape == (2, 1) and len(dead) == 2:
            pattern = 1
        elif shape == (1, 2) and len(dead) == 2:
            pattern = 2
        elif shape == (2, 2) and len(dead) == 4:
            pattern = 4
        elif shape == (2, 2) and len(dead) == 3:
            pattern = 3
        elif shape == (1, 1) and len(dead) == 1:
            pattern = 5
        if pattern is not None:
            matches.append(LocalPatternMatch(
                pattern, v,
                tuple(a.name for a in ins),
                tuple(b.name for b in outs),
                tuple(dead),
                tuple(alive),
            ))
    return matches


def witness_coproduct(match: LocalPatternMatch, algebra: AlgebraBasis) -> CoproductCandidate:
    """One explicit nonzero coproduct for a pattern match.

    The value at the matched vertex is (out-arrow) (x) (in-arrow); for
    pattern 3 the legs are the out-arrow annihilated by both in-arrows
    and the in-arrow annihilated by both out-arrows, for the other
    patterns the first arrows in name order.  The candidate is verified
    before it is returned.
    """
    quiver = algebra.quiver
    v = match.vertex
    if match.pattern == 3:
        surviving = match.surviving[0]
        in_name = next(n for n in match.in_arrows if n != surviving.arrows[0])
        out_name = next(n for n in match.out_arrows if n != surviving.arrows[1])
    else:
        in_name = match.in_arrows[0]
        out_name = match.out_arrows[0]
    left = quiver.path([out_name])
    right = quiver.path([in_name])
    tensor = TensorElement(algebra.field)
    tensor.add_term(left, right, algebra.field.one)
    candidate = CoproductCandidate(algebra, {v: tensor})
    ok, counterexample = verify_coproduct(algebra, candidate)
    if not ok:
        raise ValidationError(
            "pattern preconditions not satisfied by ideal; "
            + counterexample.describe()
        )
    return candidate


# ---------------------------------------------------------------------------
# String algebras

def special_biserial_violation(algebra: AlgebraBasis):
    """First violated condition as a message, or None when special biserial.

    Checks that every vertex emits and receives at most two arrows, and
    that every arrow has at most one surviving continuation on each side.
    """
    quiver = algebra.quiver
    for v in quiver.vertices:
        indeg, outdeg = quiver.degrees(v)
        if outdeg > 2:
            return f"vertex {v} is the source of {outdeg} arrows"
        if indeg > 2:
            return f"vertex {v} is the target of {indeg} arrows"
    for a in quiver.arrows:
        continuations = [b for b in quiver.out_arrows[a.target]
                         if not _composition_vanishes(algebra, a, b)]
        if len(continuations) > 1:
            names = ", ".join(b.name for b in continuations)
            return f"arrow {a.name} has several surviving continuations: {names}"
        predecessors = [b for b in quiver.in_arrows[a.source]
                        if not _composition_vanishes(algebra, b, a)]
        if len(predecessors) > 1:
            names = ", ".join(b.name for b in predecessors)
            return f"arrow {a.name} has several surviving predecessors: {names}"
    return None


def is_string(algebra: AlgebraBasis) -> bool:
    return algebra.ideal.is_monomial and special_biserial_violation(algebra) is None


def is_string_quadratic(algebra: AlgebraBasis) -> bool:
    """Monomial, and every generator of length >= 3 holds a shorter zero path."""
    return algebra.ideal.is_monomial and all(
        len(w) == 2 or not (algebra.table.get(w[:-1]) and algebra.table.get(w[1:]))
        for w in (p.arrows for p in algebra.ideal.monomial_paths()))


def is_gentle(algebra: AlgebraBasis) -> bool:
    """String with quadratic relations and at most one forbidden pair per side."""
    if not is_string(algebra) or not is_string_quadratic(algebra):
        return False
    quiver = algebra.quiver
    for a in quiver.arrows:
        forbidden_after = [b for b in quiver.out_arrows[a.target]
                           if _composition_vanishes(algebra, a, b)]
        if len(forbidden_after) > 1:
            return False
        forbidden_before = [b for b in quiver.in_arrows[a.source]
                            if _composition_vanishes(algebra, b, a)]
        if len(forbidden_before) > 1:
            return False
    return True


def string_relation_witness(algebra: AlgebraBasis, relation: Path) -> CoproductCandidate:
    """Witness coproduct carried by one long monomial relation.

    For a relation a_1 ... a_s of length s >= 3 on a string bound quiver,
    the candidate's value at a vertex is the sum of (tail after position i)
    (x) (head up to i) over the 0 < i < s where the relation passes it,
    which on a cycle (x*x*x on a loop, say) is more than one i.
    """
    quiver, ideal = algebra.quiver, algebra.ideal
    if not ideal.is_monomial:
        raise ValidationError("string relation witness needs a monomial ideal")
    violation = special_biserial_violation(algebra)
    if violation is not None:
        raise ValidationError(f"not a string bound quiver: {violation}")
    if relation.arrows not in {p.arrows for p in ideal.monomial_paths()}:
        raise ValidationError(f"{relation} is not a generator of the ideal")
    s = len(relation)
    if s < 3:
        raise ValidationError("relation must have length >= 3; shorter relations "
                              "are covered by the local pattern witnesses")
    values = {}
    for i in range(1, s):
        head = quiver.path(relation.arrows[:i])
        tail = quiver.path(relation.arrows[i:])
        tensor = values.setdefault(head.target, TensorElement(algebra.field))
        for left, cl in algebra.reduce_path(tail).items():
            for right, cr in algebra.reduce_path(head).items():
                tensor.add_term(left, right, cl * cr)
    candidate = CoproductCandidate(algebra, values)
    ok, counterexample = verify_coproduct(algebra, candidate)
    if not ok:
        raise ValidationError(
            "string relation witness failed verification; "
            + counterexample.describe()
        )
    return candidate


# ---------------------------------------------------------------------------
# Toupie algebras

LINEAR_AN = "LINEAR_An"
GENERALIZED_DIAMOND = "GENERALIZED_DIAMOND"
M_ZERO_OTHER = "M_ZERO_OTHER"
M_POSITIVE = "M_POSITIVE"


class ToupieClassification:
    """A toupie's kind and the dimension statement it predicts.

    branches holds one arrow name tuple per branch, monomial_branches the
    indices of the branches that carry monomial relations, independent_rank
    the number of linearly independent branch classes, and prediction one
    of "=0", "=1" or ">=1".
    """

    def __init__(self, kind, source, sink, branches, monomial_branches,
                 independent_rank, prediction):
        self.kind = kind
        self.source = source
        self.sink = sink
        self.branches = branches
        self.monomial_branches = monomial_branches
        self.independent_rank = independent_rank
        self.prediction = prediction

    @property
    def branch_lengths(self):
        return tuple(len(b) for b in self.branches)

    @property
    def monomial_relation_branch_count(self):
        return len(self.monomial_branches)

    def prediction_holds(self, dimension: int) -> bool:
        if self.prediction == "=0":
            return dimension == 0
        if self.prediction == "=1":
            return dimension == 1
        return dimension >= 1


def _toupie_branches(quiver: Quiver):
    """Branch decomposition, or a ValidationError when the shape is wrong.

    Past the degree checks a walk from the source is forced and meets no
    vertex twice (that one would have two arrows in), so it ends at the sink.
    Every arrow is on such a walk: arrows in from it lead back to the source,
    as a cycle of (1, 1) vertices would be a component, and Quiver refuses it.
    """
    sources = [v for v in quiver.vertices if quiver.degrees(v)[0] == 0]
    sinks = [v for v in quiver.vertices if quiver.degrees(v)[1] == 0]
    if len(sources) != 1 or len(sinks) != 1:
        raise ValidationError("not a toupie quiver: need a unique source and a unique sink")
    source, sink = sources[0], sinks[0]
    for v in quiver.vertices:
        if v not in (source, sink) and quiver.degrees(v) != (1, 1):
            raise ValidationError(f"not a toupie quiver: intermediate vertex {v} has "
                                  f"degrees {quiver.degrees(v)}")
    branches = []
    for arrow in quiver.out_arrows[source]:
        walk = [arrow]
        while walk[-1].target != sink:
            walk.append(quiver.out_arrows[walk[-1].target][0])
        branches.append(tuple(a.name for a in walk))
    return source, sink, branches


def toupie_classify(quiver: Quiver, ideal: IdealSpec, field=QQ) -> ToupieClassification:
    """Classify a toupie algebra and predict its coproduct space dimension.

    Relations are branch-supported: a single path, which always lies
    inside one branch, or a linear combination of full branch paths.
    Linear relations are row-reduced over the branches; a reduced row
    touching a single branch kills that branch path outright and therefore
    counts as a monomial relation on it.
    """
    validate(quiver, ideal, field)
    source, sink, branches = _toupie_branches(quiver)
    t = len(branches)

    # validate made every relation term a path.  A path that enters a
    # branch stays inside it: the vertices inside a branch have one arrow in
    # and one out, and the sink has none out.  So its first arrow names its
    # branch and fixes the rest of its walk, and the distinct parallel terms
    # of a non-monomial generator leave the source by different branches,
    # which meet only at the sink: each term is a full branch path.
    branch_of = {name: i for i, b in enumerate(branches) for name in b}
    monomial_branches = set()
    linear_rows = []
    for g in ideal.generators:
        if g.is_monomial:
            monomial_branches.add(branch_of[next(iter(g.terms)).arrows[0]])
        else:
            linear_rows.append({branch_of[path.arrows[0]]: coeff
                                for path, coeff in g.terms.items()})

    reduced, pivots = rref(SparseMatrix(linear_rows, t, field))
    for row in reduced.rows:
        if len(row) == 1:
            monomial_branches.add(next(iter(row)))
    independent_rank = t - len(pivots)

    if monomial_branches:
        kind, prediction = M_POSITIVE, ">=1"
    elif t <= 1 and not ideal.generators:
        kind, prediction = LINEAR_AN, "=1"
    elif t >= 2 and independent_rank == 1:
        # All branch paths are proportional in the quotient; the scaled
        # linear structure on each branch survives.
        kind, prediction = GENERALIZED_DIAMOND, "=1"
    else:
        kind, prediction = M_ZERO_OTHER, "=0"

    return ToupieClassification(
        kind=kind,
        source=source,
        sink=sink,
        branches=tuple(branches),
        monomial_branches=tuple(sorted(monomial_branches)),
        independent_rank=independent_rank,
        prediction=prediction,
    )
