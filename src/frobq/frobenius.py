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
word; the verifier reads the same maps by basis index, through the
algebra's product table, and computes on the field's canonical scalars.
It holds each D(b) twice, nested by left leg and by right leg, as maps
from a leg to a group of terms, and moves whole groups: where a
product's coordinate is 1 a side takes the group itself, shared and
never written to, rather than a copy.  So on a monomial table a pair
costs one step per leg group, and its sides compare by identity group
for group.

Only a non-monomial ideal's system is built and row-reduced: over a
monomial ideal each product of basis paths is one basis path or zero, so
every row is e_i - e_j or +-e_i, and the kernel is spanned by the
indicator vectors of the components of the graph joining the columns of
each two-entry row that hold no one-entry row.  These are exactly
kernel_basis's vectors, because the RREF is unique and a component's one
column relation has all coefficients equal, so the elimination leaves its
largest column free and makes every other one a pivot.  The row of an
arrow a joins a column (q, u, v' * a) to the column after it,
(p, a * u, v'), only through the last arrow of its right leg, and to the
one before it only through the first arrow of its left leg: each step
moves the cut of one word v' * a * u one arrow left, so every component
is a chain of cuts of one word, as in closed_forms' tail (x) head
witness.  The walk reads which arrows extend each basis path on either
side, and each path's last arrow and prefix, and computes column numbers
from the layout, so dim on a monomial ideal builds neither the rows nor
the legend of (p, u, v) triples; space writes the legend to read the
vectors as coproducts.
"""

from .errors import InternalFaultError, SupportViolationError, ValidationError, shorten
from .ideal import AlgebraBasis
from .linalg import SparseMatrix, kernel_basis
from .quiver import Path

_EMPTY = {}


def _add(terms, key, value, reduce):
    """Add value to terms[key], reduced; a key whose sum is zero is dropped,
    so one added again later moves to the end."""
    old = terms.get(key)
    new = reduce(value if old is None else old + value)
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


class CoproductCandidate:
    """A candidate coproduct, given by its value on every idempotent.

    values maps each vertex whose value is nonzero to its coordinates
    {(i, j): c != 0} over the pairs basis[i] (x) basis[j], the one form the
    solver, the verifier walk and the JSON writer and reader share; the
    index of a basis path is algebra.index[path].  The constructor takes
    that form, passes each c through field.coerce and drops the zero ones
    and the empty values; a leg that is no basis path stays its Path,
    which check_support refuses.
    """

    def __init__(self, algebra: AlgebraBasis, values=None):
        self.algebra = algebra
        coerce = algebra.field.coerce
        self.values = {vertex: value for vertex, terms in (values or _EMPTY).items()
                       if (value := _reduced(terms, coerce))}

    def check_support(self):
        """Raise SupportViolationError unless every term of the value at each
        vertex p is basis[i] (x) basis[j] with basis[i].source == p == basis[j].target."""
        basis, vertices = self.algebra.basis, self.algebra.quiver.out_arrows
        for vertex, terms in self.values.items():
            if vertex not in vertices:
                raise SupportViolationError(f"unknown vertex {shorten(vertex)} in coproduct")
            for i, j in terms:
                if i.__class__ is not int or j.__class__ is not int:
                    raise SupportViolationError(
                        f"coproduct term {_term(basis, i, j)} does not use basis paths")
                if not basis[i].source == vertex == basis[j].target:
                    raise SupportViolationError(
                        f"term {_term(basis, i, j)} at vertex {shorten(vertex)} breaks the support "
                        f"condition source(left) = target(right) = {shorten(vertex)}")


def _term(basis, i, j):
    """A term's legs as an error message echoes them, each path (basis[leg]
    for an index) cut by shorten."""
    return "(x)".join(shorten(str(basis[leg] if leg.__class__ is int else leg)) for leg in (i, j))


def _text(algebra, terms, show):
    """A value's terms {(i, j): c} joined by " + " in order of their index
    pairs, each basis path written by show; "0" when there are none.

    The basis is in canonical order, so that is sort_key order of the legs,
    as candidate_to_json writes them.  sort_key ties only trivial paths,
    and every left leg of a value at p, or of a Counterexample side at
    (x, y), starts at p, or at source(x), and every right leg ends at p,
    or at target(y), so no two terms hold different trivial legs on one
    side."""
    if not terms:
        return "0"
    basis = algebra.basis
    return " + ".join(f"{'' if c == 1 else f'{c}*'}{show(basis[i])}(x){show(basis[j])}"
                      for (i, j), c in sorted(terms.items()))


def _reduced(terms, reduce):
    """terms with every value reduced and the zero ones dropped."""
    return {key: r for key, value in terms.items() if (r := reduce(value))}


def _columns(algebra: AlgebraBasis):
    """The column layout {p: (first column, us, vs)} and the number of
    columns, one column (p, u, v) per pair of basis indices with
    basis[u].source == p == basis[v].target.

    The columns run vertex by vertex, with u in us and then v in vs, by
    basis index, which is canonical order: (p, us[i], vs[k]) is column
    first + i * len(vs) + k.
    """
    by_source = {}
    by_target = {}
    for i, b in enumerate(algebra.basis):
        by_source.setdefault(b.source, []).append(i)
        by_target.setdefault(b.target, []).append(i)
    columns = {}
    ncols = 0
    for p in algebra.quiver.vertices:
        columns[p] = (ncols, by_source[p], by_target[p])
        ncols += len(by_source[p]) * len(by_target[p])
    return columns, ncols


def _legend(columns):
    """The legend of a column layout: the (p, u, v) of each column, in order."""
    return [(p, u, v) for p, (_, us, vs) in columns.items() for u in us for v in vs]


def build_constraint_system(algebra: AlgebraBasis):
    """The linear system whose kernel is the Frobenius space.

    Unknowns are the coefficients of each candidate value at each vertex,
    one column, the legend's (p, u, v), per pair of basis indices with
    basis[u].source == p == basis[v].target, laid out by _columns: the
    support condition is imposed structurally, so only arrow constraints
    remain.

    An arrow a: p -> q gives one row per tensor pair of basis indices in
    (a (x) 1) D(e_q) - D(e_p) (1 (x) a).  The coordinates of a * u and
    v * a are the reduction table's entry for their joined arrow word,
    looked up once per u and once per v: a is a basis path, since every
    generator term has length >= 2, and a word with no entry is at or
    past the bound, so zero.  The table holds nonzero canonical scalars;
    a right-hand -c is not in [0, p) over F_p, so it is reduced, once per
    (v, z).

    No entry is a sum.  Column (q, u, v) enters row (w, v) for each
    coordinate w of a * u, and column (p, u, v) enters row (u, z) for each
    coordinate z of v * a, so a left and a right term share a cell only
    when a is a loop and u is a coordinate of a * u.  Every coordinate of
    a * u is a basis path longer than u: a * u is zero, a basis path, or
    a pivot of compute_basis's RREF, whose row rewrites it over later
    columns of its block only, and a block's columns run shorter first.
    So every entry is one nonzero canonical scalar, no row is empty, and
    SparseMatrix adopts the rows with no second pass; tests/ check the
    length property.  Neither the RREF nor the kernel depends on the
    order of the rows, so the rows stay in the order they are built.
    """
    table, reduce = algebra.table, algebra.field.reduce
    columns, ncols = _columns(algebra)
    words = [b.arrows for b in algebra.basis]
    rows = []
    for arrow in algebra.quiver.arrows:
        a = (arrow.name,)
        pair_rows = {}
        first, us, vs = columns[arrow.target]
        for i, u in enumerate(us):
            if coords := table.get(a + words[u], _EMPTY):
                for col, v in enumerate(vs, first + i * len(vs)):
                    for w, c in coords.items():
                        pair_rows.setdefault((w, v), {})[col] = c
        first, us, vs = columns[arrow.source]
        right = [(k, z, reduce(-c)) for k, v in enumerate(vs)
                 for z, c in table.get(words[v] + a, _EMPTY).items()]
        for i, u in enumerate(us):
            for k, z, c in right:
                pair_rows.setdefault((u, z), {})[first + i * len(vs) + k] = c
        rows.extend(pair_rows.values())
    return SparseMatrix._adopt(rows, ncols, algebra.field), _legend(columns)


def _monomial_kernel(algebra: AlgebraBasis, columns):
    """kernel_basis of a monomial ideal's constraint system, whose columns
    _columns lays out, by a walk along its chains (the module docstring
    says why).

    The row (w, v) of an arrow a: p -> q holds the column (q, u, v) when
    w = a * u, and the column (p, w, v') when v = v' * a.  A row holding
    both joins them; a row holding one sends it to zero:

    - (q, u, v) with a * u != 0 when v does not end in a;
    - (p, w, v') with v' * a != 0 when w does not start with a.

    One lookup per arrow and left leg u and one per arrow and right leg v'
    record facts by basis path: step[u] is (a, a * u) for the one arrow a
    with a * u != 0 (None for none, many for more), extends[v'] counts the
    arrows a with v' * a != 0, and last[v] and prefix[v] are the a and v'
    of v = v' * a.  By the first rule a column (u, v) ends its chain when
    step[u] is None, is joined to (a * u, prefix[v]) when step[u] is
    (last[v], a * u), and is sent to zero otherwise.  By the second, the
    column it is joined to is sent to zero when two arrows extend
    prefix[v], and a column whose right leg some arrow extends is sent to
    zero or joined to a column before it.  So the walk starts at the
    columns whose right leg no arrow extends and drops a chain at its
    first column sent to zero.  A live chain's vector is keyed in column order, and the
    vectors come in the order of their largest columns.
    """
    table, n = algebra.table, len(algebra.basis)
    words = [b.arrows for b in algebra.basis]
    start, place = [0] * n, [0] * n  # column (p, u, v) is start[u] + place[v]
    for first, us, vs in columns.values():
        for i, u in enumerate(us):
            start[u] = first + i * len(vs)
        for k, v in enumerate(vs):
            place[v] = k
    many = (object(), None)  # its arrow is no last[v]
    step, extends, last, prefix = [None] * n, [0] * n, [None] * n, [None] * n
    for arrow in algebra.quiver.arrows:
        name, a = arrow.name, (arrow.name,)
        for u in columns[arrow.target][1]:
            for w in table.get(a + words[u], ()):
                step[u] = (name, w) if step[u] is None else many
        for v in columns[arrow.source][2]:
            for z in table.get(words[v] + a, ()):
                extends[v] += 1
                last[z], prefix[z] = name, v
    live = []
    for _, us, vs in columns.values():
        heads = [v for v in vs if not extends[v]]
        for left in us:
            for v in heads:
                u, chain = left, [start[left] + place[v]]
                while (s := step[u]) is not None:
                    if s[0] != last[v] or extends[prefix[v]] > 1:
                        break
                    u, v = s[1], prefix[v]
                    chain.append(start[u] + place[v])
                else:
                    chain.sort()
                    live.append(chain)
    live.sort(key=lambda cols: cols[-1])
    return [dict.fromkeys(cols, algebra.field.one) for cols in live]


def _kernel(algebra: AlgebraBasis):
    """kernel_basis of the constraint system, and a function that gives the
    legend of its columns, for space to read the vectors by.

    Only a non-monomial ideal builds the rows, and with them the legend,
    and row-reduces them; a monomial ideal's route builds no legend, so
    dim on it builds none.
    """
    if algebra.ideal.is_monomial:
        columns = _columns(algebra)[0]
        return _monomial_kernel(algebra, columns), lambda: _legend(columns)
    matrix, legend = build_constraint_system(algebra)
    return kernel_basis(matrix), lambda: legend


def frobenius_dimension(algebra: AlgebraBasis) -> int:
    """The dimension of the space of nearly Frobenius coproducts.

    The number of kernel vectors solve_frobenius_space would turn into
    candidates; none of them is verified here.
    """
    return len(_kernel(algebra)[0])


def solve_frobenius_space(algebra: AlgebraBasis) -> list:
    """A basis of the space of all nearly Frobenius coproducts.

    One CoproductCandidate per kernel vector of the constraint system, so
    the length of the list is the dimension of the space.  All of them
    are verified together, in one walk over the product table.
    """
    vectors, legend_of = _kernel(algebra)
    legend = legend_of()
    candidates = [CoproductCandidate(algebra) for _ in vectors]
    for candidate, vec in zip(candidates, vectors):
        for col, value in vec.items():
            p, u, v = legend[col]
            candidate.values.setdefault(p, {})[u, v] = value
    if failure := _first_failure(algebra, candidates):
        raise InternalFaultError(
            "kernel vector failed independent verification at pair "
            f"({failure[1].x}, {failure[1].y}); solver bug"
        )
    return candidates


def _take(side, owned, key, group, c, reduce):
    """Add c * group at side[key] by the take-or-copy rule, keeping the
    side canonical.

    A group is a map {(leg, candidate): c}, reduced and with no zero
    values, that a D(b) or a side may share with others, so no side
    writes to a group it does not own; owned holds the keys of the groups
    the side owns.  When c == 1 and key is new, the group itself goes in
    at key, shared.  Otherwise a reduced scaled copy that the side owns
    goes in, and a move to a key whose group is shared copies that group
    first.  A value that sums to zero is dropped, and a group left empty
    with its key.  So two sides hold the same terms exactly when they
    compare equal, and a shared group equals itself by identity, without
    a look at its terms.
    """
    held = side.get(key)
    if held is None:
        if c == 1:
            side[key] = group  # shared: never written to
            return
        held = {}
        for leg, value in group.items():
            if r := reduce(c * value):
                held[leg] = r
        if held:
            side[key] = held
            owned.add(key)
        return
    if key not in owned:
        side[key] = held = held.copy()
        owned.add(key)
    for leg, value in group.items():
        if r := reduce(held.get(leg, 0) + c * value):
            held[leg] = r
        else:
            held.pop(leg, None)
    if not held:
        del side[key]
        owned.discard(key)


def _combined(coords, nested, reduce):
    """The sum of ck * D(k) over the coordinates {k: ck}, nested as nested[k]
    is (by left leg or by right leg), built by _take."""
    side, owned = {}, set()
    for k, ck in coords.items():
        for key, group in nested[k].items():
            _take(side, owned, key, group, ck, reduce)
    return side


def _delta(products, groups, reduce):
    """D(basis[i]) over basis indices, twice: by left leg, {u: {(v, n): c}},
    and by right leg, {v: {(u, n): c}}, with no zero values.

    products is product_table[i] and groups the values at
    target(basis[i]), D(e_t) by left leg.  Group j moves to the left leg
    k of each coordinate of basis[i] * basis[j], scaled by that
    coordinate, by _take's rule, so where it is 1 the group of D(e_t) is
    shared.  The right-leg form is regrouped term by term and owns all
    its groups.
    """
    left, owned = {}, set()
    for j, group in groups.items():
        for k, ck in products[j].items():
            _take(left, owned, k, group, ck, reduce)
    right = {}
    for u, group in left.items():
        for (v, n), c in group.items():
            held = right.get(v)
            if held is None:
                right[v] = {(u, n): c}
            else:
                held[u, n] = c
    return left, right


def _flat(side, right=False):
    """A side nested by left leg, or by right leg when right, as the flat
    map {(u, v, n): c} that a term-by-term comparison reads."""
    if right:
        return {(u, v, n): c for v, group in side.items() for (u, n), c in group.items()}
    return {(u, v, n): c for u, group in side.items() for (v, n), c in group.items()}


class Counterexample:
    """A failing pair of basis paths x, y, with the three sides at it for
    error reporting, each {(i, j): c != 0} over basis indices."""

    def __init__(self, algebra, x, y, expected, left_side, right_side):
        self.algebra = algebra
        self.x = x
        self.y = y
        self.expected = expected
        self.left_side = left_side
        self.right_side = right_side

    def describe(self):
        """One line with every arrow and vertex name cut by shorten."""
        expected, left, right = (_text(self.algebra, side, _short)
                                 for side in (self.expected, self.left_side, self.right_side))
        return (f"pair ({_short(self.x)}, {_short(self.y)}): value on product = {expected}, "
                f"(left (x) 1) form = {left}, (1 (x) right) form = {right}")


def _short(path):
    """str(path) with each arrow or vertex name cut by shorten."""
    if path.is_trivial:
        return f"e_{shorten(path.source)}"
    return "*".join(map(shorten, path.arrows))


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

    All candidates are checked in one walk.  Every term is keyed by
    two basis indices, its legs, and the index n of its candidate, so
    candidates never mix: each side below is linear in the candidate, and
    its terms keyed n are candidate n's side alone.

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

    Pairs are visited in basis order, which is canonical order, of x, then
    of y, so a candidate's first failing pair is the one a walk over all
    ordered pairs would find.  Products of basis paths come from
    algebra.product_table, built once per algebra.

    Every side is nested by leg, a map from a leg to a group of terms
    {(other leg, n): c}.  The groups of D(e_t) by left leg are built once
    per walk from the candidates' values, and each D(b) once, by _delta,
    nested both ways.  The left form moves the group of D(y) at each left
    leg u to each coordinate of x * u, the right form the group of D(x)
    at each right leg v to each coordinate of v * y, and the value on the
    product the groups of D(b), by left leg and by right leg, over the
    coordinates b of xy; each multiplies only where a product is
    nonzero.  Every move follows _take's rule: one by a coordinate 1, to a
    leg not yet held, shares the group instead of copying it, and no
    side writes to a group it shares.  So the walk never writes to the
    candidates, the product table, a D(b) or another side.  When xy is
    one coordinate b equal to 1, the value on the product is D(b)
    itself.

    A pair passes at once when the value on the product, nested by left
    leg, equals the left form, and nested by right leg equals the right
    form.  That is C-level dict equality, and it finds a shared group
    equal to itself by identity, so on a monomial table, where every move
    shares, a pair costs one step per leg group, not one per term.  Equal
    nested maps hold equal terms.  Otherwise the sides are flattened to
    {(u, v, n): c}, reduced and compared term by term, which decides the
    pair alone.  A candidate's values are canonical scalars, so the
    groups of D(e_t) are reduced with no zero values, and _take keeps
    every side so; this happens only where some candidate fails.

    The scalars are exact: the candidates' values and the table's
    coordinates are canonical scalars of the field, and every sum and
    product is put back in canonical form by field.reduce.  So the sides
    agree exactly when their scalars are equal, and a Counterexample
    holds the true sides as they are.

    At the first pair where some candidate fails, n is the lowest such
    candidate, failing there for the first time; the candidates before
    it have passed every pair so far, so they are walked again alone.
    """
    if not candidates:
        return None
    reduce = algebra.field.reduce
    basis = algebra.basis
    products = algebra.product_table
    values = {}
    for n, candidate in enumerate(candidates):
        candidate.check_support()
        for vertex, terms in candidate.values.items():
            groups = values.setdefault(vertex, {})
            for (j, l), c in terms.items():
                groups.setdefault(j, {})[l, n] = c
    by_left, by_right = [], []
    for i, b in enumerate(basis):
        groups = values.get(b.target)
        left, right = _delta(products[i], groups, reduce) if groups else (_EMPTY, _EMPTY)
        by_left.append(left)
        by_right.append(right)

    owned = set()  # the keys of the groups a side owns, emptied after each side
    for i, row in enumerate(products):
        left_x, right_x = by_left[i], by_right[i]
        for j, coords in row.items():
            left_y = by_left[j]
            if not left_x and not left_y:
                for k in coords:
                    if by_left[k]:
                        break
                else:
                    continue  # zero on all three sides, see above
            if len(coords) == 1 and 1 in coords.values():
                k = next(iter(coords))
                exp_l, exp_r = by_left[k], by_right[k]  # D(b) itself: never written to
            else:
                exp_l, exp_r = _combined(coords, by_left, reduce), _combined(coords, by_right, reduce)
            left_side = {}
            for u, group in left_y.items():
                for z, cz in row[u].items():
                    if cz == 1 and z not in left_side:
                        left_side[z] = group  # shared
                    else:
                        _take(left_side, owned, z, group, cz, reduce)
            owned.clear()
            right_side = {}
            for v, group in right_x.items():
                for z, cz in products[v][j].items():
                    if cz == 1 and z not in right_side:
                        right_side[z] = group  # shared
                    else:
                        _take(right_side, owned, z, group, cz, reduce)
            owned.clear()

            if exp_l == left_side and exp_r == right_side:
                continue  # equal as nested maps, so equal term by term
            sides = [_reduced(side, reduce) for side in (
                _flat(exp_l), _flat(left_side), _flat(right_side, right=True))]
            failing = [key[2] for key in sides[0].keys() | sides[1].keys() | sides[2].keys()
                       if not sides[0].get(key) == sides[1].get(key) == sides[2].get(key)]
            if failing:
                n = min(failing)
                if earlier := _first_failure(algebra, candidates[:n]):
                    return earlier
                return n, Counterexample(algebra, basis[i], basis[j], *(
                    {(a, b): c for (a, b, m), c in side.items() if m == n}
                    for side in sides))
    return None


# ---------------------------------------------------------------------------
# JSON coproduct encoding: one object per vertex, paths as arrow name lists,
# trivial paths as {"e": vertex}, scalars as "num/den" strings.

def path_to_json(path: Path):
    return list(path.arrows) if path.arrows else {"e": path.source}


def _leg_from_json(data, quiver, legs):
    """The basis index of the path data encodes, keyed in legs by its word or,
    for e_v, by v; any other path is built by quiver.trivial_path or
    quiver.path, which refuse an unknown vertex or arrow or arrows that do
    not compose."""
    if data.__class__ is list:  # not a str: tuple("ab") would read as a word
        try:
            leg = legs.get(tuple(data))
        except TypeError:  # an unhashable item, refused below
            leg = None
        if leg is not None:
            return leg
    if isinstance(data, dict):
        if set(data) != {"e"} or not isinstance(data["e"], str):
            raise ValidationError(f"bad path encoding: {shorten(data, repr)}")
        return legs[data["e"]] if data["e"] in legs else quiver.trivial_path(data["e"])
    if isinstance(data, list) and all(isinstance(s, str) for s in data):
        return quiver.path(tuple(data))
    raise ValidationError(f"bad path encoding: {shorten(data, repr)}")


def candidate_to_json(candidate: CoproductCandidate):
    algebra = candidate.algebra
    basis = algebra.basis
    return [{"vertex": vertex,
             "terms": [{"left": path_to_json(basis[i]), "right": path_to_json(basis[j]),
                        "coeff": str(c)}
                       for (i, j), c in sorted(candidate.values[vertex].items())]}
            for vertex in algebra.quiver.vertices if vertex in candidate.values]


_TERM_KEYS = frozenset(("left", "right", "coeff"))


def candidate_from_json(data, algebra: AlgebraBasis) -> CoproductCandidate:
    """The candidate a frobq/1 coproduct file's data encodes.

    Each distinct coeff text is parsed once per call.  Terms with the same
    legs are summed, and a vertex keeps the place of its first entry.
    """
    if isinstance(data, dict) and "coproduct" in data:
        data = data["coproduct"]
    if not isinstance(data, list):
        raise ValidationError("coproduct file must be a list of per-vertex objects")
    legs = {p.arrows or p.source: i for i, p in enumerate(algebra.basis)}
    quiver, reduce = algebra.quiver, algebra.field.reduce
    scalars = {}
    candidate = CoproductCandidate(algebra)
    values = candidate.values
    for entry in data:
        if not isinstance(entry, dict):
            raise ValidationError(f"coproduct entry is not an object: {shorten(entry, repr)}")
        vertex = entry.get("vertex")
        if not isinstance(vertex, str) or vertex not in quiver.out_arrows:
            raise ValidationError(f"unknown vertex in coproduct: {shorten(vertex, repr)}")
        value = values.setdefault(vertex, {})
        terms = entry.get("terms", [])
        if not isinstance(terms, list):
            raise ValidationError(f"terms at vertex {shorten(vertex, repr)} must be a list")
        for term in terms:
            if not isinstance(term, dict) or not _TERM_KEYS <= term.keys():
                raise ValidationError(
                    f"term at vertex {shorten(vertex, repr)} must be an object with "
                    f"left, right and coeff: {shorten(term, repr)}"
                )
            key = (_leg_from_json(term["left"], quiver, legs),
                   _leg_from_json(term["right"], quiver, legs))
            text = str(term["coeff"])
            coeff = scalars.get(text)
            if coeff is None:
                coeff = scalars[text] = algebra.field.parse(text)
            _add(value, key, coeff, reduce)
    candidate.values = {v: value for v, value in values.items() if value}
    return candidate
