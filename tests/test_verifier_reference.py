"""The composable-pair verifier against the all-pairs verifier it replaced.

``reference_verify`` walks every ordered pair of basis paths and computes
each product with ``compose`` and ``reduce_path``, the way
``verify_coproduct`` did before it learned to skip non-composable pairs
and to read products from the algebra's product table.  Both must agree
on the verdict, on the first failing pair and on its three sides, for
kernel vectors, for arbitrary candidates that satisfy the support
condition, and for kernel vectors with a perturbation added.  Over Q the
candidates draw non-integral coefficients and two instances have a
product table with non-integral entries, so the walk meets Fractions
among its canonical scalars and coordinates other than 1, whose groups
it copies, scaled, instead of sharing them.

The solver checks a whole kernel basis in one walk, ``_first_failure``
over a list of candidates.  It must report the same first failing
candidate, and the same counterexample, as ``verify_coproduct`` called
on each candidate in turn.

The product table itself, which the verifier and the constraint build
both read, is checked entry by entry against ``multiply``.
"""

import copy
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobq.families import (
    CanonicalSpec,
    gen_canonical,
    gen_cycle,
    gen_linear,
    gen_radical_square_zero,
    gen_random,
    gen_toupie,
)
from frobq.frobenius import (
    CoproductCandidate,
    _first_failure,
    _short,
    build_constraint_system,
    solve_frobenius_space,
    verify_coproduct,
)
from frobq.ideal import IdealSpec, compute_basis
from frobq.linalg import QQ, PrimeField
from frobq.quiver import PathExpr, Quiver

from algebra_ops import (add, assert_canonical, combine, compose, extend_coproduct, multiply,
                        path_terms, reduce, reduce_path, terms_text)
from strategies import has_zero_generator, mixed_algebras


def reference_verify(algebra, candidate):
    """Check the bimodule condition on all ordered pairs of basis paths.

    Returns (True, None) or (False, (x, y, expected, left side, right
    side)) at the first failing pair, each side {(Path, Path): c}.
    """
    candidate.check_support()
    field = algebra.field

    delta = {b: extend_coproduct(candidate, b) for b in algebra.basis}

    def delta_of_coords(coords):
        out = {}
        for b, c in coords.items():
            for pair, value in delta[b].items():
                add(out, pair, c * value, field)
        return out

    for x in algebra.basis:
        for y in algebra.basis:
            product = compose(x, y)
            coords = reduce_path(algebra, product) if product is not None else {}
            expected = delta_of_coords(coords)

            left_side = {}
            for (u, v), c in delta[y].items():
                glued = compose(x, u)
                if glued is None:
                    continue
                for z, value in reduce_path(algebra, glued).items():
                    add(left_side, (z, v), c * value, field)

            right_side = {}
            for (u, v), c in delta[x].items():
                glued = compose(v, y)
                if glued is None:
                    continue
                for z, value in reduce_path(algebra, glued).items():
                    add(right_side, (u, z), c * value, field)

            if expected != left_side or expected != right_side:
                return False, (x, y, expected, left_side, right_side)
    return True, None


def reference_describe(algebra, x, y, *sides):
    """Counterexample.describe's line for reference_verify's failure."""
    expected, left, right = (terms_text(algebra.field, side, _short) for side in sides)
    return (f"pair ({_short(x)}, {_short(y)}): value on product = {expected}, "
            f"(left (x) 1) form = {left}, (1 (x) right) form = {right}")


def parallel_arrows():
    """a*x - a*y on parallel arrows x and y: a * x = a * y, so the left
    form (a (x) 1) D(e_2) moves two left legs to one."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("x", "2", "3"), ("y", "2", "3")])
    return q, IdealSpec([PathExpr({q.path(["a", "x"]): 1, q.path(["a", "y"]): -1})])


def loop_and_triangle():
    q = Quiver(["p", "q", "r"],
               [("x", "p", "p"), ("b", "p", "q"), ("c", "q", "r"), ("d", "r", "p")])
    return gen_radical_square_zero(q)


INSTANCES = {
    "cycle(3,3)": gen_cycle(3, 3),
    "cycle(2,4)": gen_cycle(2, 4),
    "linear(4)": gen_linear(4),
    "linear(5), relation of length 3": gen_linear(5, [(1, 3)]),
    "diamond (2,3)": gen_toupie((2, 3), (), [(1, -1)]),
    # Over F5 the three sides of its kernel vectors agree only mod 5.
    "toupie (2,3), relation 2,-3": gen_toupie((2, 3), (), [(2, -3)]),
    "toupie (2,3,2), mixed relations": gen_toupie((2, 3, 2), [(2, 1, 2)], [(1, -1, 0)]),
    # Over Q its product table has the entries 1/3 and -1/3.
    "canonical (2,2,2), lambda 1/3": gen_canonical(CanonicalSpec((2, 2, 2), (Fraction(1, 3),))),
    "parallel a*x - a*y": parallel_arrows(),
    "rsz loop and triangle": loop_and_triangle(),
    "random rsz": gen_random(5, 4, 5, "rsz"),
}
FIELDS = {"Q": QQ, "F5": PrimeField(5)}
KINDS = ("kernel", "support", "perturbed")


@functools.cache
def solved(instance, field_name):
    q, ideal = INSTANCES[instance]
    algebra = compute_basis(q, ideal, FIELDS[field_name])
    legend = build_constraint_system(algebra)[1]
    return algebra, legend, solve_frobenius_space(algebra)


SCALARS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 7))


def random_scalar(field, rng):
    return field.coerce(rng.choice(SCALARS))


def add_support_terms(values, algebra, legend, rng, count):
    for _ in range(count):
        p, u, v = rng.choice(legend)
        add(values.setdefault(p, {}), (u, v), random_scalar(algebra.field, rng), algebra.field)


def draw_candidate(instance, field_name, kind, rng):
    algebra, legend, kernel = solved(instance, field_name)
    values = {}
    if kind in ("kernel", "perturbed"):
        values = combine(algebra, [(random_scalar(algebra.field, rng), generator)
                                   for generator in kernel])
    if kind == "support":
        add_support_terms(values, algebra, legend, rng, rng.randint(1, 8))
    if kind == "perturbed":
        add_support_terms(values, algebra, legend, rng, rng.randint(1, 3))
    return algebra, CoproductCandidate(algebra, values)


def assert_same_verdict(algebra, candidate):
    ok, counterexample = verify_coproduct(algebra, candidate)
    ref_ok, ref_counterexample = reference_verify(algebra, candidate)
    assert ok == ref_ok
    if not ok:
        x, y, expected, left_side, right_side = ref_counterexample
        assert (counterexample.x, counterexample.y) == (x, y)
        assert path_terms(algebra, counterexample.expected) == expected
        assert path_terms(algebra, counterexample.left_side) == left_side
        assert path_terms(algebra, counterexample.right_side) == right_side
        assert counterexample.describe() == reference_describe(algebra, *ref_counterexample)
    return ok


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("instance", INSTANCES)
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False))
def test_matches_all_pairs_reference(instance, field_name, kind, rng):
    algebra, candidate = draw_candidate(instance, field_name, kind, rng)
    ok = assert_same_verdict(algebra, candidate)
    if kind == "kernel":
        assert ok


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_failing_perturbations_match_reference(instance, field_name):
    """Every instance yields a failing perturbed kernel vector, reported alike."""
    for seed in range(20):
        rng = random.Random(seed)
        algebra, candidate = draw_candidate(instance, field_name, "perturbed", rng)
        if not assert_same_verdict(algebra, candidate):
            return
    pytest.fail(f"{instance} over {field_name}: no perturbation failed")


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_counterexample_sides_hold_field_scalars(instance, field_name):
    """The sides map back from ints to canonical scalars: over Q an int
    when integral, otherwise a Fraction, and residues over F_5."""
    field = FIELDS[field_name]
    for seed in range(20):
        algebra, candidate = draw_candidate(instance, field_name, "perturbed", random.Random(seed))
        ok, counterexample = verify_coproduct(algebra, candidate)
        if not ok:
            break
    else:
        pytest.fail(f"{instance} over {field_name}: no perturbation failed")
    for side in (counterexample.expected, counterexample.left_side, counterexample.right_side):
        assert_canonical(field, side.values())


def first_single_failure(algebra, candidates):
    """(index, describe()) of the first candidate verify_coproduct fails, or None."""
    for n, candidate in enumerate(candidates):
        ok, counterexample = verify_coproduct(algebra, candidate)
        if not ok:
            return n, counterexample.describe()
    return None


def first_batch_failure(algebra, candidates):
    failure = _first_failure(algebra, candidates)
    return failure and (failure[0], failure[1].describe())


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("instance", INSTANCES)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(rng=st.randoms(use_true_random=False),
       kinds=st.lists(st.sampled_from(KINDS), max_size=6))
def test_batch_matches_single_walks(instance, field_name, rng, kinds):
    """One walk over a list reports what a walk per candidate reports."""
    algebra = solved(instance, field_name)[0]
    candidates = [draw_candidate(instance, field_name, kind, rng)[1] for kind in kinds]
    assert first_batch_failure(algebra, candidates) == first_single_failure(algebra, candidates)


def test_batch_reports_an_earlier_candidate_that_fails_later():
    """The first candidate is reported even when the second fails at an earlier pair."""
    algebra = solved("cycle(3,3)", "Q")[0]
    failing = []
    for seed in range(20):
        candidate = draw_candidate("cycle(3,3)", "Q", "perturbed", random.Random(seed))[1]
        ok, counterexample = verify_coproduct(algebra, candidate)
        if not ok:
            failing.append((algebra.index[counterexample.x], candidate))
    late, early = max(failing, key=lambda f: f[0]), min(failing, key=lambda f: f[0])
    assert late[0] > early[0]
    candidates = [late[1], early[1]]
    assert first_batch_failure(algebra, candidates) == first_single_failure(algebra, candidates)
    assert first_batch_failure(algebra, candidates)[0] == 0


@pytest.mark.parametrize("field_name", FIELDS)
def test_cancelling_candidates_both_fail(field_name):
    """K1 + E and K2 - E each fail, though their sum K1 + K2 verifies.

    A walk that let the terms of different candidates meet would see only
    the sum and pass both.  K1 and K2 hold only the coefficients 1 and
    -1, and E the coefficient 1, so E cancels exactly in the sum over
    either field.
    """
    algebra, legend, kernel = solved("cycle(3,3)", field_name)

    def combination(*terms):
        return CoproductCandidate(algebra, combine(algebra, terms))

    p, u, v = legend[0]
    error = CoproductCandidate(algebra, {p: {(u, v): 1}})
    k1, k2 = kernel[:2]
    assert {c for k in (k1, k2) for terms in k.values.values() for c in terms.values()} \
        <= {1, algebra.field.reduce(-1)}
    candidates = [combination((1, k1), (1, error)), combination((1, k2), (-1, error))]
    assert verify_coproduct(algebra, combination((1, k1), (1, k2)))[0]
    assert first_single_failure(algebra, candidates)[0] == 0
    assert first_single_failure(algebra, candidates[1:])[0] == 0
    assert first_batch_failure(algebra, candidates) == first_single_failure(algebra, candidates)
    assert first_batch_failure(algebra, candidates[1:]) == \
        first_single_failure(algebra, candidates[1:])


def test_empty_batch_reports_no_failure():
    assert _first_failure(solved("cycle(3,3)", "Q")[0], []) is None


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("instance", ["parallel a*x - a*y", "canonical (2,2,2), lambda 1/3"])
def test_walk_merges_into_copies_only(instance, field_name, kind):
    """The take-or-copy rule where moves meet at one leg or carry a
    coordinate other than 1.

    On a*x - a*y two left legs move to one, each by coordinate 1, so the
    second move merges into a group the side took by reference.  The
    canonical table has coordinates other than 1, and products of several
    coordinates, so its groups are scaled copies and its values on a
    product are merged.  Each walk must match the reference, and must
    write to neither the candidate nor the product table, so a second
    walk reports the same.
    """
    algebra = solved(instance, field_name)[0]
    products = algebra.product_table
    if instance.startswith("parallel"):
        assert any(row[u] and row[u] == row[v] for row in products for u in row for v in row
                   if u != v)
    else:
        assert any(len(coords) > 1 for row in products for coords in row.values())
        assert any(c != 1 for row in products for coords in row.values() for c in coords.values())
    before = copy.deepcopy(products)
    for seed in range(8):
        candidate = draw_candidate(instance, field_name, kind, random.Random(seed))[1]
        values = copy.deepcopy(candidate.values)
        assert_same_verdict(algebra, candidate)
        assert first_batch_failure(algebra, [candidate]) == \
            first_batch_failure(algebra, [candidate])
        assert candidate.values == values
    assert algebra.product_table == before


def test_product_tables_with_denominators():
    """The instances that must exercise a product table with a Fraction
    coordinate have one."""
    for instance in ("canonical (2,2,2), lambda 1/3", "toupie (2,3), relation 2,-3"):
        products = solved(instance, "Q")[0].product_table
        assert any(type(c) is Fraction for row in products for coords in row.values()
                   for c in coords.values())


def test_skip_rule_does_not_rest_on_associativity():
    """The skipped pairs are zero on all three sides by the docstring's proof alone.

    Here the arrow a1 of cycle(2,3) multiplies to zero from either side
    while a1 * a2 stays nonzero, so the product is no longer associative
    and D(xy) = (x (x) 1) D(y) does not follow from how D extends; each
    side must still be checked wherever the reference finds it nonzero.
    Then, on a fresh table, e_1 * e_1 is made a1: for a candidate with no
    value at 1 the first pair, (e_1, e_1), has D(x) = D(y) = 0 while
    D(xy) = D(a1) is not zero, so the walk must look at xy's coordinates
    before it skips a pair.
    """
    q, ideal = gen_cycle(2, 3)
    algebra = compute_basis(q, ideal, QQ)
    algebra.table[("a1",)] = {}
    # The mutation must reach every reader of the table, or the test is vacuous.
    a1, e_1, e_2, index = q.path(["a1"]), q.trivial_path("1"), q.trivial_path("2"), algebra.index
    assert reduce_path(algebra, a1) == {}
    assert algebra.product_table[index[e_1]][index[a1]] == {}
    assert algebra.product_table[index[a1]][index[e_2]] == {}
    legend = build_constraint_system(algebra)[1]
    for seed in range(30):
        rng = random.Random(seed)
        values = {}
        add_support_terms(values, algebra, legend, rng, rng.randint(1, 3))
        assert_same_verdict(algebra, CoproductCandidate(algebra, values))

    algebra = compute_basis(q, ideal, QQ)
    algebra.table["1"] = {index[a1]: 1}
    assert reduce_path(algebra, e_1) == {a1: 1}
    assert algebra.product_table[index[e_1]][index[e_1]] == {index[a1]: 1}
    candidate = CoproductCandidate(algebra, {"2": {(index[e_2], index[e_2]): 1}})
    assert not assert_same_verdict(algebra, candidate)
    failure = verify_coproduct(algebra, candidate)[1]
    assert (failure.x, failure.y) == (e_1, e_1)
    for seed in range(30):
        rng = random.Random(seed)
        values = {}
        add_support_terms(values, algebra, legend, rng, rng.randint(1, 3))
        assert_same_verdict(algebra, CoproductCandidate(algebra, values))


def assert_product_table_matches_multiply(algebra):
    """product_table[i][j] is basis[i] * basis[j], over indices, in canonical scalars.

    The constraint build and the verifier both read the table, so it is
    checked here against multiply, which composes and reduces paths.
    """
    basis, index = algebra.basis, algebra.index
    one = algebra.field.one
    for i, x in enumerate(basis):
        row = algebra.product_table[i]
        assert list(row) == [j for j, y in enumerate(basis) if y.source == x.target]
        for j, coords in row.items():
            product = multiply(algebra, {x: one}, {basis[j]: one})
            assert coords == {index[b]: c for b, c in product.items()}
            assert_canonical(algebra.field, coords.values())


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_product_table_matches_multiply(instance, field_name):
    assert_product_table_matches_multiply(solved(instance, field_name)[0])


@pytest.mark.parametrize("seed", range(30))
def test_product_table_matches_multiply_on_random(seed):
    regime = ("rsz", "acyclic-monomial", "string-quadratic")[seed % 3]
    q, ideal = gen_random(seed, 5, 7, regime)
    assert_product_table_matches_multiply(compute_basis(q, ideal, QQ))


def corpus_toupie(seed):
    """A toupie drawn much as perfbench's corpus draws one.

    2-4 branches of lengths 2-4, a monomial relation half the time, and
    linear relations with coefficients from (-2, -1, 1, 2, 3): always
    one, and two on four branches half the time, so that the top path of
    a branch often reduces to several coordinates.
    """
    rng = random.Random(f"toupie/{seed}")
    branches = 2 + seed % 3
    lengths = [rng.randint(2, 4) for _ in range(branches)]
    monomial = []
    if rng.random() < 0.5:
        branch = rng.randrange(branches)
        length = rng.randint(2, lengths[branch])
        monomial.append((branch + 1, rng.randint(1, lengths[branch] - length + 1), length))
    linear = [[rng.choice((-2, -1, 1, 2, 3)) for _ in range(branches)]
              for _ in range(rng.randint(1, max(1, branches - 2)))]
    return gen_toupie(lengths, monomial, linear)


def commutative_grid(n):
    """The n x n grid of vertices with every square commuting."""
    vertices = [f"{i},{j}" for i in range(n) for j in range(n)]
    arrows = [(f"h{i}{j}", f"{i},{j}", f"{i},{j + 1}") for i in range(n) for j in range(n - 1)]
    arrows += [(f"v{i}{j}", f"{i},{j}", f"{i + 1},{j}") for i in range(n - 1) for j in range(n)]
    q = Quiver(vertices, arrows)
    squares = [PathExpr({q.path([f"h{i}{j}", f"v{i}{j + 1}"]): 1,
                         q.path([f"v{i}{j}", f"h{i + 1}{j}"]): -1})
               for i in range(n - 1) for j in range(n - 1)]
    return q, IdealSpec(squares)


MIXED = {f"corpus toupie {seed}": corpus_toupie(seed) for seed in range(12)}
# Over F_5 the relation loses its 5 term and over F_7 its 7 term.
MIXED["toupie (2,3,3,2), relation 5,1,-2,7"] = gen_toupie((2, 3, 3, 2), (), [(5, 1, -2, 7)])
MIXED["commutativity square"] = gen_toupie((2, 2), (), [(1, -1)])
MIXED["commutative 3x3 grid"] = commutative_grid(3)
MIXED_FIELDS = {"Q": QQ, "F5": PrimeField(5), "F7": PrimeField(7)}


@pytest.mark.parametrize("field_name", MIXED_FIELDS)
@pytest.mark.parametrize("instance", MIXED)
def test_product_table_matches_multiply_on_mixed_relations(instance, field_name):
    q, ideal = MIXED[instance]
    assert_product_table_matches_multiply(compute_basis(q, ideal, MIXED_FIELDS[field_name]))


def assert_relations_vanish(algebra):
    """u * g * v reduces to zero for every generator g and all paths u, v.

    assert_product_table_matches_multiply checks the product table against
    reduce_path; this checks the normal forms both read against the ideal
    itself.
    """
    paths = algebra.quiver.enumerate_paths(algebra.bound - 1)
    for g in algebra.ideal.generators:
        for u in (u for u in paths if u.target == g.source()):
            for v in (v for v in paths if v.source == g.target()):
                terms = {compose(compose(u, t), v): c for t, c in g.terms.items()}
                assert reduce(algebra, PathExpr(terms)) == {}


@pytest.mark.parametrize("field_name", MIXED_FIELDS)
@pytest.mark.parametrize("instance", MIXED)
def test_mixed_relations_vanish_in_the_quotient(instance, field_name):
    q, ideal = MIXED[instance]
    assert_relations_vanish(compute_basis(q, ideal, MIXED_FIELDS[field_name]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=mixed_algebras())
def test_product_table_and_relations_on_mixed_algebras(drawn):
    """The two checks above on drawn algebras.  Toupies with a monomial
    relation are where the zero paths and the rows of linear relations
    meet in compute_basis."""
    quiver, ideal, field, _ = drawn
    assume(not has_zero_generator(ideal, field))
    algebra = compute_basis(quiver, ideal, field)
    assert_product_table_matches_multiply(algebra)
    assert_relations_vanish(algebra)


@pytest.mark.parametrize("field_name", MIXED_FIELDS)
def test_mixed_relations_reduce_paths_to_several_coordinates(field_name):
    """The instances above do hold pivot paths whose normal form has several terms."""
    several = 0
    for q, ideal in MIXED.values():
        table = compute_basis(q, ideal, MIXED_FIELDS[field_name]).table
        several += any(len(coords) > 1 for coords in table.values())
    assert several >= 4
