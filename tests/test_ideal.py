import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobq.errors import (
    InfiniteDimensionalError,
    UnsupportedIdealRegimeError,
    ValidationError,
)
from frobq.families import (
    REGIMES,
    CanonicalSpec,
    gen_canonical,
    gen_cycle,
    gen_linear,
    gen_radical_square_zero,
    gen_random,
    gen_toupie,
)
from frobq.ideal import (
    IdealSpec,
    compute_basis,
    compute_bound,
    longest_path,
    longest_surviving_walk,
    validate,
)
from frobq.linalg import QQ, PrimeField
from frobq.quiver import Path, PathExpr, Quiver

from algebra_ops import blocks, coords_of, has_subword, multiply, reduce, reduce_path, unit
from strategies import has_zero_generator, mixed_algebras, small_quivers


def mono(q, names):
    return PathExpr.from_path(q.path(names), QQ.one)


LOOP = Quiver(["p"], [("x", "p", "p")])
CYCLE2 = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
CYCLE3 = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])


def diamond():
    return gen_toupie((2, 2), (), [(1, -1)])


class TestValidate:
    def test_monomial_flag(self):
        q, ideal = gen_linear(3, [(1, 2)])
        assert validate(q, ideal).is_monomial

    def test_diamond_is_not_monomial(self):
        q, ideal = diamond()
        assert not validate(q, ideal).is_monomial

    def test_short_generator_rejected(self):
        q, _ = gen_linear(3)
        with pytest.raises(ValidationError, match="length 1"):
            validate(q, IdealSpec([PathExpr.from_path(q.path(["a1"]), QQ.one)]))

    def test_foreign_path_rejected(self):
        q, _ = gen_linear(3)
        other, _ = gen_linear(4)
        foreign = other.path(["a2", "a3"])
        with pytest.raises(ValidationError, match="not a path"):
            validate(q, IdealSpec([PathExpr.from_path(foreign, QQ.one)]))

    def test_zero_generator_rejected(self):
        q, _ = gen_linear(3)
        with pytest.raises(ValidationError, match="zero generator"):
            validate(q, IdealSpec([PathExpr({})]))

    # A generator whose every coefficient p divides is zero over F_p.  Taken
    # as a monomial there, 5 a*b would certify a bound for the 2-cycle,
    # whose quotient over F_5 is the infinite dimensional path algebra.
    def test_generator_zero_in_the_field_rejected(self):
        ideal = IdealSpec([PathExpr.from_path(CYCLE2.path(["a", "b"]), 5),
                           PathExpr.from_path(CYCLE2.path(["b", "a"]), 5)])
        assert compute_basis(CYCLE2, ideal, PrimeField(7)).dimension == 4
        with pytest.raises(ValidationError, match="zero generator"):
            validate(CYCLE2, ideal, PrimeField(5))
        with pytest.raises(ValidationError, match="zero generator"):
            compute_basis(CYCLE2, ideal, PrimeField(5))
        q, ideal = gen_toupie((2, 2), (), [(7, 0)])
        assert validate(q, ideal, PrimeField(5)) is ideal
        with pytest.raises(ValidationError, match="zero generator"):
            compute_basis(q, ideal, PrimeField(7))


def monomial_finiteness_check(quiver, monomial_gens):
    """True iff only finitely many paths avoid every generator as a subword."""
    return longest_surviving_walk(quiver, [g.arrows for g in monomial_gens]) is not None


class TestFinitenessAutomaton:
    def test_loop_square(self):
        assert monomial_finiteness_check(LOOP, [LOOP.path(["x", "x"])])

    def test_loop_without_relations(self):
        assert not monomial_finiteness_check(LOOP, [])

    def test_two_cycle_both_turns(self):
        gens = [CYCLE2.path(["a", "b"]), CYCLE2.path(["b", "a"])]
        assert monomial_finiteness_check(CYCLE2, gens)

    def test_two_cycle_one_turn_is_still_finite(self):
        # any long walk must eventually pass through a*b
        assert monomial_finiteness_check(CYCLE2, [CYCLE2.path(["a", "b"])])

    def test_parallel_loops_escape(self):
        q = Quiver(["p"], [("x", "p", "p"), ("y", "p", "p")])
        assert not monomial_finiteness_check(q, [q.path(["x", "x"])])


class TestComputeBound:
    def test_acyclic_uses_longest_path(self):
        q, ideal = gen_linear(4, [(1, 2)])
        assert compute_bound(q, ideal) == 4

    def test_loop_square(self):
        ideal = IdealSpec([mono(LOOP, ["x", "x"])])
        assert compute_bound(LOOP, ideal) == 2

    def test_cycle_with_one_relation_is_finite(self):
        # every full turn of the triangle traverses a*b, so survivors stop
        # at b*c*a and the bound is 4
        ideal = IdealSpec([mono(CYCLE3, ["a", "b"])])
        assert compute_bound(CYCLE3, ideal) == 4

    def test_purely_monomial_infinite(self):
        q = Quiver(["p"], [("x", "p", "p"), ("y", "p", "p")])
        with pytest.raises(InfiniteDimensionalError):
            compute_bound(q, IdealSpec([mono(q, ["x", "x"])]))

    def test_mixed_uncertified_regime(self):
        full = CYCLE3.path(["a", "b", "c"])
        twice = CYCLE3.path(["a", "b", "c", "a", "b", "c"])
        ideal = IdealSpec([PathExpr({full: QQ.one, twice: QQ.one})])
        with pytest.raises(UnsupportedIdealRegimeError):
            compute_bound(CYCLE3, ideal)


def surviving_path_exists(quiver, words, length):
    """Reference for the bound: is there a path of this length with no word of words inside?

    A depth-first search over paths that prunes a path as soon as
    has_subword finds a word in it.  Whether a path extends depends only on
    its end vertex, its last max|w| - 1 arrows and the length still to go,
    so dead ends are remembered by that key.
    """
    keep = max(map(len, words), default=1) - 1
    dead = set()

    def extend(vertex, arrows, remaining):
        if remaining == 0:
            return True
        key = (vertex, arrows[-keep:] if keep else (), remaining)
        if key in dead:
            return False
        for a in quiver.out_arrows[vertex]:
            walked = arrows + (a.name,)
            if not has_subword(walked, words) and extend(a.target, walked, remaining - 1):
                return True
        dead.add(key)
        return False

    return any(extend(v, (), length) for v in quiver.vertices)


@st.composite
def monomial_instances(draw):
    """A small_quivers draw with 0-4 monomial generators drawn as random
    walks of length 2-3."""
    quiver = draw(small_quivers())
    generators = []
    for _ in range(draw(st.integers(0, 4))):
        vertex, names = draw(st.sampled_from(quiver.vertices)), []
        for _ in range(draw(st.integers(2, 3))):
            if not quiver.out_arrows[vertex]:
                break
            arrow = draw(st.sampled_from(quiver.out_arrows[vertex]))
            names.append(arrow.name)
            vertex = arrow.target
        if len(names) >= 2:
            generators.append(mono(quiver, names))
    return quiver, IdealSpec(generators)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instance=monomial_instances())
def test_bound_matches_brute_force(instance):
    quiver, ideal = instance
    words = [p.arrows for p in ideal.monomial_paths()]
    # A path as long as the vertex count repeats a vertex.
    cyclic = surviving_path_exists(quiver, [], len(quiver.vertices))
    try:
        bound = compute_bound(quiver, ideal)
    except InfiniteDimensionalError:
        # More than the automaton's states: |V| times the prefixes of the words.
        length = len(quiver.vertices) * (1 + sum(map(len, words))) + 1
        assert cyclic and surviving_path_exists(quiver, words, length)
        return
    # An acyclic quiver's bound is its longest path + 1, whatever the ideal.
    avoided = words if cyclic else []
    assert surviving_path_exists(quiver, avoided, bound - 1)
    assert not surviving_path_exists(quiver, avoided, bound)


FIXED_INSTANCES = [
    (*gen_cycle(3, 2), QQ),
    (*gen_cycle(4, 5), PrimeField(3)),
    (*gen_linear(5, [(1, 3), (3, 2)]), QQ),
    (*gen_canonical(CanonicalSpec((2, 3, 4), (Fraction(1, 2),))), PrimeField(5)),
    (*gen_toupie((2, 3, 3), [(2, 1, 2)], [(1, -1, 2)]), QQ),
]

# (quiver, ideal, field) from the four sources; monomial_instances may be
# infinite dimensional and mixed_algebras may hold a generator zero in the field.
closure_instances = st.one_of(
    monomial_instances().map(lambda drawn: (*drawn, QQ)),
    st.builds(lambda seed, regime, field: (*gen_random(seed, 6, 8, regime), field),
              st.integers(0, 10 ** 6), st.sampled_from(REGIMES),
              st.sampled_from((QQ, PrimeField(2), PrimeField(3)))),
    mixed_algebras().map(lambda drawn: drawn[:3]),
    st.sampled_from(FIXED_INSTANCES),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(instance=closure_instances)
def test_bound_closes_the_table(instance):
    """The certified bound agrees with the table that compute_basis builds on it.

    (a) Every path shorter than the bound that contains a monomial
    generator's word is zero.  (b) Every basis path extended by one arrow
    on either side to the bound's length contains such a word; on an
    acyclic quiver no such extension exists.
    """
    quiver, ideal, field = instance
    assume(not has_zero_generator(ideal, field))
    try:
        algebra = compute_basis(quiver, ideal, field)
    except InfiniteDimensionalError:
        return
    words = [p.arrows for p in ideal.monomial_paths()]
    for word, coords in algebra.table.items():
        # Vertex names key the trivial paths, which contain no word.
        if type(word) is tuple and has_subword(word, words):
            assert coords == {}, word
    acyclic = longest_surviving_walk(quiver, ()) is not None
    for b in algebra.basis:
        extended = [b.arrows + (a.name,) for a in quiver.out_arrows[b.target]]
        extended += [(a.name,) + b.arrows for a in quiver.in_arrows[b.source]]
        for word in extended:
            if len(word) == algebra.bound:
                assert not acyclic and has_subword(word, words), word


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(quiver=small_quivers())
def test_vertex_kahn_pass_is_the_walk_with_no_words(quiver):
    # Loops and parallel arrows included; None on every cyclic quiver.
    assert longest_path(quiver) == longest_surviving_walk(quiver, ())


def survivors(quiver, generator_paths, max_len):
    """Independent oracle: brute-force subword avoidance."""
    words = [p.arrows for p in generator_paths]
    out = []
    for p in quiver.enumerate_paths(max_len):
        hit = any(
            p.arrows[i:i + len(w)] == w
            for w in words
            for i in range(len(p.arrows) - len(w) + 1)
        )
        if not hit:
            out.append(p)
    return out


class TestComputeBasis:
    def test_linear_three_by_hand(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        assert [str(p) for p in algebra.basis] == ["e_1", "e_2", "e_3", "a1", "a2"]
        assert algebra.dimension == 5

    def test_canonical_order_by_hand(self):
        """The basis is in canonical order, sort_key order with the trivial
        paths by vertex name, not in the order the quiver declares its
        vertices and arrows, and not grouped by (source, target) block.
        The diamond's pivot path a1_1*a1_2 is no basis path, so it takes
        no place."""
        quiver = Quiver(["c", "b", "a"], [("z", "c", "b"), ("y", "b", "a")])
        algebra = compute_basis(quiver, IdealSpec([]))
        assert [str(p) for p in algebra.basis] == ["e_a", "e_b", "e_c", "y", "z", "z*y"]
        assert algebra.table[("z", "y")] == {5: 1} and algebra.table["c"] == {2: 1}
        algebra = compute_basis(*diamond())
        assert [str(p) for p in algebra.basis] == [
            "e_0", "e_v1_1", "e_v2_1", "e_w", "a1_1", "a1_2", "a2_1", "a2_2", "a2_1*a2_2"]
        assert algebra.table[("a1_1", "a1_2")] == {8: 1}

    def test_loop_square(self):
        algebra = compute_basis(LOOP, IdealSpec([mono(LOOP, ["x", "x"])]))
        assert [str(p) for p in algebra.basis] == ["e_p", "x"]

    def test_diamond_dimension_and_normal_form(self):
        q, ideal = diamond()
        algebra = compute_basis(q, ideal)
        assert algebra.dimension == 9
        top = q.path(["a1_1", "a1_2"])
        bottom = q.path(["a2_1", "a2_2"])
        assert reduce_path(algebra, top) == {bottom: QQ.one}

    def test_canonical_222_dimension(self):
        q, ideal = gen_canonical(CanonicalSpec((2, 2, 2), (1,)))
        assert compute_basis(q, ideal).dimension == 13

    @pytest.mark.parametrize("build", [
        lambda: gen_linear(4, [(1, 2)]),
        lambda: gen_linear(5, [(1, 3), (3, 2)]),
        lambda: (CYCLE3, IdealSpec([mono(CYCLE3, ["a", "b"])])),
        lambda: (LOOP, IdealSpec([mono(LOOP, ["x", "x"])])),
        lambda: gen_random(11, 5, 6, "acyclic-monomial"),
        lambda: gen_random(12, 5, 6, "acyclic-monomial"),
    ])
    def test_monomial_oracle_equivalence(self, build):
        q, ideal = build()
        algebra = compute_basis(q, ideal)
        expected = survivors(q, ideal.monomial_paths(), algebra.bound - 1)
        assert sorted(algebra.basis, key=lambda p: p.sort_key()) == \
            sorted(expected, key=lambda p: p.sort_key())

    def test_rsz_basis_is_trivials_and_arrows(self):
        q, ideal = gen_radical_square_zero(CYCLE3)
        algebra = compute_basis(q, ideal)
        assert algebra.dimension == len(q.vertices) + len(q.arrows)
        assert all(len(p) <= 1 for p in algebra.basis)

    def test_block_dimensions_add_up(self):
        q, ideal = diamond()
        algebra = compute_basis(q, ideal)
        grouped = blocks(algebra)
        assert sum(len(b) for b in grouped.values()) == algebra.dimension
        # The two branch paths are one class, so the block 0 -> w has one path.
        assert grouped["0", "w"] == (q.path(["a2_1", "a2_2"]),)

    def test_prime_field_coordinates_are_residues(self):
        q, ideal = gen_toupie((2, 3), [], [(2, -3)])
        algebra = compute_basis(q, ideal, PrimeField(5))
        top = q.path(["a1_1", "a1_2"])
        # 2 top - 3 bottom = 0, so top = 3/2 bottom = 4 bottom over F_5.
        assert reduce_path(algebra, top) == {q.path(["a2_1", "a2_2", "a2_3"]): 4}
        for coords in algebra.table.values():
            assert all(type(c) is int and 0 <= c < 5 for c in coords.values())


class TestReduce:
    def test_killed_path(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        assert reduce_path(algebra, q.path(["a1", "a2"])) == {}

    def test_idempotent_unit_coordinate(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        e = q.trivial_path("1")
        assert reduce_path(algebra, e) == {e: QQ.one}

    def test_pivot_falls_on_lexicographically_earlier_path(self):
        q, ideal = diamond()
        algebra = compute_basis(q, ideal)
        assert q.path(["a1_1", "a1_2"]) not in algebra.index
        assert q.path(["a2_1", "a2_2"]) in algebra.index

    def test_foreign_path_error(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        other, _ = gen_linear(5)
        with pytest.raises(ValidationError, match="foreign"):
            reduce_path(algebra, other.path(["a3"]))
        # The table keys a path by its word and e_v by v, so neither key
        # alone may let a path that is not in the quiver through.
        with pytest.raises(ValidationError, match="foreign"):
            reduce_path(algebra, Path("2", "1", ("a1",)))
        with pytest.raises(ValidationError, match="foreign"):
            reduce_path(algebra, Path("9", "9", ()))

    def test_reduce_is_idempotent_and_block_preserving(self):
        q, ideal = diamond()
        algebra = compute_basis(q, ideal)
        for p in q.enumerate_paths(algebra.bound - 1):
            coords = reduce_path(algebra, p)
            again = {}
            for b, c in coords.items():
                for b2, c2 in reduce_path(algebra, b).items():
                    again[b2] = again.get(b2, QQ.zero) + c * c2
            again = {b: c for b, c in again.items() if c != QQ.zero}
            assert again == coords
            for b in coords:
                assert (b.source, b.target) == (p.source, p.target)

    def test_reduce_linear_on_expressions(self):
        q, ideal = diamond()
        algebra = compute_basis(q, ideal)
        top = q.path(["a1_1", "a1_2"])
        bottom = q.path(["a2_1", "a2_2"])
        expr = PathExpr({top: QQ.scalar(2), bottom: QQ.scalar(-2)})
        assert reduce(algebra, expr) == {}


class TestMultiply:
    def test_relation_kills_product(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        a1 = coords_of(algebra, q.path(["a1"]))
        a2 = coords_of(algebra, q.path(["a2"]))
        assert multiply(algebra, a1, a2) == {}

    def test_idempotents(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        e1 = coords_of(algebra, q.trivial_path("1"))
        e2 = coords_of(algebra, q.trivial_path("2"))
        assert multiply(algebra, e1, e1) == e1
        assert multiply(algebra, e1, e2) == {}

    def test_diamond_product_lands_on_normal_form(self):
        q, ideal = diamond()
        algebra = compute_basis(q, ideal)
        x = coords_of(algebra, q.path(["a1_1"]))
        y = coords_of(algebra, q.path(["a1_2"]))
        assert multiply(algebra, x, y) == {q.path(["a2_1", "a2_2"]): QQ.one}

    def test_unit_acts_as_identity(self):
        q, ideal = diamond()
        algebra = compute_basis(q, ideal)
        identity = unit(algebra)
        for b in algebra.basis:
            coords = coords_of(algebra, b)
            assert multiply(algebra, identity, coords) == coords
            assert multiply(algebra, coords, identity) == coords

    @pytest.mark.parametrize("build", [
        lambda: gen_linear(3, [(1, 2)]),
        lambda: gen_toupie((2, 2), (), [(1, -1)]),
        lambda: (LOOP, IdealSpec([mono(LOOP, ["x", "x"])])),
        lambda: (CYCLE3, IdealSpec([mono(CYCLE3, ["a", "b"])])),
        lambda: gen_canonical(CanonicalSpec((2, 2, 2), (1,))),
    ])
    def test_associativity_on_basis(self, build):
        q, ideal = build()
        algebra = compute_basis(q, ideal)
        assert algebra.dimension <= 20
        coords = [coords_of(algebra, b) for b in algebra.basis]
        for x, y, z in itertools.product(coords, repeat=3):
            assert multiply(algebra, multiply(algebra, x, y), z) == \
                multiply(algebra, x, multiply(algebra, y, z))
