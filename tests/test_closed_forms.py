import re

import pytest
from hypothesis import given, settings, strategies as st

from frobq.closed_forms import (
    GENERALIZED_DIAMOND,
    LINEAR_AN,
    M_POSITIVE,
    M_ZERO_OTHER,
    LocalPatternMatch,
    _toupie_branches,
    detect_local_patterns,
    is_gentle,
    is_radical_square_zero,
    is_string,
    is_string_quadratic,
    radical_square_zero_dimension,
    string_relation_witness,
    toupie_classify,
    witness_coproduct,
)
from frobq.errors import (
    InfiniteDimensionalError,
    UnsupportedIdealRegimeError,
    ValidationError,
)
from frobq.families import (
    CanonicalSpec,
    gen_canonical,
    gen_cycle,
    gen_linear,
    gen_radical_square_zero,
    gen_random,
    gen_toupie,
)
from frobq.frobenius import frobenius_dimension, solve_frobenius_space, verify_coproduct
from frobq.ideal import IdealSpec, compute_basis
from frobq.linalg import QQ
from frobq.quiver import PathExpr, Quiver

from algebra_ops import add, index_terms, path_terms, reduce_path


def mono(q, names):
    return PathExpr.from_path(q.path(names), QQ.one)


class TestRadicalSquareZeroDetection:
    def test_every_length_two_path_generated(self):
        q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
        _, ideal = gen_radical_square_zero(q)
        assert is_radical_square_zero(compute_basis(q, ideal))

    def test_linear_three_single_relation(self):
        q, ideal = gen_linear(3, [(1, 2)])
        assert is_radical_square_zero(compute_basis(q, ideal))

    def test_surviving_length_two_path(self):
        q, ideal = gen_linear(4, [(1, 2)])
        assert not is_radical_square_zero(compute_basis(q, ideal))


class TestDimensionFormula:
    def test_linear_three(self):
        q, _ = gen_linear(3)
        assert radical_square_zero_dimension(q) == 3

    def test_out_star(self):
        q = Quiver(["p", "q1", "q2"], [("a", "p", "q1"), ("b", "p", "q2")])
        assert radical_square_zero_dimension(q) == 0

    def test_single_loop(self):
        q = Quiver(["p"], [("x", "p", "p")])
        assert radical_square_zero_dimension(q) == 2

    def test_no_arrows_rejected(self):
        with pytest.raises(ValidationError):
            radical_square_zero_dimension(Quiver(["p"], []))

    def test_oracle_equivalence_on_random_loop_free_quivers(self):
        for seed in range(50):
            q, ideal = gen_random(seed, 6, 8, "rsz")
            formula = radical_square_zero_dimension(q)
            solver = frobenius_dimension(compute_basis(q, ideal))
            assert formula == solver, f"seed {seed}: formula {formula} != solver {solver}"

    def test_agreement_on_loop_carrying_quivers(self):
        # a loop counts once in in(v) and once in out(v); these fixed cases
        # sit beside the property on drawn quivers in test_properties.py
        loop = Quiver(["p"], [("x", "p", "p")])
        loop_and_arrow = Quiver(["p", "q"], [("x", "p", "p"), ("b", "p", "q")])
        arrow_and_loop = Quiver(["p", "q"], [("b", "p", "q"), ("y", "q", "q")])
        two_vertices_two_loops = Quiver(
            ["p", "q"], [("x", "p", "p"), ("b", "p", "q"), ("y", "q", "q")])
        for q in [loop, loop_and_arrow, arrow_and_loop, two_vertices_two_loops]:
            _, ideal = gen_radical_square_zero(q)
            formula = radical_square_zero_dimension(q)
            solver = frobenius_dimension(compute_basis(q, ideal))
            assert formula == solver


def case_one():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "3"), ("b", "2", "3"), ("g", "3", "4")])
    return q, IdealSpec([mono(q, ["a", "g"]), mono(q, ["b", "g"])])


def case_four():
    q = Quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "3"), ("b", "2", "3"), ("g", "3", "4"), ("d", "3", "5")])
    gens = [mono(q, ["a", "g"]), mono(q, ["a", "d"]),
            mono(q, ["b", "g"]), mono(q, ["b", "d"])]
    return q, IdealSpec(gens)


class TestLocalPatterns:
    def test_case_one_detected(self):
        q, ideal = case_one()
        matches = detect_local_patterns(compute_basis(q, ideal))
        assert [(m.pattern, m.vertex) for m in matches] == [(1, "3")]

    def test_pattern_five_on_linear(self):
        q, ideal = gen_linear(3, [(1, 2)])
        matches = detect_local_patterns(compute_basis(q, ideal))
        assert [(m.pattern, m.vertex) for m in matches] == [(5, "2")]

    def test_no_relations_no_matches(self):
        q, ideal = gen_linear(3)
        assert detect_local_patterns(compute_basis(q, ideal)) == []

    def test_pattern_four_suppresses_pattern_three(self):
        q, ideal = case_four()
        matches = detect_local_patterns(compute_basis(q, ideal))
        assert [(m.pattern, m.vertex) for m in matches] == [(4, "3")]

    def test_witness_pattern_five(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        match = detect_local_patterns(algebra)[0]
        witness = witness_coproduct(match, algebra)
        assert path_terms(algebra, witness.values["2"]) == \
            {(q.path(["a2"]), q.path(["a1"])): QQ.one}
        assert frobenius_dimension(algebra) >= 1

    def test_witness_pattern_one(self):
        q, ideal = case_one()
        algebra = compute_basis(q, ideal)
        match = detect_local_patterns(algebra)[0]
        witness = witness_coproduct(match, algebra)
        assert path_terms(algebra, witness.values["3"]) == \
            {(q.path(["g"]), q.path(["a"])): QQ.one}

    def test_witness_rejected_when_product_survives(self):
        q, ideal = gen_linear(3)  # no relations: a1*a2 is nonzero
        algebra = compute_basis(q, ideal)
        fake = LocalPatternMatch(5, "2", ("a1",), ("a2",), (), ())
        with pytest.raises(ValidationError, match="pattern preconditions"):
            witness_coproduct(fake, algebra)

    @pytest.mark.parametrize("builder", [case_one, case_four])
    def test_every_witness_verifies(self, builder):
        q, ideal = builder()
        algebra = compute_basis(q, ideal)
        for match in detect_local_patterns(algebra):
            witness = witness_coproduct(match, algebra)
            ok, _ = verify_coproduct(algebra, witness)
            assert ok and witness.values


class TestStringChecks:
    def test_linear_with_relations_is_string(self):
        q, ideal = gen_linear(4, [(1, 3)])
        algebra = compute_basis(q, ideal)
        assert is_string(algebra)
        assert not is_string_quadratic(algebra)

    def test_three_out_arrows_not_string(self):
        q = Quiver(["p", "a", "b", "c"],
                   [("x", "p", "a"), ("y", "p", "b"), ("z", "p", "c")])
        assert not is_string(compute_basis(q, IdealSpec([])))

    def test_case_four_quadratic_not_gentle(self):
        q, ideal = case_four()
        algebra = compute_basis(q, ideal)
        assert is_string(algebra)
        assert is_string_quadratic(algebra)
        assert not is_gentle(algebra)

    def test_linear_quadratic_is_gentle(self):
        q, ideal = gen_linear(3, [(1, 2)])
        assert is_gentle(compute_basis(q, ideal))


def test_cyclic_string_quadratic_instance():
    # oriented 4-cycle with two opposite corners killed: still string, the
    # two dead corners are pattern-5 vertices, and the quotient is finite
    q = Quiver(["1", "2", "3", "4"],
               [("a1", "1", "2"), ("a2", "2", "3"), ("a3", "3", "4"), ("a4", "4", "1")])
    ideal = IdealSpec([mono(q, ["a1", "a2"]), mono(q, ["a3", "a4"])])
    algebra = compute_basis(q, ideal)
    assert algebra.dimension == 10
    assert is_string(algebra)
    matches = detect_local_patterns(algebra)
    assert [(m.pattern, m.vertex) for m in matches] == [(5, "2"), (5, "4")]
    for m in matches:
        witness = witness_coproduct(m, algebra)
        ok, _ = verify_coproduct(algebra, witness)
        assert ok
    assert frobenius_dimension(algebra) >= 2


class TestStringRelationWitness:
    def test_linear_four_full_relation(self):
        q, ideal = gen_linear(4, [(1, 3)])
        algebra = compute_basis(q, ideal)
        witness = string_relation_witness(algebra, q.path(["a1", "a2", "a3"]))
        assert path_terms(algebra, witness.values["2"]) == \
            {(q.path(["a2", "a3"]), q.path(["a1"])): QQ.one}
        assert path_terms(algebra, witness.values["3"]) == \
            {(q.path(["a3"]), q.path(["a1", "a2"])): QQ.one}

    def test_shifted_relation(self):
        q, ideal = gen_linear(5, [(2, 3)])
        algebra = compute_basis(q, ideal)
        witness = string_relation_witness(algebra, q.path(["a2", "a3", "a4"]))
        assert sorted(witness.values) == ["3", "4"]
        ok, _ = verify_coproduct(algebra, witness)
        assert ok

    def test_non_string_rejected(self):
        q = Quiver(["p", "a", "b", "c", "d"],
                   [("x", "p", "a"), ("y", "p", "b"), ("z", "p", "c"),
                    ("w", "a", "d"), ("v", "d", "c")])
        ideal = IdealSpec([mono(q, ["x", "w", "v"])])
        with pytest.raises(ValidationError, match="source of 3 arrows"):
            string_relation_witness(compute_basis(q, ideal), q.path(["x", "w", "v"]))

    def test_short_relation_rejected(self):
        q, ideal = gen_linear(3, [(1, 2)])
        with pytest.raises(ValidationError, match="length >= 3"):
            string_relation_witness(compute_basis(q, ideal), q.path(["a1", "a2"]))

    def test_non_generator_rejected(self):
        q, ideal = gen_linear(5, [(1, 3)])
        with pytest.raises(ValidationError, match="not a generator"):
            string_relation_witness(compute_basis(q, ideal), q.path(["a2", "a3", "a4"]))

    # A relation on a cycle can pass a vertex twice; the value there sums
    # the tail (x) head of both positions.
    def test_cube_of_a_loop(self):
        q = Quiver(["p"], [("x", "p", "p")])
        ideal = IdealSpec([mono(q, ["x", "x", "x"])])
        algebra = compute_basis(q, ideal)
        witness = string_relation_witness(algebra, q.path(["x", "x", "x"]))
        x, xx = q.path(["x"]), q.path(["x", "x"])
        assert path_terms(algebra, witness.values["p"]) == {(xx, x): QQ.one, (x, xx): QQ.one}

    def test_square_of_a_two_cycle_word(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
        ideal = IdealSpec([mono(q, ["a", "b", "a", "b"])])
        algebra = compute_basis(q, ideal)
        witness = string_relation_witness(algebra, q.path(["a", "b", "a", "b"]))
        a, b = q.path(["a"]), q.path(["b"])
        assert path_terms(algebra, witness.values["1"]) == \
            {(q.path(["a", "b"]), q.path(["a", "b"])): QQ.one}
        assert path_terms(algebra, witness.values["2"]) == \
            {(q.path(["b", "a", "b"]), a): QQ.one, (b, q.path(["a", "b", "a"])): QQ.one}

    # Every (n, d) that the string property would draw: the n-cycle with
    # every length-d path killed is a string algebra, not gentle, and each
    # relation with d > n passes a vertex more than once.
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("d", range(3, 9))
    def test_every_cycle_relation_has_a_nonzero_witness(self, n, d):
        q, ideal = gen_cycle(n, d)
        algebra = compute_basis(q, ideal)
        assert is_string(algebra) and not is_gentle(algebra)
        assert frobenius_dimension(algebra) >= 1
        for relation in ideal.monomial_paths():
            witness = string_relation_witness(algebra, relation)
            assert verify_coproduct(algebra, witness)[0] and witness.values

    # A relation that holds another generator: every split of a1*a2*a3 has
    # a head or a tail that a1*a2 or a2*a3 kills, so its witness is zero.
    # The relation is redundant, so the algebra is the gentle one of a1*a2
    # and a2*a3.
    def test_relation_holding_another_generator_has_a_zero_witness(self):
        q, ideal = gen_linear(4, [(1, 2), (2, 2), (1, 3)])
        algebra = compute_basis(q, ideal)
        witness = string_relation_witness(algebra, q.path(["a1", "a2", "a3"]))
        assert verify_coproduct(algebra, witness)[0] and not witness.values
        assert is_string_quadratic(algebra) and is_gentle(algebra)


class TestToupieClassify:
    def test_linear_quiver(self):
        info = toupie_classify(compute_basis(*gen_linear(5)))
        assert info.kind == LINEAR_AN and info.prediction == "=1"

    def test_one_point_quiver(self):
        q = Quiver(["p"], [])
        info = toupie_classify(compute_basis(q, IdealSpec([])))
        assert info.kind == LINEAR_AN

    def test_canonical_two_three_five(self):
        info = toupie_classify(compute_basis(*gen_canonical(CanonicalSpec((2, 3, 5), (1,)))))
        assert info.kind == M_ZERO_OTHER and info.prediction == "=0"
        assert info.independent_rank == 2

    def test_diamond(self):
        info = toupie_classify(compute_basis(*gen_toupie((3, 2), (), [(1, -1)])))
        assert info.kind == GENERALIZED_DIAMOND and info.prediction == "=1"
        assert info.branch_lengths == (3, 2)

    def test_monomial_branch(self):
        algebra = compute_basis(*gen_toupie((3, 2), [(1, 1, 2)], ()))
        info = toupie_classify(algebra)
        assert info.kind == M_POSITIVE and info.prediction == ">=1"
        assert info.monomial_relation_branch_count == 1
        assert frobenius_dimension(algebra) >= 1

    def test_linear_relation_killing_one_branch_counts_as_monomial(self):
        # a*b - a*b row-reduces to a single branch only with two relations
        algebra = compute_basis(*gen_toupie((2, 2), (), [(1, -1), (1, 1)]))
        info = toupie_classify(algebra)
        assert info.kind == M_POSITIVE
        dim = frobenius_dimension(algebra)
        assert info.prediction_holds(dim)

    def test_not_toupie_rejected(self):
        q = Quiver(["1", "2", "3"],
                   [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "3")])
        with pytest.raises(ValidationError, match="not a toupie"):
            toupie_classify(compute_basis(q, IdealSpec([])))

    def test_full_branch_monomial_relation(self):
        # unequal branch lengths, the long branch killed outright
        mixed = Quiver(["0", "m", "w"],
                       [("a", "0", "m"), ("b", "m", "w"), ("c", "0", "w")])
        ideal = IdealSpec([PathExpr({mixed.path(["a", "b"]): QQ.one})])
        algebra = compute_basis(mixed, ideal)
        info = toupie_classify(algebra)
        assert info.kind == M_POSITIVE
        dim = frobenius_dimension(algebra)
        assert info.prediction_holds(dim)


@st.composite
def near_toupies(draw):
    """A toupie with 1-4 branches of length 1-4 and drawn monomial and
    linear relations; or that toupie with one more arrow (a loop, say), or
    with one arrow reversed and the relations it breaks dropped."""
    lengths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    monomial = set()
    for _ in range(draw(st.integers(0, 2))):
        branch = draw(st.integers(1, len(lengths)))
        if lengths[branch - 1] >= 2:
            length = draw(st.integers(2, lengths[branch - 1]))
            start = draw(st.integers(1, lengths[branch - 1] - length + 1))
            monomial.add((branch, start, length))
    linear = []
    for _ in range(draw(st.integers(0, 2))):
        # a branch of length 1 is no term of an admissible relation
        row = [draw(st.integers(-2, 2)) if n >= 2 else 0 for n in lengths]
        if any(row):
            linear.append(row)
    quiver, ideal = gen_toupie(lengths, sorted(monomial), linear)
    arrows = [(a.name, a.source, a.target) for a in quiver.arrows]
    change = draw(st.sampled_from((None, None, "extra arrow", "reversed arrow")))
    if change == "extra arrow":
        ends = st.sampled_from(quiver.vertices)
        arrows.append(("z", draw(ends), draw(ends)))
    elif change == "reversed arrow":
        k = draw(st.integers(0, len(arrows) - 1))
        name, source, target = arrows[k]
        arrows[k] = (name, target, source)
    quiver = Quiver(quiver.vertices, arrows)
    kept = [g for g in ideal.generators if all(map(quiver.has_path, g.terms))]
    return quiver, IdealSpec(kept)


REFUSALS = re.compile(r"not a toupie quiver: (need a unique source and a unique sink"
                      r"|intermediate vertex \S+ has degrees \(\d+, \d+\))")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=near_toupies())
def test_toupie_branches_partition_the_arrows(drawn):
    # toupie_classify keeps no guard for a branch walk that does not reach
    # the sink, for an arrow outside every branch or for a linear relation
    # term that is not a full branch path: _toupie_branches and
    # toupie_classify argue that none can happen, and this holds them to it.
    # A cyclic draw that compute_basis refuses has no algebra to classify;
    # its quiver must still fail the toupie shape.
    quiver, ideal = drawn
    try:
        algebra = compute_basis(quiver, ideal)
    except (InfiniteDimensionalError, UnsupportedIdealRegimeError):
        with pytest.raises(ValidationError) as refused:
            _toupie_branches(quiver)
        assert REFUSALS.fullmatch(str(refused.value))
        return
    try:
        info = toupie_classify(algebra)
    except ValidationError as exc:
        assert REFUSALS.fullmatch(str(exc))
        return
    names = [name for branch in info.branches for name in branch]
    assert sorted(names) == sorted(quiver.arrow_by_name)
    for branch in info.branches:
        path = quiver.path(branch)
        assert (path.source, path.target) == (info.source, info.sink)
    for g in ideal.generators:
        if not g.is_monomial:
            assert all(path.arrows in info.branches for path in g.terms)


class TestDiamondUniqueness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_space_is_the_linear_structure(self, n, m):
        q, ideal = gen_toupie((n, m), (), [(1, -1)])
        algebra = compute_basis(q, ideal)
        space = solve_frobenius_space(algebra)
        assert len(space) == 1
        generator = space[0]
        expected = expected_linear_structure(q, algebra, n, m)
        assert proportional(generator, expected)


def expected_linear_structure(q, algebra, n, m):
    """The branch-wise tail (x) head coproduct with unit scale."""
    from frobq.frobenius import CoproductCandidate
    values = {}

    def tensor_for(vertex, left_coords, right_coords):
        terms = {}
        for bl, cl in left_coords.items():
            for br, cr in right_coords.items():
                add(terms, (bl, br), cl * cr, QQ)
        values[vertex] = index_terms(algebra, terms)

    full = reduce_path(algebra, q.path([f"a1_{j}" for j in range(1, n + 1)]))
    e0 = {q.trivial_path("0"): QQ.one}
    ew = {q.trivial_path("w"): QQ.one}
    tensor_for("0", full, e0)
    tensor_for("w", ew, full)
    for branch, length in ((1, n), (2, m)):
        for j in range(1, length):
            head = reduce_path(algebra, q.path([f"a{branch}_{k}" for k in range(1, j + 1)]))
            tail = reduce_path(algebra, q.path([f"a{branch}_{k}" for k in range(j + 1, length + 1)]))
            tensor_for(f"v{branch}_{j}", tail, head)
    return CoproductCandidate(algebra, values)


def proportional(c1, c2):
    flat1 = {(v, pair): coeff for v, terms in c1.values.items()
             for pair, coeff in terms.items()}
    flat2 = {(v, pair): coeff for v, terms in c2.values.items()
             for pair, coeff in terms.items()}
    if set(flat1) != set(flat2) or not flat1:
        return not flat1 and not flat2
    key = next(iter(flat1))
    ratio = flat1[key] / flat2[key]
    return all(flat1[k] == ratio * flat2[k] for k in flat1)
