import pytest

from frobq import families
from frobq.closed_forms import is_string, is_string_quadratic, special_biserial_violation
from frobq.errors import ValidationError
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
from frobq.frobenius import frobenius_dimension, solve_frobenius_space
from frobq.ideal import compute_basis, compute_bound, longest_surviving_walk, validate
from frobq.quiver import Quiver


class TestLinear:
    def test_no_relations(self):
        q, ideal = gen_linear(3)
        assert len(q.vertices) == 3 and len(q.arrows) == 2
        assert ideal.generators == ()

    def test_single_relation(self):
        q, ideal = gen_linear(4, [(1, 3)])
        assert [str(p) for p in ideal.monomial_paths()] == ["a1*a2*a3"]

    def test_pattern_five_instance(self):
        q, ideal = gen_linear(3, [(1, 2)])
        assert [str(p) for p in ideal.monomial_paths()] == ["a1*a2"]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            gen_linear(3, [(2, 2)])


class TestCycle:
    def test_dual_numbers(self):
        q, ideal = gen_cycle(1, 2)
        assert len(q.arrows) == 1 and q.arrows[0].source == q.arrows[0].target
        assert [str(p) for p in ideal.monomial_paths()] == ["a1*a1"]

    def test_three_cycle_rsz(self):
        q, ideal = gen_cycle(3, 2)
        assert len(ideal.generators) == 3

    def test_matches_radical_square_zero_of_cycle(self):
        q, ideal = gen_cycle(4, 2)
        _, rsz = gen_radical_square_zero(q)
        assert {p.arrows for p in ideal.monomial_paths()} == \
            {p.arrows for p in rsz.monomial_paths()}

    def test_two_cycle_cubed(self):
        q, ideal = gen_cycle(2, 3)
        words = sorted(p.arrows for p in ideal.monomial_paths())
        assert words == [("a1", "a2", "a1"), ("a2", "a1", "a2")]
        compute_basis(q, ideal)


class TestCanonical:
    def test_two_branches_no_relations(self):
        q, ideal = gen_canonical(CanonicalSpec((2, 2), ()))
        assert ideal.generators == ()

    def test_three_branches_single_relation(self):
        q, ideal = gen_canonical(CanonicalSpec((2, 2, 2), (1,)))
        assert len(ideal.generators) == 1
        assert len(ideal.generators[0].terms) == 3

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValidationError, match="nonzero"):
            CanonicalSpec((2, 2, 2), (0,))

    def test_duplicate_lambdas_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            CanonicalSpec((2, 2, 2, 2), (1, 1))

    def test_lambda_count_enforced(self):
        with pytest.raises(ValidationError):
            CanonicalSpec((2, 2, 2), (1, 2))

    @pytest.mark.parametrize("weights", [(2,), (2, 0, 2)])
    def test_too_few_or_empty_weights_rejected(self, weights):
        with pytest.raises(ValidationError, match="at least two weights"):
            CanonicalSpec(weights, (1,) * max(len(weights) - 2, 0))

    def test_keeps_its_fields(self):
        spec = CanonicalSpec((2, 3, 4), (5,))
        assert (spec.weights, spec.lambdas) == ((2, 3, 4), (5,))


class TestToupie:
    def test_commutative_diamond(self):
        q, ideal = gen_toupie((2, 2), (), [(1, -1)])
        assert len(ideal.generators) == 1
        algebra = compute_basis(q, ideal)
        assert len(solve_frobenius_space(algebra)) == 1

    def test_generalized_diamond(self):
        q, ideal = gen_toupie((3, 2, 2), (), [(-1, 1, 0), (-1, 0, 1)])
        assert len(ideal.generators) == 2

    def test_degenerate_single_branch(self):
        q, ideal = gen_toupie((3,), [(1, 1, 2)], ())
        assert len(q.vertices) == 4
        assert [str(p) for p in ideal.monomial_paths()] == ["a1_1*a1_2"]

    def test_malformed_relation_rejected(self):
        with pytest.raises(ValidationError):
            gen_toupie((2, 2), [(3, 1, 2)], ())
        with pytest.raises(ValidationError):
            gen_toupie((2, 2), (), [(1,)])


class TestRadicalSquareZero:
    def test_linear_three(self):
        q, _ = gen_linear(3)
        _, ideal = gen_radical_square_zero(q)
        assert [str(p) for p in ideal.monomial_paths()] == ["a1*a2"]

    def test_out_star_has_empty_ideal(self):
        q = Quiver(["p", "q1", "q2"], [("a", "p", "q1"), ("b", "p", "q2")])
        _, ideal = gen_radical_square_zero(q)
        assert ideal.generators == ()

    def test_loop(self):
        q = Quiver(["p"], [("x", "p", "p")])
        _, ideal = gen_radical_square_zero(q)
        assert [str(p) for p in ideal.monomial_paths()] == ["x*x"]


class TestRandom:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_deterministic(self, regime):
        a = gen_random(42, 5, 7, regime)
        b = gen_random(42, 5, 7, regime)
        assert a[0].vertices == b[0].vertices
        assert [(x.name, x.source, x.target) for x in a[0].arrows] == \
            [(x.name, x.source, x.target) for x in b[0].arrows]
        assert [g.terms for g in a[1].generators] == [g.terms for g in b[1].generators]

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("seed", range(6))
    def test_always_valid_and_bounded(self, regime, seed):
        q, ideal = gen_random(seed, 5, 7, regime)
        validate(q, ideal)
        bound = compute_bound(q, ideal)
        longest = longest_surviving_walk(q, ())
        if longest is not None:
            assert bound == longest + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_string_quadratic_regime_is_string(self, seed):
        q, ideal = gen_random(seed, 5, 7, "string-quadratic")
        algebra = compute_basis(q, ideal)
        assert special_biserial_violation(algebra) is None
        assert is_string(algebra)
        assert all(len(p) == 2 for p in ideal.monomial_paths())

    # At bounds 1000 each of this seed's first 200 draws meets a
    # spanning-tree anchor with no room left, so the instance comes from
    # the last draw, which picks anchors with room.
    def test_string_quadratic_regime_at_large_bounds(self):
        q, ideal = gen_random(3, 1000, 1000, "string-quadratic")
        assert 2 <= len(q.vertices) <= 1000 and 1 <= len(q.arrows) <= 1000
        algebra = compute_basis(q, ideal)
        assert is_string(algebra) and is_string_quadratic(algebra)
        assert all(len(p) == 2 for p in ideal.monomial_paths())

    @pytest.mark.parametrize("seed", range(10))
    def test_rsz_regime_is_loop_free(self, seed):
        q, ideal = gen_random(seed, 6, 8, "rsz")
        assert all(a.source != a.target for a in q.arrows)

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValidationError):
            gen_random(1, 3, 3, "mystery")

    # Every random quiver has at least two vertices, so a vertex bound
    # below 2 cannot be kept.
    @pytest.mark.parametrize("vertex_bound, arrow_bound", [(1, 1), (1, 5), (0, 3), (2, 0)])
    def test_bounds_it_cannot_keep_rejected(self, vertex_bound, arrow_bound):
        with pytest.raises(ValidationError, match="vertex bound must be >= 2"):
            gen_random(1, vertex_bound, arrow_bound, "rsz")

    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("vertex_bound, arrow_bound", [(2, 1), (2, 4), (3, 1)])
    def test_small_bounds_are_kept(self, regime, vertex_bound, arrow_bound):
        q, _ = gen_random(3, vertex_bound, arrow_bound, regime)
        assert 2 <= len(q.vertices) <= vertex_bound and 1 <= len(q.arrows) <= arrow_bound


def test_equal_branch_diamond_has_dimension_one():
    q, ideal = gen_toupie((3, 3), (), [(1, -1)])
    assert frobenius_dimension(compute_basis(q, ideal)) == 1


@pytest.mark.parametrize("build", [
    lambda: gen_linear(5, [(2, 3), (1, 2)]),
    lambda: gen_cycle(4, 3),
    lambda: gen_canonical(CanonicalSpec((2, 3, 4, 1), (2, 3))),
    lambda: gen_toupie((3, 3, 2), [(1, 1, 2)], [(1, 0, 2), (0, 1, 0)]),
    lambda: gen_radical_square_zero(
        Quiver(["p", "q"], [("x", "p", "p"), ("a", "p", "q"), ("b", "q", "p")])),
], ids=["linear", "cycle", "canonical", "toupie", "rsz"])
def test_name_count_is_the_written_names(monkeypatch, build):
    """Each family's count, taken before it builds, is the arrows plus the
    arrows of every generator term it builds: the count passes a limit
    equal to it and is refused by one less.  A zero linear coefficient
    writes no term, so it adds nothing."""
    quiver, ideal = build()
    count = len(quiver.arrows) + sum(len(p) for g in ideal.generators for p in g.terms)
    monkeypatch.setattr(families, "MAX_NAMES", count)
    build()
    monkeypatch.setattr(families, "MAX_NAMES", count - 1)
    with pytest.raises(ValidationError, match=f"would hold {count} arrow names, more than "):
        build()
