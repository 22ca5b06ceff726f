"""Invariants the mathematics guarantees, checked on seeded random algebras.

Instances come from `families.gen_random` over all three regimes, whose
ideals are monomial with coefficient 1, and from
`strategies.mixed_algebras`, whose ideals are not, in the drawn field.
Relabelling vertices and arrows is an isomorphism, and the opposite
algebra has an isomorphic coproduct space (flip the two tensor legs).
Over F_p the constraint matrix of a monomial ideal is the integer matrix
over Q reduced mod p; as every row is e_i - e_j or +-e_i, the rank does
not drop, so the space has the same dimension.

The paper's claims on its monomial families are properties too: a
radical square zero algebra with a path of length two, a string algebra
that is not gentle and an algebra with a local pattern each carry a
nonzero coproduct, the closed form gives the first one's dimension, and
every witness the closed forms build verifies.
"""

import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobq.closed_forms import (
    detect_local_patterns,
    is_gentle,
    is_string,
    radical_square_zero_dimension,
    string_relation_witness,
    witness_coproduct,
)
from frobq.dsl import QuiverDocument, format_document, parse_document
from frobq.errors import ValidationError
from frobq.families import REGIMES, gen_linear, gen_radical_square_zero, gen_random
from frobq.frobenius import frobenius_dimension, verify_coproduct
from frobq.ideal import IdealSpec, compute_basis
from frobq.linalg import QQ, PrimeField
from frobq.quiver import PathExpr, Quiver

from algebra_ops import canonical_key
from strategies import has_zero_generator, mixed_algebras, small_quivers

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)

# seed, vertex bound, arrow bound, regime
instances = st.builds(gen_random, st.integers(0, 10 ** 6), st.just(6), st.just(8),
                      st.sampled_from(REGIMES))


def nonzero_mixed(drawn):
    """(quiver, ideal, field) of a mixed draw; a draw with a generator that
    is zero in the field is skipped."""
    quiver, ideal, field, _ = drawn
    assume(not has_zero_generator(ideal, field))
    return quiver, ideal, field


def rebuilt(quiver, ideal, vertex, arrow, reverse=False):
    """The bound quiver with names mapped, and with arrows reversed if asked."""
    arrows = [(arrow[a.name], vertex[a.target], vertex[a.source]) if reverse
              else (arrow[a.name], vertex[a.source], vertex[a.target])
              for a in quiver.arrows]
    image = Quiver([vertex[v] for v in quiver.vertices], arrows)
    generators = []
    for g in ideal.generators:
        terms = {}
        for path, coeff in g.terms.items():
            word = [arrow[name] for name in path.arrows]
            terms[image.path(word[::-1] if reverse else word)] = coeff
        generators.append(PathExpr(terms))
    return image, IdealSpec(generators)


def assert_canonical_order(algebra):
    """The basis is in canonical order: sort_key order, the trivial paths by
    vertex name."""
    assert list(algebra.basis) == sorted(algebra.basis, key=canonical_key)


def assert_relabelling_keeps_dimensions(quiver, ideal, field, shuffle_seed):
    rng = random.Random(shuffle_seed)
    # From 9 up, so that "10" sorts before "9" as a string.
    vertex_names = [str(9 + i) for i in range(len(quiver.vertices))]
    arrow_names = [f"x{9 + i}" for i in range(len(quiver.arrows))]
    rng.shuffle(vertex_names)
    rng.shuffle(arrow_names)
    relabelled = rebuilt(quiver, ideal, dict(zip(quiver.vertices, vertex_names)),
                         {a.name: new for a, new in zip(quiver.arrows, arrow_names)})
    algebra = compute_basis(quiver, ideal, field)
    image = compute_basis(*relabelled, field)
    assert_canonical_order(algebra)
    assert_canonical_order(image)
    assert image.dimension == algebra.dimension
    assert frobenius_dimension(image) == frobenius_dimension(algebra)


def assert_opposite_keeps_frobenius_dimension(quiver, ideal, field):
    same_vertex = {v: v for v in quiver.vertices}
    same_arrow = {a.name: a.name for a in quiver.arrows}
    opposite = rebuilt(quiver, ideal, same_vertex, same_arrow, reverse=True)
    assert frobenius_dimension(compute_basis(*opposite, field)) == \
        frobenius_dimension(compute_basis(quiver, ideal, field))


def assert_format_parse_format_is_a_fixed_point(quiver, ideal, field):
    text = format_document(QuiverDocument(quiver, ideal, field))
    assert format_document(parse_document(text)) == text


@PROPERTY_SETTINGS
@given(instance=instances, shuffle_seed=st.integers(0, 10 ** 6))
def test_relabelling_keeps_dimensions(instance, shuffle_seed):
    assert_relabelling_keeps_dimensions(*instance, QQ, shuffle_seed)


@PROPERTY_SETTINGS
@given(drawn=mixed_algebras(), shuffle_seed=st.integers(0, 10 ** 6))
def test_relabelling_keeps_dimensions_of_mixed_algebras(drawn, shuffle_seed):
    assert_relabelling_keeps_dimensions(*nonzero_mixed(drawn), shuffle_seed)


@PROPERTY_SETTINGS
@given(instance=instances)
def test_opposite_algebra_keeps_frobenius_dimension(instance):
    assert_opposite_keeps_frobenius_dimension(*instance, QQ)


@PROPERTY_SETTINGS
@given(drawn=mixed_algebras())
def test_opposite_mixed_algebra_keeps_frobenius_dimension(drawn):
    assert_opposite_keeps_frobenius_dimension(*nonzero_mixed(drawn))


@PROPERTY_SETTINGS
@given(instance=instances)
def test_format_parse_format_is_a_fixed_point(instance):
    assert_format_parse_format_is_a_fixed_point(*instance, QQ)


@PROPERTY_SETTINGS
@given(drawn=mixed_algebras())
def test_format_parse_format_of_mixed_algebras_is_a_fixed_point(drawn):
    quiver, ideal, field = nonzero_mixed(drawn)
    # The grids' vertices are named "i,j", which the language cannot read.
    names = [*quiver.vertices, *quiver.arrow_by_name]
    if all(re.fullmatch(r"[A-Za-z0-9_.]+", name) for name in names):
        assert_format_parse_format_is_a_fixed_point(quiver, ideal, field)
    else:
        with pytest.raises(ValidationError, match="is not an identifier"):
            format_document(QuiverDocument(quiver, ideal, field))


@PROPERTY_SETTINGS
@given(instance=instances)
def test_monomial_dimension_is_field_independent(instance):
    quiver, ideal = instance
    rational = frobenius_dimension(compute_basis(quiver, ideal))
    for p in (2, 3, 5, 7):
        assert frobenius_dimension(compute_basis(quiver, ideal, PrimeField(p))) == rational


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 10 ** 6))
def test_radical_square_zero_with_a_length_two_path_is_nearly_frobenius(seed):
    quiver, ideal = gen_random(seed, 6, 8, "rsz")
    # Every path of length two is a generator.
    assume(ideal.generators)
    dimension = frobenius_dimension(compute_basis(quiver, ideal))
    assert dimension >= 1
    assert dimension == radical_square_zero_dimension(quiver)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(quiver=small_quivers())
def test_radical_square_zero_degree_count_on_loops_and_parallel_arrows(quiver):
    # gen_random's rsz regime draws no loops; small_quivers draws both.
    if not quiver.arrows:
        with pytest.raises(ValidationError, match="at least one arrow"):
            radical_square_zero_dimension(quiver)
        return
    solver = frobenius_dimension(compute_basis(*gen_radical_square_zero(quiver)))
    assert radical_square_zero_dimension(quiver) == solver


@st.composite
def linear_string_algebras(draw):
    """A_n with 1-3 monomial relations of length 2-4: a string algebra,
    gentle only when every longer relation holds one of length 2."""
    n = draw(st.integers(3, 8))
    relations = set()
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(2, min(4, n - 1)))
        relations.add((draw(st.integers(1, n - length)), length))
    return gen_linear(n, relations)


@PROPERTY_SETTINGS
@given(instance=st.one_of(
    st.builds(gen_random, st.integers(0, 10 ** 6), st.just(6), st.just(8),
              st.just("string-quadratic")),
    linear_string_algebras()))
def test_string_algebra_that_is_not_gentle_is_nearly_frobenius(instance):
    quiver, ideal = instance
    algebra = compute_basis(quiver, ideal)
    assume(is_string(algebra) and not is_gentle(algebra))
    assert frobenius_dimension(algebra) >= 1
    # Only a minimal relation, with no zero proper subpath, has a nonzero
    # witness: a redundant one's witness is zero (tests/test_closed_forms.py).
    table = algebra.table
    for relation in ideal.monomial_paths():
        w = relation.arrows
        if len(w) >= 3 and table.get(w[:-1]) and table.get(w[1:]):
            witness = string_relation_witness(algebra, relation)
            assert verify_coproduct(algebra, witness)[0] and witness.values


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 10 ** 6), regime=st.sampled_from(("rsz", "string-quadratic")))
def test_every_local_pattern_has_a_verified_witness(seed, regime):
    algebra = compute_basis(*gen_random(seed, 6, 8, regime))
    matches = detect_local_patterns(algebra)
    assume(matches)
    for match in matches:
        witness = witness_coproduct(match, algebra)
        assert verify_coproduct(algebra, witness)[0] and witness.values
    assert frobenius_dimension(algebra) >= 1
