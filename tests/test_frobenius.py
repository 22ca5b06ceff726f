import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobq import frobenius, linalg
from frobq.errors import InternalFaultError, SupportViolationError, ValidationError
from frobq.families import (
    CanonicalSpec,
    gen_canonical,
    gen_cycle,
    gen_linear,
    gen_random,
    gen_toupie,
)
from frobq.frobenius import (
    CoproductCandidate,
    build_constraint_system,
    candidate_from_json,
    candidate_to_json,
    frobenius_dimension,
    solve_frobenius_space,
    verify_coproduct,
)
from frobq.ideal import IdealSpec, compute_basis
from frobq.linalg import QQ, PrimeField, SparseMatrix, kernel_basis, rank, rref
from frobq.quiver import Path, PathExpr, Quiver

from algebra_ops import (add, assert_canonical, canonical_key, coefficient_vector, combine,
                         compose, coords_of, extend_coproduct, index_terms, multiply, path_terms,
                         reduce_path, reference_rref)
from strategies import (MONOMIAL_FIELDS, has_zero_generator, mixed_algebras, random_algebras,
                        small_quivers)


def mono(q, names):
    return PathExpr.from_path(q.path(names), QQ.one)


def algebra_of(build):
    q, ideal = build
    return compute_basis(q, ideal)


def local_case(n):
    """Quivers of the four quadratic local configurations."""
    if n == 1:
        q = Quiver(["1", "2", "3", "4"],
                   [("a", "1", "3"), ("b", "2", "3"), ("g", "3", "4")])
        return q, IdealSpec([mono(q, ["a", "g"]), mono(q, ["b", "g"])])
    if n == 2:
        q = Quiver(["1", "2", "3", "4"],
                   [("a", "1", "2"), ("b", "2", "3"), ("g", "2", "4")])
        return q, IdealSpec([mono(q, ["a", "b"]), mono(q, ["a", "g"])])
    q = Quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "3"), ("b", "2", "3"), ("g", "3", "4"), ("d", "3", "5")])
    gens = [mono(q, ["a", "g"]), mono(q, ["a", "d"]), mono(q, ["b", "g"])]
    if n == 4:
        gens.append(mono(q, ["b", "d"]))
    return q, IdealSpec(gens)


class TestConstraintSystem:
    def test_dual_numbers_loop(self):
        algebra = algebra_of(gen_cycle(1, 2))
        matrix, legend = build_constraint_system(algebra)
        assert len(legend) == 4
        assert len(legend) - rank(matrix) == 2

    def test_single_arrow(self):
        q, ideal = gen_linear(2)
        algebra = compute_basis(q, ideal)
        matrix, legend = build_constraint_system(algebra)
        assert len(legend) == 4
        assert frobenius_dimension(algebra) == 1

    def test_one_point_algebra(self):
        q = Quiver(["p"], [])
        algebra = compute_basis(q, IdealSpec([]))
        matrix, legend = build_constraint_system(algebra)
        assert matrix.nrows == 0 and len(legend) == 1
        assert frobenius_dimension(algebra) == 1


class TestSolve:
    def test_canonical_algebra_vanishes(self):
        q, ideal = gen_canonical(CanonicalSpec((2, 2, 2), (1,)))
        space = solve_frobenius_space(compute_basis(q, ideal))
        assert space == []

    def test_diamond_linear_structure(self):
        q, ideal = gen_toupie((2, 2), (), [(1, -1)])
        algebra = compute_basis(q, ideal)
        space = solve_frobenius_space(algebra)
        assert len(space) == 1
        generator = space[0]
        bottom = q.path(["a2_1", "a2_2"])
        expected = {
            "0": {(bottom, q.trivial_path("0"))},
            "w": {(q.trivial_path("w"), bottom)},
            "v1_1": {(q.path(["a1_2"]), q.path(["a1_1"]))},
            "v2_1": {(q.path(["a2_2"]), q.path(["a2_1"]))},
        }
        got = {v: set(path_terms(algebra, t)) for v, t in generator.values.items()}
        assert got == expected
        coefficients = [c for terms in generator.values.values() for c in terms.values()]
        assert len(set(coefficients)) == 1

    def test_rsz_linear_three(self):
        q, ideal = gen_linear(3, [(1, 2)])
        space = solve_frobenius_space(compute_basis(q, ideal))
        assert len(space) == 3

    @pytest.mark.parametrize("case,expected", [(1, 3), (2, 3), (3, 2), (4, 4)])
    def test_quadratic_local_cases(self, case, expected):
        algebra = algebra_of(local_case(case))
        assert frobenius_dimension(algebra) == expected

    def test_dimension_matches_space(self):
        for build in [gen_linear(4), gen_cycle(3, 2), local_case(3)]:
            algebra = algebra_of(build)
            assert frobenius_dimension(algebra) == len(solve_frobenius_space(algebra))


class TestCandidateValues:
    def test_values_are_normalised_in_the_field(self):
        q, ideal = gen_cycle(1, 2)
        f5 = compute_basis(q, ideal, PrimeField(5))
        pair = (f5.index[q.trivial_path("1")], f5.index[q.path(["a1"])])
        assert CoproductCandidate(f5, {"1": {pair: 6}}).values == {"1": {pair: 1}}
        assert CoproductCandidate(f5, {"1": {pair: 5}}).values == {}
        rationals = compute_basis(q, ideal)
        for given, expected in ((2, 2), (Fraction(4, 2), 2), (True, 1),
                                (Fraction(2, 3), Fraction(2, 3))):
            value = CoproductCandidate(rationals, {"1": {pair: given}}).values["1"][pair]
            assert value == expected
            assert_canonical(QQ, [value])
        with pytest.raises(ValidationError, match="not an F_5 scalar"):
            CoproductCandidate(f5, {"1": {pair: 0.5}})

    def test_empty_value_is_written_as_zero(self):
        """A side that vanishes reads 0 in describe: on the loop x with
        x * x = 0, D(e) = e (x) x gives D(e) (1 (x) x) = e (x) x * x = 0."""
        q, ideal = gen_cycle(1, 2)
        algebra = compute_basis(q, ideal)
        pair = (algebra.index[q.trivial_path("1")], algebra.index[q.path(["a1"])])
        candidate = CoproductCandidate(algebra, {"1": {pair: 1}})
        ok, counterexample = verify_coproduct(algebra, candidate)
        assert not ok and counterexample.right_side == {}
        assert counterexample.describe() == ("pair (e_1, a1): value on product = a1(x)a1, "
                                             "(left (x) 1) form = a1(x)a1, (1 (x) right) form = 0")


class TestExtend:
    def test_diamond_first_arrow(self):
        q, ideal = gen_toupie((2, 2), (), [(1, -1)])
        algebra = compute_basis(q, ideal)
        generator = solve_frobenius_space(algebra)[0]
        scale = next(iter(generator.values["v1_1"].values()))
        value = extend_coproduct(generator, q.path(["a1_1"]))
        bottom = q.path(["a2_1", "a2_2"])
        assert value == {(bottom, q.path(["a1_1"])): scale}

    def test_zero_candidate(self):
        algebra = algebra_of(gen_linear(3, [(1, 2)]))
        zero = CoproductCandidate(algebra, {})
        for b in algebra.basis:
            assert extend_coproduct(zero, b) == {}

    def test_loop_symmetric_part(self):
        q, ideal = gen_cycle(1, 2)
        algebra = compute_basis(q, ideal)
        e = q.trivial_path("1")
        x = q.path(["a1"])
        value = index_terms(algebra, {(e, x): QQ.one, (x, e): QQ.one})
        candidate = CoproductCandidate(algebra, {"1": value})
        assert extend_coproduct(candidate, x) == {(x, x): QQ.one}

    def test_trivial_path_returns_vertex_value(self):
        algebra = algebra_of(gen_cycle(1, 2))
        candidate = solve_frobenius_space(algebra)[0]
        e = algebra.quiver.trivial_path("1")
        assert extend_coproduct(candidate, e) == path_terms(algebra, candidate.values["1"])


class TestVerify:
    def test_zero_candidate_verifies(self):
        algebra = algebra_of(gen_linear(4, [(1, 3)]))
        ok, ce = verify_coproduct(algebra, CoproductCandidate(algebra, {}))
        assert ok and ce is None

    def test_pattern_five_witness(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        value = index_terms(algebra, {(q.path(["a2"]), q.path(["a1"])): QQ.one})
        candidate = CoproductCandidate(algebra, {"2": value})
        ok, _ = verify_coproduct(algebra, candidate)
        assert ok

    def test_perturbed_diamond_fails_between_branch_arrows(self):
        q, ideal = gen_toupie((2, 2), (), [(1, -1)])
        algebra = compute_basis(q, ideal)
        generator = solve_frobenius_space(algebra)[0]
        values = dict(generator.values)
        values["w"] = {pair: 2 * c for pair, c in values["w"].items()}
        bad = CoproductCandidate(algebra, values)
        ok, ce = verify_coproduct(algebra, bad)
        assert not ok
        # the two extensions of the value on the full branch path differ
        # by the factor 2, detected at a pair along the branch
        a1, a2 = q.path(["a1_1"]), q.path(["a1_2"])
        delta_a1 = extend_coproduct(bad, a1)
        lhs = {}
        for (u, v), c in extend_coproduct(bad, a2).items():
            glued = compose(a1, u)
            if glued is not None:
                for z, value in reduce_path(algebra, glued).items():
                    add(lhs, (z, v), c * value, QQ)
        rhs = {}
        for (u, v), c in delta_a1.items():
            glued = compose(v, a2)
            if glued is not None:
                for z, value in reduce_path(algebra, glued).items():
                    add(rhs, (u, z), c * value, QQ)
        assert lhs != rhs

    def test_support_violation_is_distinct(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        value = index_terms(algebra, {(q.path(["a1"]), q.path(["a1"])): QQ.one})
        bad = CoproductCandidate(algebra, {"2": value})
        with pytest.raises(SupportViolationError):
            verify_coproduct(algebra, bad)

    def test_support_violation_on_the_right_leg_only(self):
        """e_1 (x) a1 at vertex 1 of A_3: the left leg starts at 1, but
        the right leg ends at 2, not 1."""
        q, ideal = gen_linear(3)
        algebra = compute_basis(q, ideal)
        value = index_terms(algebra, {(q.trivial_path("1"), q.path(["a1"])): QQ.one})
        bad = CoproductCandidate(algebra, {"1": value})
        with pytest.raises(SupportViolationError, match=r"^term e_1\(x\)a1 at vertex 1 breaks"):
            verify_coproduct(algebra, bad)


SMALL_INSTANCES = [
    gen_linear(2),
    gen_linear(3, [(1, 2)]),
    gen_linear(4, [(1, 3)]),
    gen_cycle(1, 2),
    gen_cycle(3, 2),
    gen_toupie((2, 2), (), [(1, -1)]),
    gen_toupie((2, 2), ()),
    local_case(1),
    local_case(2),
    local_case(3),
    local_case(4),
    gen_random(5, 4, 5, "rsz"),
]


def _all_pair_columns(algebra):
    legend = []
    for p in algebra.quiver.vertices:
        for u in algebra.basis:
            for v in algebra.basis:
                legend.append((p, u, v))
    return legend


def unrestricted_constraint_system(algebra):
    """The constraint system without the support condition built in.

    Every (p, u, v) is a column, and the idempotent constraints that the
    production system imposes structurally are added as explicit rows.
    """
    field = algebra.field
    legend = _all_pair_columns(algebra)

    rows = []
    # e_p * u = 0 unless u starts at p; same on the right leg.
    for col, (p, u, v) in enumerate(legend):
        if u.source != p or v.target != p:
            rows.append({col: field.one})

    for arrow in algebra.quiver.arrows:
        p, q = arrow.source, arrow.target
        arrow_path = Path(p, q, (arrow.name,))
        # Coefficient of each tensor pair in (arrow (x) 1) D(e_q) - D(e_p) (1 (x) arrow).
        pair_rows = {}
        for col, (vertex, u, v) in enumerate(legend):
            if vertex == q:
                left = compose(arrow_path, u)
                if left is not None:
                    for w, c in reduce_path(algebra, left).items():
                        row = pair_rows.setdefault((w, v), {})
                        row[col] = field.reduce(row.get(col, field.zero) + c)
            if vertex == p:
                right = compose(v, arrow_path)
                if right is not None:
                    for z, c in reduce_path(algebra, right).items():
                        row = pair_rows.setdefault((u, z), {})
                        row[col] = field.reduce(row.get(col, field.zero) - c)
        for pair in sorted(pair_rows, key=lambda wz: (wz[0].sort_key(), wz[1].sort_key())):
            row = {col: c for col, c in pair_rows[pair].items() if c != field.zero}
            if row:
                rows.append(row)

    matrix = SparseMatrix(rows, len(legend), field)
    return matrix, legend


def test_support_forcing_matches_unrestricted():
    for build in SMALL_INSTANCES:
        algebra = algebra_of(build)
        m1, l1 = build_constraint_system(algebra)
        m2, l2 = unrestricted_constraint_system(algebra)
        assert len(l1) - rank(m1) == len(l2) - rank(m2)


def assert_solver_bug_at_first_failing_pair(monkeypatch, algebra, name, corrupted, legend,
                                            vector):
    """With frobenius.<name> replaced by corrupted, which feeds the solver
    vector, solve_frobenius_space raises at the vector's first failing pair."""
    candidate = CoproductCandidate(algebra)
    for col, value in vector.items():
        p, u, v = legend[col]
        candidate.values.setdefault(p, {})[u, v] = value
    ok, counterexample = verify_coproduct(algebra, candidate)
    assert not ok
    monkeypatch.setattr(frobenius, name, corrupted)
    with pytest.raises(InternalFaultError) as excinfo:
        solve_frobenius_space(algebra)
    assert str(excinfo.value) == ("kernel vector failed independent verification at pair "
                                  f"({counterexample.x}, {counterexample.y}); solver bug")


def test_failing_kernel_vector_is_a_solver_bug(monkeypatch):
    """A kernel vector that fails verification raises at its own first failing pair.

    The toupie's ideal is not monomial, so kernel_basis feeds the solver.
    """
    algebra = algebra_of(gen_toupie((3, 3), [(1, 1, 2)], [(1, -2)]))
    matrix, legend = build_constraint_system(algebra)
    kernel_basis = frobenius.kernel_basis

    def corrupted(matrix):
        vectors = kernel_basis(matrix)
        vectors[2][0] = vectors[2].get(0, 0) + 1
        return vectors

    assert_solver_bug_at_first_failing_pair(monkeypatch, algebra, "kernel_basis", corrupted,
                                            legend, corrupted(matrix)[2])


def test_failing_monomial_kernel_vector_is_a_solver_bug(monkeypatch):
    """The same on a monomial ideal, whose kernel comes from the chain walk."""
    algebra = algebra_of(gen_cycle(3, 3))
    monomial_kernel = frobenius._monomial_kernel

    def corrupted(algebra, columns):
        vectors = monomial_kernel(algebra, columns)
        vectors[2][0] = vectors[2].get(0, 0) + 1
        return vectors

    columns = frobenius._columns(algebra)[0]
    assert_solver_bug_at_first_failing_pair(monkeypatch, algebra, "_monomial_kernel", corrupted,
                                            frobenius._legend(columns),
                                            corrupted(algebra, columns)[2])


def in_span(vectors, candidate_vec, ncols):
    rows = list(vectors)
    base = rank(SparseMatrix(rows, ncols))
    return rank(SparseMatrix(rows + [candidate_vec], ncols)) == base


# The monomial draws of mixed_algebras: toupies with no linear relation,
# or one of a single term, and grids with no square.
monomial_mixed_algebras = mixed_algebras().filter(
    lambda drawn: drawn[1].is_monomial).map(lambda drawn: drawn[:3])


@st.composite
def finite_monomial_quivers(draw):
    """A small_quivers draw, loops and parallel arrows allowed, with every
    path of a drawn length L >= 2 and a few drawn length-2 words as
    monomial generators, so the quotient is finite whatever the cycles."""
    quiver = draw(small_quivers())
    length = draw(st.integers(2, 3))
    words = {p.arrows for p in quiver.enumerate_paths(length) if len(p) == length}
    twos = [p.arrows for p in quiver.enumerate_paths(2) if len(p) == 2]
    if twos:
        words.update(draw(st.lists(st.sampled_from(twos), max_size=3)))
    generators = [mono(quiver, list(word)) for word in sorted(words)]
    return quiver, IdealSpec(generators), draw(st.sampled_from(MONOMIAL_FIELDS))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=st.one_of(random_algebras(), monomial_mixed_algebras, finite_monomial_quivers()))
def test_chain_walk_kernel_is_kernel_basis(drawn):
    """The monomial route gives the kernel vectors, in order, that the
    constraint matrix and kernel_basis give, each keyed in column order,
    and its layout, in basis order, which is canonical order, the legend."""
    quiver, ideal, field = drawn
    assume(not has_zero_generator(ideal, field))
    algebra = compute_basis(quiver, ideal, field)
    assert list(algebra.basis) == sorted(algebra.basis, key=canonical_key)
    matrix, legend = build_constraint_system(algebra)
    columns = frobenius._columns(algebra)[0]
    assert frobenius._legend(columns) == legend
    vectors = frobenius._monomial_kernel(algebra, columns)
    assert vectors == kernel_basis(matrix)
    assert all(list(vector) == sorted(vector) for vector in vectors)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=st.one_of(random_algebras(), monomial_mixed_algebras, finite_monomial_quivers()))
def test_monomial_two_entry_rows_form_chains(drawn):
    """Over a monomial ideal no row holds more than two entries, every
    column lies in at most two two-entry rows, and the graph whose edges
    are the two-entry rows has no cycle: its components are chains, which
    the monomial route walks."""
    quiver, ideal, field = drawn
    assume(not has_zero_generator(ideal, field))
    matrix, _ = build_constraint_system(compute_basis(quiver, ideal, field))
    assert all(len(row) <= 2 for row in matrix.rows)
    edges = [tuple(row) for row in matrix.rows if len(row) == 2]
    degree = [0] * matrix.ncols
    for edge in edges:
        for col in edge:
            degree[col] += 1
    assert max(degree, default=0) <= 2
    parent = list(range(matrix.ncols))

    def root(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for i, j in edges:
        assert root(i) != root(j), f"the two-entry rows close a cycle at columns {i}, {j}"
        parent[root(i)] = root(j)


def product_table_constraint_system(algebra):
    """The constraint system built from the verifier's product table.

    It reads a * u and v * a from algebra.product_table by basis index,
    not from the reduction table by arrow word, and sums each cell.
    """
    products = algebra.product_table
    legend = frobenius._legend(frobenius._columns(algebra)[0])
    columns = {p: [] for p in algebra.quiver.vertices}
    for col, (p, u, v) in enumerate(legend):
        columns[p].append((col, u, v))
    rows = []
    for arrow in algebra.quiver.arrows:
        p, q = arrow.source, arrow.target
        a = algebra.index[Path(p, q, (arrow.name,))]
        pair_rows = {}
        for col, u, v in columns[q]:
            for w, c in products[a][u].items():
                row = pair_rows.setdefault((w, v), {})
                row[col] = row.get(col, 0) + c
        for col, u, v in columns[p]:
            for z, c in products[v][a].items():
                row = pair_rows.setdefault((u, z), {})
                row[col] = row.get(col, 0) - c
        rows.extend(r for row in pair_rows.values()
                    if (r := frobenius._reduced(row, algebra.field.reduce)))
    return SparseMatrix(rows, len(legend), algebra.field), legend


def assert_matches_product_table_build(algebra):
    """build_constraint_system's matrix is the reference's, entry for
    entry, so the two have the same RREF and kernel basis."""
    matrix, legend = build_constraint_system(algebra)
    # The builder's rows are adopted with no second pass, so validating
    # them must change nothing, and no row may be empty.
    assert all(matrix.rows)
    assert_canonical(algebra.field, (c for row in matrix.rows for c in row.values()))
    assert SparseMatrix(matrix.rows, matrix.ncols, algebra.field).rows == matrix.rows
    reference, reference_legend = product_table_constraint_system(algebra)
    assert legend == reference_legend
    assert reference.rows == matrix.rows
    assert rref(matrix) == rref(reference)
    assert kernel_basis(matrix) == kernel_basis(reference)


@st.composite
def looped_mixed_algebras(draw):
    """A small_quivers draw, loops and parallel arrows allowed, with every
    path of a drawn length L in {3, 4} as a monomial generator, so the
    quotient is finite, and up to three relations p - c * p' between
    distinct parallel paths shorter than L: a non-monomial ideal whose
    pivots rewrite a path over others of its block."""
    quiver = draw(small_quivers())
    length = draw(st.integers(3, 4))
    paths = quiver.enumerate_paths(length)
    generators = [mono(quiver, list(p.arrows)) for p in paths if len(p) == length]
    short = [p for p in paths if 2 <= len(p) < length]
    pairs = [(p, q) for p in short for q in short
             if p.arrows < q.arrows and (p.source, p.target) == (q.source, q.target)]
    if pairs:
        for p, q in draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)):
            c = draw(st.sampled_from((1, -1, 2, 3)))
            generators.append(PathExpr({p: 1, q: -c}))
    return quiver, IdealSpec(generators), draw(st.sampled_from(MONOMIAL_FIELDS))


constraint_algebras = st.one_of(random_algebras(), mixed_algebras().map(lambda drawn: drawn[:3]),
                                looped_mixed_algebras())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=constraint_algebras)
def test_constraint_build_matches_product_table_build(drawn):
    quiver, ideal, field = drawn
    assume(not has_zero_generator(ideal, field))
    assert_matches_product_table_build(compute_basis(quiver, ideal, field))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=constraint_algebras)
def test_arrow_products_are_longer_than_their_factor(drawn):
    """Every coordinate of a * u and of v * a, for an arrow a, is a basis
    path longer than u or v.  So in build_constraint_system a left term of
    (a (x) 1) D(e_q), in row (w, v) with w a coordinate of a * u, never
    shares a cell with a right term of D(e_p) (1 (x) a), in row (u, z):
    that would need u to be a coordinate of a * u."""
    quiver, ideal, field = drawn
    assume(not has_zero_generator(ideal, field))
    algebra = compute_basis(quiver, ideal, field)
    for arrow in quiver.arrows:
        a = Path(arrow.source, arrow.target, (arrow.name,))
        for b in algebra.basis:
            for product in (compose(a, b), compose(b, a)):
                if product is not None:
                    assert all(len(w) > len(b) for w in reduce_path(algebra, product))


def test_integral_coordinates_enter_the_q_rows_as_ints():
    """Of canonical (9,10,11,12), lambda = (2, 1/3), only the entries
    with a non-integral coordinate are Fractions; the rest are ints."""
    q, ideal = gen_canonical(CanonicalSpec((9, 10, 11, 12), (2, Fraction(1, 3))))
    algebra = compute_basis(q, ideal)
    assert_canonical(QQ, (c for coords in algebra.table.values() for c in coords.values()))
    matrix, _ = build_constraint_system(algebra)
    entries = [c for row in matrix.rows for c in row.values()]
    assert_canonical(QQ, entries)
    assert 0 < sum(type(c) is Fraction for c in entries) < len(entries)


def test_f_p_rows_hold_residues():
    """Over F_7 every entry is a residue in [0, 7), a right-hand -c included."""
    q, ideal = gen_toupie((3, 3), [(1, 1, 2)], [(1, -2)])
    matrix, _ = build_constraint_system(compute_basis(q, ideal, PrimeField(7)))
    assert_canonical(PrimeField(7), (c for row in matrix.rows for c in row.values()))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(drawn=st.one_of(random_algebras(), mixed_algebras().map(lambda drawn: drawn[:3])))
def test_scalars_stay_canonical_from_table_to_candidates(drawn):
    """The reduction table, the kernel vectors of either route and the
    candidates' values hold canonical scalars of the algebra's field."""
    quiver, ideal, field = drawn
    assume(not has_zero_generator(ideal, field))
    algebra = compute_basis(quiver, ideal, field)
    assert_canonical(field, (c for coords in algebra.table.values() for c in coords.values()))
    vectors, _ = frobenius._kernel(algebra)
    assert_canonical(field, (c for vector in vectors for c in vector.values()))
    for candidate in solve_frobenius_space(algebra):
        assert_canonical(field, (c for terms in candidate.values.values() for c in terms.values()))


def test_constraint_build_matches_fractional_product_table_build():
    q, ideal = gen_canonical(CanonicalSpec((9, 10, 11, 12), (2, Fraction(1, 3))))
    algebra = compute_basis(q, ideal)
    assert any(type(c) is Fraction for row in algebra.product_table for coords in row.values()
               for c in coords.values())
    assert_matches_product_table_build(algebra)


@pytest.mark.parametrize("build", [gen_linear(6), gen_canonical(CanonicalSpec((2, 3, 4), (2,)))],
                         ids=["monomial", "canonical"])
def test_dimension_leaves_the_product_table_unbuilt(build):
    algebra = algebra_of(build)
    frobenius_dimension(algebra)
    assert "product_table" not in vars(algebra)


def test_verifier_completeness_both_directions():
    """Kernel vectors verify; random vectors outside the kernel never do."""
    rng = random.Random(2718)
    for build in SMALL_INSTANCES:
        algebra = algebra_of(build)
        if algebra.dimension > 20:
            continue
        matrix, legend = build_constraint_system(algebra)
        legend_index = {key: i for i, key in enumerate(legend)}
        space = solve_frobenius_space(algebra)
        kernel_vectors = [coefficient_vector(c, legend_index) for c in space]
        for candidate in space:
            ok, _ = verify_coproduct(algebra, candidate)
            assert ok
        if len(space) == len(legend):
            continue  # every candidate is a coproduct; nothing lies outside
        produced = 0
        attempts = 0
        while produced < 10 and attempts < 200:
            attempts += 1
            vec = {}
            for col in range(len(legend)):
                if rng.random() < 0.4:
                    vec[col] = QQ.scalar(rng.randint(-3, 3))
            vec = {c: v for c, v in vec.items() if v != QQ.zero}
            if not vec or in_span(kernel_vectors, vec, len(legend)):
                continue
            values = {}
            for col, value in vec.items():
                p, u, v = legend[col]
                add(values.setdefault(p, {}), (u, v), value, QQ)
            ok, _ = verify_coproduct(algebra, CoproductCandidate(algebra, values))
            assert not ok
            produced += 1
        assert produced == 10


# cycle(3,3) is monomial, so every nonzero product is one basis path with
# coordinate 1 and the walk takes D(b) itself as the value on it.  The
# canonical table has coordinates other than 1 and products of several
# coordinates.
WALK_INSTANCES = pytest.mark.parametrize(
    "build", [gen_cycle(3, 3), gen_canonical(CanonicalSpec((2, 2, 2), (Fraction(1, 3),)))],
    ids=["cycle(3,3)", "canonical (2,2,2), lambda 1/3"])


def kernel_and_perturbed(algebra):
    """The kernel basis, then its sum plus 1/2 e_v (x) e_v at the source v
    of the first arrow, which makes it fail."""
    kernel = solve_frobenius_space(algebra)
    values = combine(algebra, [(1, candidate) for candidate in kernel])
    q = algebra.quiver
    e = q.trivial_path(q.arrows[0].source)
    i = algebra.index[e]
    add(values.setdefault(e.source, {}), (i, i), Fraction(1, 2), algebra.field)
    return kernel + [CoproductCandidate(algebra, values)]


def walk_result(failure):
    n, counterexample = failure
    return (n, counterexample.x, counterexample.y, counterexample.expected,
            counterexample.left_side, counterexample.right_side)


@WALK_INSTANCES
def test_failing_walk_writes_to_neither_products_nor_candidates(build):
    """The product table's entries are the reduction table's own maps, so
    the walk must leave both unwritten."""
    algebra = algebra_of(build)
    arrow = algebra.quiver.arrows[0]
    e, a = (algebra.index[p] for p in (algebra.quiver.trivial_path(arrow.source),
                                        algebra.quiver.path([arrow.name])))
    assert algebra.product_table[e][a] is algebra.table[(arrow.name,)]
    candidates = kernel_and_perturbed(algebra)
    table = copy.deepcopy(algebra.table)
    products = copy.deepcopy(algebra.product_table)
    values = [copy.deepcopy(c.values) for c in candidates]
    failure = frobenius._first_failure(algebra, candidates)
    assert failure is not None and failure[0] == len(candidates) - 1
    assert algebra.table == table
    assert algebra.product_table == products
    assert [c.values for c in candidates] == values


@WALK_INSTANCES
def test_consecutive_walks_agree(build):
    algebra = algebra_of(build)
    coords = [coords for row in algebra.product_table for coords in row.values()]
    if build[1].is_monomial:
        assert all(list(c.values()) in ([], [1]) for c in coords)
    else:
        assert any(value != 1 for c in coords for value in c.values())
        assert any(len(c) > 1 for c in coords)
    candidates = kernel_and_perturbed(algebra)
    first = walk_result(frobenius._first_failure(algebra, candidates))
    assert walk_result(frobenius._first_failure(algebra, candidates)) == first


GROUPS = st.lists(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                                  st.integers(-4, 4).filter(bool), min_size=1, max_size=3),
                  min_size=1, max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(groups=GROUPS, p=st.sampled_from([None, 5]), data=st.data())
def test_take_sums_moves_and_writes_to_no_group(groups, p, data):
    """Moves by _take's take-or-copy rule: the sum of c * group at each key,
    reduced, without zero values or empty groups, and not one of the
    groups it was given written to, though the side may hold them.  A
    group may move to several keys, and several groups to one key, as in
    the walk."""
    field = QQ if p is None else PrimeField(p)
    groups = [{leg: field.reduce(c) for leg, c in group.items() if field.reduce(c)}
              for group in groups]
    assume(all(groups))
    moves = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, len(groups) - 1),
                                         st.sampled_from([1, 1, 2, -1, 4])), max_size=6))
    before = copy.deepcopy(groups)
    side, owned = {}, set()
    for key, g, c in moves:
        frobenius._take(side, owned, key, groups[g], c, field.reduce)
    total = {}
    for key, g, c in moves:
        for leg, value in groups[g].items():
            add(total.setdefault(key, {}), leg, field.reduce(c * value), field)
    assert side == {key: terms for key, terms in total.items() if terms}
    assert groups == before


@pytest.mark.parametrize("coeff", [1, Fraction(1, 3)])
def test_coproduct_through_a_product_of_two_coordinates(coeff):
    """a * b = a * c + coeff a * d, and g * b = g * c = g * d = 0.

    The one coproduct has b (x) g in its value at m, so the left form
    (a (x) 1) D(e_m) holds a * b (x) g, whose two coordinates must both be
    multiplied for the solver's own verification to pass.  A left form
    that multiplies only the first coordinate of x * u passes every
    other test (see tests/mutants.py).
    """
    q = Quiver(["s", "m", "n", "t"], [("a", "s", "m"), ("g", "n", "m"),
                                      ("b", "m", "t"), ("c", "m", "t"), ("d", "m", "t")])
    ab, ac, ad = (q.path(["a", x]) for x in "bcd")
    ideal = IdealSpec([PathExpr({ab: 1, ac: -1, ad: -coeff})]
                      + [mono(q, ["g", x]) for x in "bcd"])
    algebra = compute_basis(q, ideal)
    assert len(reduce_path(algebra, ab)) == 2
    [candidate] = solve_frobenius_space(algebra)
    assert (q.path(["b"]), q.path(["g"])) in path_terms(algebra, candidate.values["m"])
    assert verify_coproduct(algebra, candidate) == (True, None)


def test_relabeling_invariance():
    rng = random.Random(1234)
    for build in [gen_linear(3, [(1, 2)]), gen_cycle(3, 2),
                  gen_toupie((2, 2), (), [(1, -1)]), local_case(3)]:
        q, ideal = build
        expected = frobenius_dimension(compute_basis(q, ideal))
        new_vertices = [f"z{i}" for i in range(len(q.vertices))]
        rng.shuffle(new_vertices)
        vmap = dict(zip(q.vertices, new_vertices))
        new_arrows = [f"r{i}" for i in range(len(q.arrows))]
        rng.shuffle(new_arrows)
        amap = {a.name: new_arrows[i] for i, a in enumerate(q.arrows)}
        renamed = Quiver([vmap[v] for v in q.vertices],
                         [(amap[a.name], vmap[a.source], vmap[a.target])
                          for a in q.arrows])
        new_gens = []
        for g in ideal.generators:
            new_gens.append(PathExpr({
                renamed.path([amap[n] for n in p.arrows]): c
                for p, c in g.terms.items()
            }))
        relabeled = frobenius_dimension(compute_basis(renamed, IdealSpec(new_gens)))
        assert relabeled == expected


def test_rsz_with_length_two_path_is_nontrivial():
    for seed in range(8):
        q, ideal = gen_random(seed, 5, 7, "rsz")
        if not ideal.generators:
            continue  # no length-2 path anywhere
        algebra = compute_basis(q, ideal)
        assert frobenius_dimension(algebra) >= 1


def test_inhomogeneous_generator_algebra():
    """One generator mixing a length-2 and a length-3 term."""
    q = Quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "2"), ("b", "2", "4"),
                ("c", "1", "3"), ("d", "3", "5"), ("e", "5", "4")])
    short = q.path(["a", "b"])
    long = q.path(["c", "d", "e"])
    ideal = IdealSpec([PathExpr({short: QQ.one, long: -QQ.one})])
    algebra = compute_basis(q, ideal)
    assert algebra.dimension == 13
    assert reduce_path(algebra, short) == {long: QQ.one}
    x = coords_of(algebra, q.path(["a"]))
    y = coords_of(algebra, q.path(["b"]))
    assert multiply(algebra, x, y) == {long: QQ.one}
    space = solve_frobenius_space(algebra)
    assert len(space) == frobenius_dimension(algebra)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_a_row_of_three_entries_is_eliminated(field):
    """With x and y parallel, a*x - a*y puts three entries in one row of
    the constraint system, so rref declines the union-find route and
    eliminates; the dimension is that of reference_rref's kernel."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("x", "2", "3"), ("y", "2", "3")])
    ideal = IdealSpec([PathExpr({q.path(["a", "x"]): 1, q.path(["a", "y"]): -1})])
    algebra = compute_basis(q, ideal, field)
    matrix, _ = build_constraint_system(algebra)
    assert max(map(len, matrix.rows)) == 3
    assert linalg._pair_rref(matrix) is None
    _, pivots = reference_rref(matrix)
    assert frobenius_dimension(algebra) == matrix.ncols - len(pivots)


def test_prime_field_dimensions_match_rationals():
    from frobq.linalg import PrimeField
    for p in (2, 3, 7):
        q, ideal = gen_toupie((2, 2), (), [(1, -1)])
        assert frobenius_dimension(compute_basis(q, ideal, PrimeField(p))) == 1
        q, ideal = local_case(4)
        assert frobenius_dimension(compute_basis(q, ideal, PrimeField(p))) == 4


@pytest.mark.parametrize("field, coeffs, total", [
    (QQ, ("1/2", "-1/2"), None),
    (QQ, ("1/2", "1/3"), Fraction(5, 6)),
    (PrimeField(7), ("3", "4"), None),
    (PrimeField(7), ("3", "5"), 1),
    (PrimeField(7), ("7", "2"), 2),
])
def test_candidate_from_json_sums_repeated_terms(field, coeffs, total):
    q, ideal = gen_toupie((2, 2), (), [(1, -1)])
    algebra = compute_basis(q, ideal, field)
    vertex = q.vertices[-1]
    word = [q.in_arrows[vertex][0].name]
    terms = [{"left": {"e": vertex}, "right": word, "coeff": c} for c in coeffs]
    candidate = candidate_from_json([{"vertex": vertex, "terms": terms}], algebra)
    key = (algebra.index[q.trivial_path(vertex)], algebra.index[q.path(word)])
    assert candidate.values == ({} if total is None else {vertex: {key: total}})


def test_candidate_json_round_trip():
    q, ideal = gen_toupie((2, 2), (), [(1, -1)])
    algebra = compute_basis(q, ideal)
    candidate = solve_frobenius_space(algebra)[0]
    data = candidate_to_json(candidate)
    assert candidate_from_json(data, algebra).values == candidate.values
    # a candidate file may wrap the same payload under a schema key
    dumped = json.loads(json.dumps({"schema": "frobq/1", "coproduct": data}))
    assert candidate_from_json(dumped, algebra).values == candidate.values


def test_candidate_to_json_orders_tied_trivial_legs_by_basis_index():
    """Trivial legs tie under sort_key; the writer puts them by basis index
    (vertex name), not by the order the terms were added.  Only a candidate
    that breaks the support condition holds two trivial legs on one side."""
    q = Quiver(["x", "y"], [("a", "x", "y")])
    algebra = compute_basis(q, IdealSpec([]))
    index = algebra.index
    ex, ey = index[q.trivial_path("x")], index[q.trivial_path("y")]
    assert ex < ey
    candidate = CoproductCandidate(algebra, {"x": {(ey, ex): QQ.one, (ex, ex): QQ.one}})
    [value] = candidate_to_json(candidate)
    assert [term["left"] for term in value["terms"]] == [{"e": "x"}, {"e": "y"}]
    assert candidate_from_json([value], algebra).values == candidate.values
