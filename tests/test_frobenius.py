import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobq import frobenius
from frobq.errors import InternalFaultError, SupportViolationError
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
    TensorElement,
    build_constraint_system,
    candidate_from_json,
    candidate_to_json,
    extend_coproduct,
    frobenius_dimension,
    solve_frobenius_space,
    verify_coproduct,
)
from frobq.ideal import IdealSpec, compute_basis
from frobq.linalg import QQ, PrimeField, SparseMatrix, kernel_basis, rank, rref
from frobq.quiver import Path, PathExpr, Quiver

from algebra_ops import coefficient_vector, compose, coords_of, multiply
from strategies import has_zero_generator, mixed_algebras, random_algebras


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
        got = {v: set(t.coefficients) for v, t in generator.values.items()}
        assert got == expected
        coefficients = [c for t in generator.values.values()
                        for c in t.coefficients.values()]
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


class TestTensorElement:
    def test_values_are_normalised_in_the_field(self):
        q, _ = gen_cycle(1, 2)
        pair = (q.trivial_path("1"), q.path(["a1"]))
        f5 = PrimeField(5)
        assert TensorElement(f5, {pair: 6}) == TensorElement(f5, {pair: 1})
        vanishing = TensorElement(f5, {pair: 5})
        assert vanishing.is_zero and str(vanishing) == "0"
        value = TensorElement(QQ, {pair: 2}).coefficients[pair]
        assert type(value) is Fraction and value == 2


class TestExtend:
    def test_diamond_first_arrow(self):
        q, ideal = gen_toupie((2, 2), (), [(1, -1)])
        algebra = compute_basis(q, ideal)
        generator = solve_frobenius_space(algebra)[0]
        scale = next(iter(generator.value_at("v1_1").coefficients.values()))
        value = extend_coproduct(generator, q.path(["a1_1"]))
        bottom = q.path(["a2_1", "a2_2"])
        assert value.coefficients == {(bottom, q.path(["a1_1"])): scale}

    def test_zero_candidate(self):
        algebra = algebra_of(gen_linear(3, [(1, 2)]))
        zero = CoproductCandidate(algebra, {})
        for b in algebra.basis:
            assert extend_coproduct(zero, b).is_zero

    def test_loop_symmetric_part(self):
        q, ideal = gen_cycle(1, 2)
        algebra = compute_basis(q, ideal)
        e = q.trivial_path("1")
        x = q.path(["a1"])
        tensor = TensorElement(QQ, {(e, x): QQ.one, (x, e): QQ.one})
        candidate = CoproductCandidate(algebra, {"1": tensor})
        value = extend_coproduct(candidate, x)
        assert value.coefficients == {(x, x): QQ.one}

    def test_trivial_path_returns_vertex_value(self):
        algebra = algebra_of(gen_cycle(1, 2))
        candidate = solve_frobenius_space(algebra)[0]
        e = algebra.quiver.trivial_path("1")
        assert extend_coproduct(candidate, e) == candidate.value_at("1")


class TestVerify:
    def test_zero_candidate_verifies(self):
        algebra = algebra_of(gen_linear(4, [(1, 3)]))
        ok, ce = verify_coproduct(algebra, CoproductCandidate(algebra, {}))
        assert ok and ce is None

    def test_pattern_five_witness(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        tensor = TensorElement(QQ, {(q.path(["a2"]), q.path(["a1"])): QQ.one})
        candidate = CoproductCandidate(algebra, {"2": tensor})
        ok, _ = verify_coproduct(algebra, candidate)
        assert ok

    def test_perturbed_diamond_fails_between_branch_arrows(self):
        q, ideal = gen_toupie((2, 2), (), [(1, -1)])
        algebra = compute_basis(q, ideal)
        generator = solve_frobenius_space(algebra)[0]
        values = dict(generator.values)
        values["w"] = TensorElement(QQ, {pair: 2 * c for pair, c in
                                         values["w"].coefficients.items()})
        bad = CoproductCandidate(algebra, values)
        ok, ce = verify_coproduct(algebra, bad)
        assert not ok
        # the two extensions of the value on the full branch path differ
        # by the factor 2, detected at a pair along the branch
        a1, a2 = q.path(["a1_1"]), q.path(["a1_2"])
        delta_a1 = extend_coproduct(bad, a1)
        lhs = TensorElement(QQ)
        for (u, v), c in extend_coproduct(bad, a2).coefficients.items():
            glued = compose(a1, u)
            if glued is not None:
                for z, value in algebra.reduce_path(glued).items():
                    lhs.add_term(z, v, c * value)
        rhs = TensorElement(QQ)
        for (u, v), c in delta_a1.coefficients.items():
            glued = compose(v, a2)
            if glued is not None:
                for z, value in algebra.reduce_path(glued).items():
                    rhs.add_term(u, z, c * value)
        assert lhs != rhs

    def test_support_violation_is_distinct(self):
        q, ideal = gen_linear(3, [(1, 2)])
        algebra = compute_basis(q, ideal)
        tensor = TensorElement(QQ, {(q.path(["a1"]), q.path(["a1"])): QQ.one})
        bad = CoproductCandidate(algebra, {"2": tensor})
        with pytest.raises(SupportViolationError):
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
                    for w, c in algebra.reduce_path(left).items():
                        row = pair_rows.setdefault((w, v), {})
                        row[col] = field.reduce(row.get(col, field.zero) + c)
            if vertex == p:
                right = compose(v, arrow_path)
                if right is not None:
                    for z, c in algebra.reduce_path(right).items():
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
    values = {}
    for col, value in vector.items():
        p, u, v = legend[col]
        values.setdefault(p, TensorElement(algebra.field)).add_term(u, v, value)
    ok, counterexample = verify_coproduct(algebra, CoproductCandidate(algebra, values))
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
    """The same on a monomial ideal, whose kernel comes from the union-find."""
    algebra = algebra_of(gen_cycle(3, 3))
    monomial_kernel = frobenius._monomial_kernel

    def corrupted(algebra):
        legend, vectors = monomial_kernel(algebra)
        vectors[2][0] = vectors[2].get(0, 0) + 1
        return legend, vectors

    legend, vectors = corrupted(algebra)
    assert_solver_bug_at_first_failing_pair(monkeypatch, algebra, "_monomial_kernel", corrupted,
                                            legend, vectors[2])


def in_span(vectors, candidate_vec, ncols):
    rows = list(vectors)
    base = rank(SparseMatrix(rows, ncols))
    return rank(SparseMatrix(rows + [candidate_vec], ncols)) == base


# The monomial draws of mixed_algebras: toupies with no linear relation,
# or one of a single term, and grids with no square.
monomial_mixed_algebras = mixed_algebras().filter(
    lambda drawn: drawn[1].is_monomial).map(lambda drawn: drawn[:3])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=st.one_of(random_algebras(), monomial_mixed_algebras))
def test_union_find_kernel_is_kernel_basis(drawn):
    """The monomial route gives the legend and kernel vectors, in order,
    that the constraint matrix and kernel_basis give."""
    quiver, ideal, field = drawn
    assume(not has_zero_generator(ideal, field))
    algebra = compute_basis(quiver, ideal, field)
    matrix, legend = build_constraint_system(algebra)
    assert frobenius._monomial_kernel(algebra) == (legend, kernel_basis(matrix))


def product_table_constraint_system(algebra):
    """The constraint system built from the verifier's int product table.

    It reads a * u and v * a from algebra.product_table, whose ints over Q
    are product_scale times the true coordinates, so its matrix is
    product_scale times the true one.
    """
    products = algebra.product_table
    legend, columns, _ = frobenius._columns(algebra)
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
    """build_constraint_system's matrix is the reference's divided by
    product_scale, so the two have the same RREF and kernel basis."""
    matrix, legend = build_constraint_system(algebra)
    reference, reference_legend = product_table_constraint_system(algebra)
    scale = algebra.product_scale
    assert legend == reference_legend
    assert reference.rows == [{j: scale * c for j, c in row.items()} for row in matrix.rows]
    assert rref(matrix) == rref(reference)
    assert kernel_basis(matrix) == kernel_basis(reference)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(drawn=st.one_of(random_algebras(), mixed_algebras().map(lambda drawn: drawn[:3])))
def test_constraint_build_matches_product_table_build(drawn):
    quiver, ideal, field = drawn
    assume(not has_zero_generator(ideal, field))
    assert_matches_product_table_build(compute_basis(quiver, ideal, field))


def test_constraint_build_matches_scaled_product_table_build():
    q, ideal = gen_canonical(CanonicalSpec((9, 10, 11, 12), (2, Fraction(1, 3))))
    algebra = compute_basis(q, ideal)
    assert algebra.product_scale == 5
    assert_matches_product_table_build(algebra)


@pytest.mark.parametrize("build", [gen_linear(6), gen_canonical(CanonicalSpec((2, 3, 4), (2,)))],
                         ids=["monomial", "canonical"])
def test_dimension_leaves_the_product_table_unbuilt(build):
    algebra = algebra_of(build)
    frobenius_dimension(algebra)
    assert "_products" not in vars(algebra)


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
                tensor = values.setdefault(p, TensorElement(QQ))
                tensor.add_term(u, v, value)
            ok, _ = verify_coproduct(algebra, CoproductCandidate(algebra, values))
            assert not ok
            produced += 1
        assert produced == 10


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
    assert algebra.reduce_path(short) == {long: QQ.one}
    x = coords_of(algebra, q.path(["a"]))
    y = coords_of(algebra, q.path(["b"]))
    assert multiply(algebra, x, y) == {long: QQ.one}
    space = solve_frobenius_space(algebra)
    assert len(space) == frobenius_dimension(algebra)


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
    key = (q.trivial_path(vertex), q.path(word))
    if total is None:
        assert candidate.values == {}
    else:
        assert candidate.values[vertex].coefficients == {key: total}


def test_candidate_json_round_trip():
    q, ideal = gen_toupie((2, 2), (), [(1, -1)])
    algebra = compute_basis(q, ideal)
    candidate = solve_frobenius_space(algebra)[0]
    data = candidate_to_json(candidate)
    back = candidate_from_json(data, algebra)
    assert {v: t.coefficients for v, t in back.values.items()} == \
        {v: t.coefficients for v, t in candidate.values.items()}
    # a candidate file may wrap the same payload under a schema key
    dumped = json.loads(json.dumps({"schema": "frobq/1", "coproduct": data}))
    again = candidate_from_json(dumped, algebra)
    assert {v: t.coefficients for v, t in again.values.items()} == \
        {v: t.coefficients for v, t in candidate.values.items()}
