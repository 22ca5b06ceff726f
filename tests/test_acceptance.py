"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Everything here is exact arithmetic, so every expected value is
an integer equality, not a tolerance.
"""

import json
import random
import subprocess
import sys

from frobq.closed_forms import (
    detect_local_patterns,
    radical_square_zero_dimension,
    string_relation_witness,
    toupie_classify,
    witness_coproduct,
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
from frobq.frobenius import (
    CoproductCandidate,
    TensorElement,
    build_constraint_system,
    frobenius_dimension,
    solve_frobenius_space,
    verify_coproduct,
)
from frobq.ideal import IdealSpec, compute_basis
from frobq.linalg import QQ, SparseMatrix, rank
from frobq.quiver import PathExpr, Quiver

from algebra_ops import coefficient_vector


def mono(q, names):
    return PathExpr.from_path(q.path(names), QQ.one)


def local_case(n):
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


def out_star():
    return Quiver(["p", "q1", "q2"], [("a", "p", "q1"), ("b", "p", "q2")])


TOUPIE_CORPUS = [
    # LINEAR_An
    ("A2", gen_toupie((1,), (), ())),
    ("A3", gen_toupie((2,), (), ())),
    ("A4", gen_toupie((3,), (), ())),
    ("A5", gen_toupie((4,), (), ())),
    ("A6", gen_toupie((5,), (), ())),
    # GENERALIZED_DIAMOND
    ("diamond 2,2", gen_toupie((2, 2), (), [(1, -1)])),
    ("diamond 3,2", gen_toupie((3, 2), (), [(1, -1)])),
    ("diamond 4,4", gen_toupie((4, 4), (), [(1, -1)])),
    ("diamond 3 branches", gen_toupie((3, 2, 2), (), [(-1, 1, 0), (-1, 0, 1)])),
    ("diamond scaled", gen_toupie((2, 2), (), [(1, -2)])),
    # M_ZERO_OTHER
    ("canonical 2,2,2", gen_canonical(CanonicalSpec((2, 2, 2), (1,)))),
    ("canonical 2,3,2", gen_canonical(CanonicalSpec((2, 3, 2), (2,)))),
    ("two free branches", gen_toupie((2, 2), (), ())),
    ("three free branches", gen_toupie((2, 2, 3), (), ())),
    ("one relation three branches", gen_toupie((2, 2, 2), (), [(1, -1, 0)])),
    ("kronecker", gen_toupie((1, 1), (), ())),
    # M_POSITIVE
    ("single branch monomial", gen_toupie((3,), [(1, 1, 2)], ())),
    ("two branch monomial", gen_toupie((3, 2), [(1, 1, 2)], ())),
    ("monomial and diamond", gen_toupie((3, 2, 2), [(1, 1, 2)], [(0, 1, -1)])),
    ("two monomials", gen_toupie((4,), [(1, 1, 2), (1, 3, 2)], ())),
]


def collect_registry():
    """Every algebra exercised by criteria 1 to 8, labeled."""
    registry = []
    registry.append(("canonical (2,2,2)", gen_canonical(CanonicalSpec((2, 2, 2), (1,)))))
    registry.append(("canonical (2,3,5)", gen_canonical(CanonicalSpec((2, 3, 5), (1,)))))
    registry.append(("canonical (3,3,3,3)",
                     gen_canonical(CanonicalSpec((3, 3, 3, 3), (1, 2)))))
    for lengths in [(2, 2), (3, 2), (4, 4)]:
        registry.append((f"diamond {lengths}", gen_toupie(lengths, (), [(1, -1)])))
    registry.append(("generalized diamond 3",
                     gen_toupie((3, 2, 2), (), [(-1, 1, 0), (-1, 0, 1)])))
    registry.append(("generalized diamond 4",
                     gen_toupie((2, 2, 2, 2), (), [(-1, 1, 0, 0), (-1, 0, 1, 0), (-1, 0, 0, 1)])))
    for n in range(2, 7):
        registry.append((f"A_{n}", gen_linear(n)))
    registry.append(("dual numbers", gen_cycle(1, 2)))
    for case in (1, 2, 3, 4):
        registry.append((f"local case {case}", local_case(case)))
    registry.append(("A_3 rsz", gen_linear(3, [(1, 2)])))
    registry.append(("out-star rsz", gen_radical_square_zero(out_star())))
    for seed in range(50):
        registry.append((f"random rsz {seed}", gen_random(seed, 6, 8, "rsz")))
    for n in range(3, 8):
        for length in (2, 3, 4):
            for start in range(1, n - length + 1):
                registry.append((f"A_{n} relation ({start},{length})",
                                 gen_linear(n, [(start, length)])))
    for label, built in TOUPIE_CORPUS:
        registry.append((f"toupie {label}", built))
    return registry


def test_criterion_01_canonical_vanishing():
    specs = [((2, 2, 2), (1,)), ((2, 3, 5), (1,)), ((3, 3, 3, 3), (1, 2))]
    for weights, lambdas in specs:
        q, ideal = gen_canonical(CanonicalSpec(weights, lambdas))
        dim = frobenius_dimension(compute_basis(q, ideal))
        assert dim == 0, f"canonical {weights}: expected 0, got {dim}"
    print("criterion 1 PASS: canonical algebras (2,2,2), (2,3,5), (3,3,3,3) "
          "all have dimension 0")


def linear_structure_candidate(q, algebra, lengths):
    values = {}

    def tensor_from(vertex, left_coords, right_coords):
        tensor = TensorElement(QQ)
        for bl, cl in left_coords.items():
            for br, cr in right_coords.items():
                tensor.add_term(bl, br, cl * cr)
        values[vertex] = tensor

    full = algebra.reduce_path(q.path([f"a1_{j}" for j in range(1, lengths[0] + 1)]))
    tensor_from("0", full, {q.trivial_path("0"): QQ.one})
    tensor_from("w", {q.trivial_path("w"): QQ.one}, full)
    for branch, length in enumerate(lengths, start=1):
        for j in range(1, length):
            head = algebra.reduce_path(
                q.path([f"a{branch}_{k}" for k in range(1, j + 1)]))
            tail = algebra.reduce_path(
                q.path([f"a{branch}_{k}" for k in range(j + 1, length + 1)]))
            tensor_from(f"v{branch}_{j}", tail, head)
    return CoproductCandidate(algebra, values)


def proportional(c1, c2):
    flat1 = {(v, pair): coeff for v, t in c1.values.items()
             for pair, coeff in t.coefficients.items()}
    flat2 = {(v, pair): coeff for v, t in c2.values.items()
             for pair, coeff in t.coefficients.items()}
    if set(flat1) != set(flat2) or not flat1:
        return not flat1 and not flat2
    key = next(iter(flat1))
    ratio = flat1[key] / flat2[key]
    return all(flat1[k] == ratio * flat2[k] for k in flat1)


def test_criterion_02_diamonds():
    for lengths in [(2, 2), (3, 2), (4, 4)]:
        q, ideal = gen_toupie(lengths, (), [(1, -1)])
        algebra = compute_basis(q, ideal)
        space = solve_frobenius_space(algebra)
        assert len(space) == 1, f"diamond {lengths}: dimension {len(space)}"
        expected = linear_structure_candidate(q, algebra, lengths)
        assert proportional(space[0], expected), \
            f"diamond {lengths}: generator is not the branch linear structure"
    for lengths, relations in [
        ((3, 2, 2), [(-1, 1, 0), (-1, 0, 1)]),
        ((2, 2, 2, 2), [(-1, 1, 0, 0), (-1, 0, 1, 0), (-1, 0, 0, 1)]),
    ]:
        q, ideal = gen_toupie(lengths, (), relations)
        dim = frobenius_dimension(compute_basis(q, ideal))
        assert dim == 1, f"generalized diamond {lengths}: dimension {dim}"
    print("criterion 2 PASS: diamonds (2,2), (3,2), (4,4) have the linear "
          "structure as sole generator; 3- and 4-branch diamonds have dimension 1")


def test_criterion_03_linear_quivers():
    for n in range(2, 7):
        q, ideal = gen_linear(n)
        dim = frobenius_dimension(compute_basis(q, ideal))
        assert dim == 1, f"A_{n}: expected 1, got {dim}"
    print("criterion 3 PASS: A_2..A_6 without relations have dimension 1")


def test_criterion_04_dual_numbers():
    q, ideal = gen_cycle(1, 2)
    dim = frobenius_dimension(compute_basis(q, ideal))
    assert dim == 2
    print("criterion 4 PASS: the loop algebra with square-zero loop has dimension 2")


def test_criterion_05_local_cases():
    expected = {1: 3, 2: 3, 3: 2, 4: 4}
    for case, value in expected.items():
        q, ideal = local_case(case)
        dim = frobenius_dimension(compute_basis(q, ideal))
        assert dim == value, f"case {case}: expected {value}, got {dim}"
    print("criterion 5 PASS: quadratic local cases 1-4 have dimensions 3, 3, 2, 4")


def test_criterion_06_radical_square_zero():
    q, ideal = gen_linear(3, [(1, 2)])
    solver = frobenius_dimension(compute_basis(q, ideal))
    formula = radical_square_zero_dimension(q)
    assert solver == formula == 3

    star = out_star()
    _, star_ideal = gen_radical_square_zero(star)
    solver_star = frobenius_dimension(compute_basis(star, star_ideal))
    formula_star = radical_square_zero_dimension(star)
    assert solver_star == formula_star == 0

    checked = 0
    for seed in range(50):
        rq, rideal = gen_random(seed, 6, 8, "rsz")
        assert all(a.source != a.target for a in rq.arrows)
        algebra = compute_basis(rq, rideal)
        solver_dim = frobenius_dimension(algebra)
        formula_dim = radical_square_zero_dimension(rq)
        assert solver_dim == formula_dim, \
            f"seed {seed}: solver {solver_dim} != formula {formula_dim}"
        if rideal.generators:
            assert solver_dim >= 1, f"seed {seed}: length-2 path but dimension 0"
        checked += 1
    assert checked == 50
    print("criterion 6 PASS: formula and solver agree on A_3, the out-star and "
          "50 random loop-free quivers; every instance with a length-2 path "
          "is nontrivial")


def test_criterion_07_string_witnesses():
    count = 0
    for n in range(3, 8):
        for length in (2, 3, 4):
            for start in range(1, n - length + 1):
                q, ideal = gen_linear(n, [(start, length)])
                algebra = compute_basis(q, ideal)
                if length == 2:
                    matches = [m for m in detect_local_patterns(algebra)
                               if m.pattern == 5]
                    assert matches, f"A_{n} ({start},{length}): no pattern 5"
                    witness = witness_coproduct(matches[0], algebra)
                else:
                    relation = q.path([f"a{i}" for i in range(start, start + length)])
                    witness = string_relation_witness(algebra, relation)
                ok, _ = verify_coproduct(algebra, witness)
                assert ok and witness.values
                assert frobenius_dimension(algebra) >= 1
                count += 1
    print(f"criterion 7 PASS: {count} single-relation linear instances "
          "(lengths 2-4, n up to 7) all carry a verified witness and a "
          "nontrivial space")


def test_criterion_08_toupie_classification():
    kinds = set()
    assert len(TOUPIE_CORPUS) == 20
    for label, (q, ideal) in TOUPIE_CORPUS:
        info = toupie_classify(q, ideal)
        kinds.add(info.kind)
        dim = frobenius_dimension(compute_basis(q, ideal))
        assert info.prediction_holds(dim), \
            f"{label}: kind {info.kind} predicted {info.prediction}, solver {dim}"
    assert kinds == {"LINEAR_An", "GENERALIZED_DIAMOND", "M_ZERO_OTHER", "M_POSITIVE"}
    print("criterion 8 PASS: 20 toupie instances across all four kinds match "
          "their predicted dimension statements")


def in_span(vectors, candidate, ncols):
    base = rank(SparseMatrix.from_rows(list(vectors), ncols))
    return rank(SparseMatrix.from_rows(list(vectors) + [candidate], ncols)) == base


def test_criterion_09_verifier_completeness():
    rng = random.Random(31415)
    checked = 0
    for label, (q, ideal) in collect_registry():
        algebra = compute_basis(q, ideal)
        if algebra.dimension > 20:
            continue
        matrix, legend = build_constraint_system(algebra)
        legend_index = {key: i for i, key in enumerate(legend)}
        space = solve_frobenius_space(algebra)
        kernel_vectors = [coefficient_vector(c, legend_index) for c in space]
        for candidate in space:
            ok, _ = verify_coproduct(algebra, candidate)
            assert ok, f"{label}: kernel vector failed the verifier"
        if len(space) == len(legend):
            continue
        produced = 0
        attempts = 0
        while produced < 10 and attempts < 400:
            attempts += 1
            vec = {col: QQ.scalar(rng.randint(-3, 3))
                   for col in range(len(legend)) if rng.random() < 0.4}
            vec = {c: v for c, v in vec.items() if v != QQ.zero}
            if not vec or in_span(kernel_vectors, vec, len(legend)):
                continue
            values = {}
            for col, value in vec.items():
                p, u, v = legend[col]
                tensor = values.setdefault(p, TensorElement(QQ))
                tensor.add_term(u, v, value)
            ok, _ = verify_coproduct(algebra, CoproductCandidate(algebra, values))
            assert not ok, f"{label}: non-kernel candidate passed the verifier"
            produced += 1
        assert produced == 10, f"{label}: only built {produced} perturbations"
        checked += 1
    assert checked >= 60
    print(f"criterion 9 PASS: verifier agrees with the kernel on {checked} "
          "algebras (all kernel vectors verify; 10 outside candidates per "
          "algebra all fail)")


GEN_COMMANDS = [
    ("linear", ["gen", "linear", "5", "--relation", "2,2"]),
    ("cycle", ["gen", "cycle", "3", "2"]),
    ("canonical", ["gen", "canonical", "2,2,2", "--lambdas", "1"]),
    ("toupie", ["gen", "toupie", "3,2", "--monomial", "1,1,2"]),
    ("random rsz", ["gen", "random", "42", "5", "7", "rsz"]),
    ("random string", ["gen", "random", "7", "4", "6", "string-quadratic"]),
    ("random monomial", ["gen", "random", "9", "5", "6", "acyclic-monomial"]),
]


def run_cli(argv):
    result = subprocess.run([sys.executable, "-m", "frobq", *argv],
                            capture_output=True)
    return result.returncode, result.stdout, result.stderr


def test_criterion_10_determinism_round_trip(tmp_path):
    # the rsz family reads a quiver document back in, so seed one first
    base = tmp_path / "base.qv"
    code, out, _ = run_cli(["gen", "linear", "4"])
    assert code == 0
    base.write_bytes(out)
    commands = GEN_COMMANDS + [("rsz", ["gen", "rsz", str(base)])]

    for label, argv in commands:
        code1, out1, err1 = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0, f"{label}: gen failed: {err1.decode()}"
        assert out1 == out2, f"{label}: gen output differs between runs"

        doc = tmp_path / "doc.qv"
        doc.write_bytes(out1)
        code1, space1, err1 = run_cli(["space", str(doc), "--json"])
        code2, space2, _ = run_cli(["space", str(doc), "--json"])
        assert code1 == code2 == 0, f"{label}: space failed: {err1.decode()}"
        assert space1 == space2, f"{label}: space output differs between runs"

        data = json.loads(space1)
        for i, candidate in enumerate(data["candidates"]):
            cand = tmp_path / f"cand{i}.json"
            cand.write_text(json.dumps(candidate))
            code, out, _ = run_cli(["verify", str(doc), "--coproduct", str(cand)])
            assert code == 0 and out == b"VERIFIED\n", \
                f"{label}: candidate {i} failed round-trip verification"
    print("criterion 10 PASS: gen, parse, space and verify form a byte-stable "
          "pipeline for every family generator")
