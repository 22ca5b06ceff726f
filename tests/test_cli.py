import hashlib
import json

import pytest

from frobq.cli import main

DIAMOND = """field Q
vertex 0 x y w
arrow a1 : 0 -> x
arrow a2 : x -> w
arrow b1 : 0 -> y
arrow b2 : y -> w
relation a1*a2 - b1*b2 ;
"""

MIXED_CYCLE = """vertex 1 2 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 1
relation a*b*c + a*b*c*a*b*c ;
"""

TWO_LOOPS = """vertex p
arrow x : p -> p
arrow y : p -> p
relation x*x ;
"""


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.qv"
    path.write_text(DIAMOND)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_ok(self, capsys, diamond_file):
        code, out, _ = run(capsys, "dim", diamond_file)
        assert code == 0 and out == "1\n"

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.qv"
        bad.write_text("vertex 1 2\narrow a : 1 -> 2\nrelation a ;\n")
        code, _, err = run(capsys, "dim", str(bad))
        assert code == 1 and "parse error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dim", "/nonexistent/path.qv")
        assert code == 1

    def test_unsupported_regime(self, capsys, tmp_path):
        doc = tmp_path / "mixed.qv"
        doc.write_text(MIXED_CYCLE)
        code, _, err = run(capsys, "dim", str(doc))
        assert code == 2 and "unsupported ideal regime" in err

    def test_infinite_dimensional(self, capsys, tmp_path):
        doc = tmp_path / "loops.qv"
        doc.write_text(TWO_LOOPS)
        code, _, err = run(capsys, "dim", str(doc))
        assert code == 3 and "infinite dimensional" in err

    def test_verification_failure(self, capsys, tmp_path, diamond_file):
        code, out, _ = run(capsys, "space", diamond_file, "--json")
        candidates = json.loads(out)["candidates"]
        cand = tmp_path / "cand.json"
        broken = candidates[0]
        broken[0]["terms"][0]["coeff"] = "7"
        cand.write_text(json.dumps({"coproduct": broken}))
        code, out, _ = run(capsys, "verify", diamond_file, "--coproduct", str(cand))
        assert code == 4 and out.startswith("FAILED: pair")


class TestCommands:
    def test_basis_text(self, capsys, diamond_file):
        code, out, _ = run(capsys, "basis", diamond_file)
        assert code == 0
        assert "dimension 9" in out and "block 0 -> w" in out

    def test_basis_json(self, capsys, diamond_file):
        code, out, _ = run(capsys, "basis", diamond_file, "--json")
        data = json.loads(out)
        assert data["schema"] == "frobq/1"
        assert data["dimension"] == 9

    def test_dim_json(self, capsys, diamond_file):
        code, out, _ = run(capsys, "dim", diamond_file, "--json")
        assert json.loads(out) == {"schema": "frobq/1", "frobenius_dimension": 1}

    def test_space_candidates_reverify(self, capsys, tmp_path, diamond_file):
        code, out, _ = run(capsys, "space", diamond_file, "--json")
        data = json.loads(out)
        assert data["dimension"] == 1
        for i, candidate in enumerate(data["candidates"]):
            cand = tmp_path / f"cand{i}.json"
            cand.write_text(json.dumps(candidate))
            code, out, _ = run(capsys, "verify", diamond_file,
                               "--coproduct", str(cand))
            assert code == 0 and out == "VERIFIED\n"

    def test_verify_zero_candidate(self, capsys, tmp_path, diamond_file):
        cand = tmp_path / "zero.json"
        cand.write_text("[]")
        code, out, _ = run(capsys, "verify", diamond_file, "--coproduct", str(cand))
        assert code == 0 and out == "VERIFIED\n"

    def test_verify_rejects_non_normal_form_path(self, capsys, tmp_path, diamond_file):
        cand = tmp_path / "cand.json"
        # a1*a2 is reducible in the diamond, so it is not a basis path
        cand.write_text(json.dumps([
            {"vertex": "0",
             "terms": [{"left": ["a1", "a2"], "right": {"e": "0"}, "coeff": "1"}]}
        ]))
        code, out, _ = run(capsys, "verify", diamond_file, "--coproduct", str(cand))
        assert code == 4 and out.startswith("SUPPORT VIOLATION")

    def test_empty_space_renders(self, capsys, tmp_path):
        doc = tmp_path / "canon.qv"
        lines = ["vertex 0 x y z w"]
        for b, mid in (("a", "x"), ("b", "y"), ("c", "z")):
            lines.append(f"arrow {b}1 : 0 -> {mid}")
            lines.append(f"arrow {b}2 : {mid} -> w")
        lines.append("relation a1*a2 - b1*b2 - c1*c2 ;")
        doc.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "space", str(doc), "--json")
        data = json.loads(out)
        assert code == 0 and data["dimension"] == 0 and data["candidates"] == []

    def test_verify_support_violation(self, capsys, tmp_path, diamond_file):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([
            {"vertex": "0",
             "terms": [{"left": ["a2"], "right": {"e": "0"}, "coeff": "1"}]}
        ]))
        code, out, _ = run(capsys, "verify", diamond_file, "--coproduct", str(cand))
        assert code == 4 and out.startswith("SUPPORT VIOLATION")

    @pytest.mark.parametrize("payload, message", [
        ([{"vertex": "x", "terms": [{"right": ["a1"], "coeff": "1"}]}], "left, right and coeff"),
        (["oops"], "not an object"),
        ([{"vertex": "x", "terms": {"left": ["a2"]}}], "must be a list"),
    ])
    def test_verify_malformed_coproduct(self, capsys, tmp_path, diamond_file,
                                        payload, message):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", diamond_file, "--coproduct", str(cand))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_classify(self, capsys, diamond_file):
        code, out, _ = run(capsys, "classify", diamond_file)
        assert code == 0
        assert "toupie: yes, kind GENERALIZED_DIAMOND" in out
        assert "predicted dimension =1: holds" in out

    def test_patterns(self, capsys, tmp_path):
        doc = tmp_path / "a3.qv"
        doc.write_text("vertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
                       "relation a*b ;\n")
        code, out, _ = run(capsys, "patterns", str(doc))
        assert code == 0
        assert "pattern 5 at vertex 2" in out and "verified" in out

    def test_field_flag(self, capsys, diamond_file):
        code, out, _ = run(capsys, "dim", diamond_file, "--field", "F5")
        assert code == 0 and out == "1\n"


class TestFieldModulus:
    def test_large_prime_accepted(self, capsys, diamond_file):
        code, out, _ = run(capsys, "dim", diamond_file, "--field", "F2305843009213693951")
        assert code == 0 and out == "1\n"

    def test_modulus_beyond_certified_range(self, capsys, diamond_file):
        code, out, err = run(capsys, "dim", diamond_file, "--field", "F" + "9" * 30)
        assert code == 1 and out == "" and "too large" in err and err.count("\n") == 1


class TestGen:
    @pytest.mark.parametrize("argv", [
        ["gen", "linear", "4", "--relation", "1,3"],
        ["gen", "cycle", "3", "2"],
        ["gen", "canonical", "2,2,2", "--lambdas", "1"],
        ["gen", "toupie", "2,2", "--linear", "1,-1"],
        ["gen", "random", "42", "5", "7", "rsz"],
        ["gen", "random", "42", "5", "7", "string-quadratic"],
        ["gen", "random", "42", "5", "7", "acyclic-monomial"],
    ])
    def test_emitted_documents_parse(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = tmp_path / "gen.qv"
        doc.write_text(out)
        code, out2, _ = run(capsys, "basis", str(doc))
        assert code == 0

    def test_gen_rsz_from_file(self, capsys, tmp_path):
        base = tmp_path / "base.qv"
        code, out, _ = run(capsys, "gen", "linear", "4")
        base.write_text(out)
        code, out, _ = run(capsys, "gen", "rsz", str(base))
        assert code == 0 and "relation a1*a2 ;" in out and "relation a2*a3 ;" in out

    def test_output_flag(self, capsys, tmp_path):
        target = tmp_path / "out.qv"
        code, _, _ = run(capsys, "gen", "linear", "3", "-o", str(target))
        assert code == 0 and target.exists()


def test_json_outputs_are_deterministic(capsys, diamond_file):
    for argv in (["basis", diamond_file, "--json"],
                 ["space", diamond_file, "--json"],
                 ["dim", diamond_file, "--json"]):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0


# sha256 of `space --json`, recorded with the dense-scan elimination that
# tests/test_linalg.py keeps as `reference_rref`.  Elimination may change
# how it finds the RREF, never the bytes it leads to.
GOLDEN_SPACE_JSON = [
    (["linear", "12"], [],
     "7fd0e1a1dc2d6b059aeda935c142f8e287dba248323da2d3d59863dd32831910"),
    (["cycle", "5", "4"], ["--field", "F7"],
     "3fe219496fb40d94d6f8a82d638223574abb34bc463a30fe30ab4d0d1907a0f9"),
    (["toupie", "3,3", "--linear", "2,-3"], [],
     "7c7509b23bf726224e900b03f1256c413ce384b436dc7df23d088a54319e5a60"),
]


@pytest.mark.parametrize("gen, flags, digest", GOLDEN_SPACE_JSON)
def test_space_json_golden(capsys, tmp_path, gen, flags, digest):
    code, doc, _ = run(capsys, "gen", *gen)
    assert code == 0
    path = tmp_path / "doc.qv"
    path.write_text(doc)
    code, out, _ = run(capsys, "space", str(path), "--json", *flags)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
