import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import frobq
from frobq import cli
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

LONG = "v" * 5000


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

    # A word that is not a basis path is built by Quiver.path, so it fails
    # as it would if no basis path were looked up first.
    @pytest.mark.parametrize("word, code, out, err", [
        (["a1", "a2"], 4,
         "SUPPORT VIOLATION: coproduct term e_w(x)a1*a2 does not use basis paths\n", ""),
        (["zz"], 1, "", "error: unknown arrow: zz\n"),
        (["a1", "b2"], 1, "", "error: arrows do not compose: a1 ends at x, b2 starts at y\n"),
    ], ids=["relation word", "unknown arrow", "not composable"])
    def test_verify_word_outside_the_basis(self, capsys, tmp_path, diamond_file,
                                           word, code, out, err):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([
            {"vertex": "w", "terms": [{"left": {"e": "w"}, "right": word, "coeff": "1"}]}
        ]))
        assert run(capsys, "verify", diamond_file, "--coproduct", str(cand)) == \
            (code, out, err)

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
        ([{"vertex": "x", "terms": [{"left": {"e": ["1"]}, "right": ["a1"], "coeff": "1"}]}],
         "bad path encoding"),
        ([{"vertex": "x", "terms": [{"left": {"e": {"x": 1}}, "right": ["a1"], "coeff": "1"}]}],
         "bad path encoding"),
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

    # a1*a2*a3 holds a1*a2, so it leaves the gentle algebra as it is.
    @pytest.mark.parametrize("redundant", ["", "relation a1*a2*a3 ;\n"])
    def test_classify_judges_the_algebra_not_its_generators(self, capsys, tmp_path, redundant):
        doc = tmp_path / "a4.qv"
        doc.write_text("vertex 1 2 3 4\narrow a1 : 1 -> 2\narrow a2 : 2 -> 3\n"
                       "arrow a3 : 3 -> 4\nrelation a1*a2 ;\nrelation a2*a3 ;\n" + redundant)
        code, out, _ = run(capsys, "classify", str(doc))
        assert code == 0 and "string: yes (gentle)\n" in out

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

    def test_failed_line_prints_prime_field_coefficient(self, capsys, tmp_path):
        code, doc, _ = run(capsys, "gen", "cycle", "5", "4")
        path = tmp_path / "cycle.qv"
        path.write_text(doc)
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "1", "terms": [
            {"left": {"e": "1"}, "right": {"e": "1"}, "coeff": "3"}]}]))
        code, out, _ = run(capsys, "verify", str(path), "--coproduct", str(cand),
                           "--field", "F7")
        assert code == 4
        assert out == ("FAILED: pair (e_1, a1): value on product = 0, (left (x) 1) form = 0, "
                       "(1 (x) right) form = 3*e_1(x)a1\n")


class TestBadInput:
    """Malformed input and usage end in exit 1 with one line, never a traceback."""

    def assert_one_line_error(self, code, out, err):
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_undecodable_document(self, capsys, tmp_path):
        doc = tmp_path / "bad.qv"
        doc.write_bytes(b"\xff\xfe")
        self.assert_one_line_error(*run(capsys, "dim", str(doc)))

    def test_undecodable_coproduct(self, capsys, tmp_path, diamond_file):
        cand = tmp_path / "cand.json"
        cand.write_bytes(b"\xff\xfe")
        self.assert_one_line_error(
            *run(capsys, "verify", diamond_file, "--coproduct", str(cand)))

    def test_deeply_nested_coproduct(self, capsys, tmp_path, diamond_file):
        cand = tmp_path / "cand.json"
        cand.write_text("[" * 100000)
        self.assert_one_line_error(
            *run(capsys, "verify", diamond_file, "--coproduct", str(cand)))

    @pytest.mark.parametrize("argv", [
        ["dim", "{doc}", "--field", "Fx"],
        ["dim", "{doc}", "--field", "F"],
        ["gen", "linear", "3,4"],
        ["gen", "linear", ","],
        ["gen", "linear", "4", "--relation", "1"],
        ["gen", "toupie", "2,2", "--monomial", "1,1"],
    ])
    def test_bad_integer_lists(self, capsys, diamond_file, argv):
        argv = [diamond_file if a == "{doc}" else a for a in argv]
        self.assert_one_line_error(*run(capsys, *argv))

    # Numbers are ASCII decimal digits with at most a leading "-": int() also
    # reads "_", "+", blanks and other Unicode digits, and --field takes no list.
    @pytest.mark.parametrize("argv, error", [
        (["--field", "F5,"], "bad field 'F5,'; use Q or F<prime>"),
        (["--field", "F,5"], "bad field 'F,5'; use Q or F<prime>"),
        (["--field", "F 5"], "expected comma separated integers, got ' 5'"),
        (["--field", "F+5"], "expected comma separated integers, got '+5'"),
        (["--field", "F\u0667"], "expected comma separated integers, got '\u0667'"),
        (["gen", "linear", "1_0"], "expected comma separated integers, got '1_0'"),
        (["gen", "linear", " 3"], "expected comma separated integers, got ' 3'"),
        (["gen", "cycle", "\u0663", "3"], "expected comma separated integers, got '\u0663'"),
        (["gen", "toupie", "2,+3"], "expected comma separated integers, got '2,+3'"),
        (["gen", "linear", "4", "--relation", "1, 2"],
         "expected comma separated integers, got '1, 2'"),
    ])
    def test_numbers_are_ascii_decimal(self, capsys, diamond_file, argv, error):
        if argv[0] == "--field":
            argv = ["dim", diamond_file, *argv]
        assert run(capsys, *argv) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("field, kind", [(None, "rational"), ("F7", "scalar")])
    # int() refused "1.5" and "x/2" before too, but its reason is no longer
    # appended: the literal is not read unless it has the shape n or n/d.
    @pytest.mark.parametrize("coeff", ["1_0", "\u0663", "3/-4", "+1", " 1", "1/ 2", "1/+2",
                                       "1.5", "x/2"])
    def test_coproduct_numbers_are_ascii_decimal(self, capsys, tmp_path, diamond_file,
                                                 field, kind, coeff):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "0", "terms": [
            {"left": {"e": "0"}, "right": {"e": "0"}, "coeff": coeff}]}]))
        flags = ["--field", field] if field else []
        assert run(capsys, "verify", diamond_file, "--coproduct", str(cand), *flags) == \
            (1, "", f"error: bad {kind} literal {coeff!r}\n")

    @pytest.mark.parametrize("coeff", ["-3/4", "-3", "12/8"])
    def test_coproduct_signed_numerator_is_read(self, capsys, tmp_path, diamond_file, coeff):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "0", "terms": [
            {"left": {"e": "0"}, "right": {"e": "0"}, "coeff": coeff}]}]))
        code, out, err = run(capsys, "verify", diamond_file, "--coproduct", str(cand))
        assert code == 4 and out.startswith("FAILED: ") and err == ""

    def test_random_vertex_bound_below_two(self, capsys):
        code, out, err = run(capsys, "gen", "random", "1", "1", "1", "rsz")
        self.assert_one_line_error(code, out, err)
        assert err == "error: vertex bound must be >= 2 and arrow bound >= 1\n"

    @pytest.mark.parametrize("field_line, flags", [
        ("field F 5", []),
        ("field Q", ["--field", "F5"]),
    ])
    def test_denominator_divisible_by_p(self, capsys, tmp_path, field_line, flags):
        doc = tmp_path / "doc.qv"
        doc.write_text(f"{field_line}\nvertex 1 2 3\narrow a : 1 -> 2\n"
                       "arrow b : 2 -> 3\nrelation 1/5 a*b ;\n")
        code, out, err = run(capsys, "dim", str(doc), *flags)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("parse error: 5:12: ") and "Traceback" not in err

    def test_coproduct_denominator_divisible_by_p(self, capsys, tmp_path, diamond_file):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "0", "terms": [
            {"left": {"e": "0"}, "right": {"e": "0"}, "coeff": "1/7"}]}]))
        self.assert_one_line_error(*run(
            capsys, "verify", diamond_file, "--coproduct", str(cand), "--field", "F7"))

    # Python's int() refuses a decimal string of more than 4300 digits.
    @pytest.mark.parametrize("text, where", [
        ("field Q\nrelation {n} a*b ;\n", "5:10: "),
        ("field Q\nrelation 1/{n} a*b ;\n", "5:12: "),
        ("field F {n}\n", "1:9: "),
        ("field Q\nrelation ² a*b ;\n", "5:10: "),
    ], ids=["coefficient", "denominator", "modulus", "non-decimal digit"])
    def test_unreadable_integer_literal(self, capsys, tmp_path, text, where):
        header, body = text.replace("{n}", "9" * 5000).split("\n", 1)
        doc = tmp_path / "doc.qv"
        doc.write_text(f"{header}\nvertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n{body}",
                       encoding="utf-8")
        code, out, err = run(capsys, "dim", str(doc))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("parse error: " + where) and "Traceback" not in err

    def test_coproduct_number_too_long(self, capsys, tmp_path, diamond_file):
        cand = tmp_path / "cand.json"
        cand.write_text('[{"vertex": "0", "terms": [{"left": {"e": "0"}, '
                        '"right": {"e": "0"}, "coeff": ' + "9" * 5000 + "}]}]")
        self.assert_one_line_error(
            *run(capsys, "verify", diamond_file, "--coproduct", str(cand)))

    # Messages show a literal of over 20 characters as its first 20 and its length.
    @pytest.mark.parametrize("field, coeff", [
        ("F" + "9" * 5000, None),
        ("F" + ",".join(["1"] * 2000), None),
        ("F" + "9" * 4000, None),
        (None, "9" * 5000),
        (None, "x" * 3000),
    ], ids=["long modulus", "long modulus list", "modulus too large", "long coefficient",
            "junk coefficient"])
    def test_long_literal_is_shortened(self, capsys, tmp_path, diamond_file, field, coeff):
        if field:
            argv = ["dim", diamond_file, "--field", field]
        else:
            cand = tmp_path / "cand.json"
            cand.write_text(json.dumps([{"vertex": "0", "terms": [
                {"left": {"e": "0"}, "right": {"e": "0"}, "coeff": coeff}]}]))
            argv = ["verify", diamond_file, "--coproduct", str(cand)]
        code, out, err = run(capsys, *argv)
        self.assert_one_line_error(code, out, err)
        assert len(err.encode()) < 200

    # Names and JSON values of over 20 characters are shortened the same way.
    @pytest.mark.parametrize("document, coproduct", [
        (None, [{"vertex": LONG, "terms": []}]),
        (None, [{"vertex": "0", "terms": [{"left": {"e": "0"}, LONG: 1}]}]),
        (None, [{"vertex": "0", "terms": [{"left": {"e": LONG}, "right": {"e": "0"},
                                           "coeff": "1"}]}]),
        (None, [{"vertex": "0", "terms": [{"left": [LONG], "right": {"e": "0"},
                                           "coeff": "1"}]}]),
        (None, [LONG]),
        (None, [{"vertex": "0", "terms": [{"left": {LONG: "0"}, "right": {"e": "0"},
                                           "coeff": "1"}]}]),
        (LONG + "\n", None),
        ("vertex 1 2\narrow a : 1 -> 2\nrelation a*" + LONG + " ;\n", None),
        ("vertex 1 2\narrow a : 1 -> 2\nrelation a " + LONG + " ;\n", None),
        ("field " + LONG + "\nvertex 1\n", None),
        ("vertex 1\narrow a : 1 -> " + LONG + "\n", None),
        ("vertex " + LONG + " " + LONG + "\n", None),
        ("vertex 1 2 3\narrow " + LONG + " : 1 -> 2\narrow b : 1 -> 3\n",
         [{"vertex": "1", "terms": [{"left": [LONG, "b"], "right": {"e": "1"}, "coeff": "1"}]}]),
    ], ids=["unknown vertex", "term with an extra field", "unknown e vertex", "unknown arrow",
            "entry not an object", "bad path encoding", "unknown statement",
            "unknown relation arrow", "no sign between terms", "unknown field",
            "unknown target vertex", "duplicate vertex", "arrows do not compose"])
    def test_long_name_is_shortened(self, capsys, tmp_path, diamond_file, document, coproduct):
        doc = diamond_file
        if document is not None:
            doc = tmp_path / "doc.qv"
            doc.write_text(document)
        argv = ["dim", str(doc)]
        if coproduct is not None:
            cand = tmp_path / "cand.json"
            cand.write_text(json.dumps(coproduct))
            argv = ["verify", str(doc), "--coproduct", str(cand)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "Traceback" not in err and len(err.encode()) < 200

    def test_long_name_in_support_violation_is_shortened(self, capsys, tmp_path):
        doc = tmp_path / "doc.qv"
        doc.write_text("vertex 1 2\narrow " + LONG + " : 1 -> 2\n")
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "2", "terms": [
            {"left": [LONG], "right": {"e": "2"}, "coeff": "1"}]}]))
        code, out, err = run(capsys, "verify", str(doc), "--coproduct", str(cand))
        assert code == 4 and err == ""
        assert out.startswith("SUPPORT VIOLATION: ") and out.count("\n") == 1
        assert len(out.encode()) < 200

    def test_long_name_in_failed_line_is_shortened(self, capsys, tmp_path):
        doc = tmp_path / "doc.qv"
        doc.write_text("vertex 1 2\narrow " + LONG + " : 1 -> 2\n")
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "2", "terms": [
            {"left": {"e": "2"}, "right": [LONG], "coeff": "1"}]}]))
        code, out, err = run(capsys, "verify", str(doc), "--coproduct", str(cand))
        assert code == 4 and err == ""
        assert out.startswith("FAILED: pair (e_1, ") and out.count("\n") == 1
        assert len(out.encode()) < 1000

    @pytest.mark.parametrize("name, shown", [(" ", "' '"), ("a1 ", "'a1 '")])
    def test_blank_edged_name_is_quoted(self, capsys, tmp_path, diamond_file, name, shown):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "0", "terms": [
            {"left": [name], "right": {"e": "0"}, "coeff": "1"}]}]))
        code, out, err = run(capsys, "verify", diamond_file, "--coproduct", str(cand))
        self.assert_one_line_error(code, out, err)
        assert err == f"error: unknown arrow: {shown}\n"

    @pytest.mark.parametrize("argv", [
        ["dim"],
        ["bogus"],
        ["dim", "x.q", "--nope"],
        ["dim", "x.q", LONG],
        [LONG],
    ])
    def test_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        self.assert_one_line_error(code, out, err)
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("arg, shown", [(" ", "' '"), ("", "''"), (" x", "' x'")])
    def test_blank_unrecognized_argument_is_quoted(self, capsys, diamond_file, arg, shown):
        code, out, err = run(capsys, "dim", diamond_file, arg)
        self.assert_one_line_error(code, out, err)
        assert err == f"error: frobq: unrecognized arguments: {shown}\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0 and "usage: frobq" in capsys.readouterr().out


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


# sha256 of the other outputs on the same documents, recorded at the commit
# before the CLI shared one parser across calls; `patterns` prints nothing
# but "no local patterns" on those three, so A_6 with the relation a2*a3
# adds a document with a witness.  The verify candidate is e_v (x) e_v at
# the first vertex, which is never a coproduct there.
GOLDEN_DOCUMENTS = {
    "linear": (["linear", "12"], []),
    "cycle": (["cycle", "5", "4"], ["--field", "F7"]),
    "toupie": (["toupie", "3,3", "--linear", "2,-3"], []),
    "pattern5": (["linear", "6", "--relation", "2,2"], []),
}
GOLDEN_OUTPUTS = [
    ("linear", ["basis", "--json"], 0,
     "949d56189a14b7fb6f4225c0173a5d6ae43009d7b1cba05cbc0836dbc37b17e0"),
    ("linear", ["dim", "--json"], 0,
     "d9c7782daf7025129524889ea68bc4a3011c0eed8003022d699ba535470bf79b"),
    ("linear", ["classify"], 0,
     "54312f094f112a585b901000336c6079f6c9d9bc2adebfae4b80f7db7a00d0e3"),
    ("linear", ["patterns"], 0,
     "806162a7637234c4cd28b7916a448ba21006bd41d130d834937dad792b242fdc"),
    ("linear", ["verify"], 4,
     "80f9e62001026ffb35c3d99c2ff6cf9ccd2ebac144bcb1575352a0f9fa3955c0"),
    ("cycle", ["basis", "--json"], 0,
     "0b98bb27a878cd56ef176546330b9c17a9228f0b44d1e0b6fa0df80d63c49763"),
    ("cycle", ["dim", "--json"], 0,
     "f2c8efbada82a82e90328cf7ab1f500cb33d6a1ca2ddcbc8913beae1f81b158b"),
    ("cycle", ["classify"], 0,
     "ec1a7c2465cf273da122a2a3263e1c07a92d811631895ae3c573132dee0226f5"),
    ("cycle", ["patterns"], 0,
     "806162a7637234c4cd28b7916a448ba21006bd41d130d834937dad792b242fdc"),
    ("cycle", ["verify"], 4,
     "c6ff6e4586bfc094f4320b05db779506877ab86f8fe2c3eef2868b88bd34bbc6"),
    ("toupie", ["basis", "--json"], 0,
     "b70d0b606112f665f91799e43f5356b83d9c0bb1491e90166fc2d028a61f730e"),
    ("toupie", ["dim", "--json"], 0,
     "d9c7782daf7025129524889ea68bc4a3011c0eed8003022d699ba535470bf79b"),
    ("toupie", ["classify"], 0,
     "bd59469bd1a290ea5a967289a18251353aae37f0597b1ab2be30dc2c2b47ac79"),
    ("toupie", ["patterns"], 0,
     "806162a7637234c4cd28b7916a448ba21006bd41d130d834937dad792b242fdc"),
    ("toupie", ["verify"], 4,
     "f8921a2a744618b84e64d4a725b869998ac49cd838fed9236eb46959b6ae1138"),
    ("pattern5", ["classify"], 0,
     "dabcbd871f2a50265b254f6fcf3e95027aa79b1901ce664635916bee295748f4"),
    ("pattern5", ["patterns"], 0,
     "56e052e0ca0c0a36b64e44ad091137e3c76509e201d77bf3ab864c7e862a7f46"),
]


@pytest.mark.parametrize("document, command, expected_code, digest", GOLDEN_OUTPUTS,
                         ids=[f"{d}-{' '.join(c)}" for d, c, _, _ in GOLDEN_OUTPUTS])
def test_cli_output_golden(capsys, tmp_path, document, command, expected_code, digest):
    gen, flags = GOLDEN_DOCUMENTS[document]
    code, doc, _ = run(capsys, "gen", *gen)
    assert code == 0
    path = tmp_path / "doc.qv"
    path.write_text(doc)
    subcommand, *options = command
    if subcommand == "verify":
        unit = {"e": doc.splitlines()[1].split()[1]}
        candidate = tmp_path / "cand.json"
        candidate.write_text(json.dumps(
            [{"vertex": unit["e"], "terms": [{"left": unit, "right": unit, "coeff": "1"}]}]))
        options = ["--coproduct", str(candidate)]
    code, out, err = run(capsys, subcommand, str(path), *options, *flags)
    assert (code, err) == (expected_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# JSON text with the characters json escapes: quotes, backslashes, control
# characters, non-ASCII and astral characters, and a lone surrogate.
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800'
                                              "\U0001f600"),
                              st.characters()), max_size=8)
JSON_VALUES = st.recursive(
    st.one_of(JSON_TEXT, st.integers(), st.integers(min_value=2 ** 64),
              st.integers(max_value=-2 ** 64), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(JSON_TEXT, max_size=4),
                            st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=24)


class TestJsonWriter:
    """cli._dumps writes the bytes of json.dumps(value, indent=2)."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [[], {}, [[]], {"a": {}}, ["a", 1, ["b"]], 2 ** 70,
                                       -5, True, None, [False, "x"], 1.5])
    def test_edge_values(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("gen, flags",
                             [*GOLDEN_DOCUMENTS.values(), (["cycle", "12", "9"], [])],
                             ids=[*GOLDEN_DOCUMENTS, "cycle-12-9"])
    def test_cli_payloads(self, capsys, tmp_path, gen, flags):
        code, doc, _ = run(capsys, "gen", *gen)
        path = tmp_path / "doc.qv"
        path.write_text(doc)
        for command in ("basis", "dim", "space"):
            code, out, _ = run(capsys, command, str(path), "--json", *flags)
            payload = json.loads(out)
            assert code == 0 and out == json.dumps(payload, indent=2) + "\n"
            assert cli._dumps(payload) == out[:-1]


class TestRepeatedCalls:
    """main shares one parser across the calls of a process."""

    def test_append_options_do_not_accumulate(self, capsys):
        argv = ["gen", "toupie", "3,2", "--monomial", "1,1,2", "--linear", "1,-1"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second and first[0] == 0
        assert [line for line in first[1].splitlines() if line.startswith("relation")] == \
            ["relation a1_1*a1_2 ;", "relation -a2_1*a2_2 + a1_1*a1_2*a1_3 ;"]

    def test_output_matches_fresh_process_after_errors(self, capsys, diamond_file):
        argv = ["classify", diamond_file]
        src = os.path.dirname(os.path.dirname(frobq.__file__))
        fresh = subprocess.run([sys.executable, "-m", "frobq", *argv],
                               capture_output=True, text=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": src})
        assert fresh.returncode == 0 and fresh.stderr == ""
        assert run(capsys, "dim")[0] == 1
        assert run(capsys, *argv) == (0, fresh.stdout, "")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        capsys.readouterr()
        assert run(capsys, *argv) == (0, fresh.stdout, "")

    def test_dispatch_reads_the_module_attribute(self, capsys, monkeypatch, diamond_file):
        # perfbench's traced run swaps cli.cmd_* for wrappers after import.
        assert run(capsys, "dim", diamond_file) == (0, "1\n", "")
        seen = []
        original = cli.cmd_dim

        def wrapper(args):
            seen.append(args.file)
            original(args)
            return 7

        monkeypatch.setattr(cli, "cmd_dim", wrapper)
        assert run(capsys, "dim", diamond_file) == (7, "1\n", "")
        assert seen == [diamond_file]
