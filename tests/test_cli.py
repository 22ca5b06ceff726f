import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import frobq
from frobq import cli
from frobq.cli import main
from frobq.dsl import QuiverDocument, format_document, parse_document
from frobq.families import CanonicalSpec, gen_canonical, gen_cycle, gen_toupie
from frobq.frobenius import (CoproductCandidate, candidate_from_json,
                             candidate_to_json, frobenius_dimension, path_to_json,
                             solve_frobenius_space)
from frobq.ideal import IdealSpec, compute_basis
from frobq.linalg import QQ, PrimeField
from frobq.quiver import Path, PathExpr, Quiver

from algebra_ops import blocks, canonical_key, combine, path_terms, terms_text
from strategies import has_zero_generator, mixed_algebras, random_algebras, renamed_quivers

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
F7 = PrimeField(7)


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.qv"
    path.write_text(DIAMOND)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def loops_document(tmp_path, loops):
    """The path of a document with one vertex and the given number of loops."""
    doc = tmp_path / "loops.qv"
    doc.write_text("field Q\nvertex 1\n" + "".join(f"arrow l{i} : 1 -> 1\n" for i in range(loops)))
    return str(doc)


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

    def test_verify_refuses_a_string_for_a_word(self, capsys, tmp_path):
        # tuple("ab") spells the basis word a*b, but a JSON string is no path.
        doc = tmp_path / "a3.qv"
        doc.write_text("vertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n")
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([
            {"vertex": "1", "terms": [{"left": "ab", "right": {"e": "1"}, "coeff": "1"}]}
        ]))
        assert run(capsys, "verify", str(doc), "--coproduct", str(cand)) == \
            (1, "", "error: bad path encoding: 'ab'\n")

    # On gen cycle 3 2 the word a1*a2 is zero, so no basis path, and a2 and
    # e_2 start at 2: each breaks the support at vertex 1.  The whole file
    # is read before support is checked, terms that sum to zero drop out,
    # and the bad terms are reported in the order of their vertex's first
    # entry, then of their last addition.
    @pytest.mark.parametrize("entries, expected", [
        ([{"vertex": "1", "terms": [(["a1", "a2"], {"e": "1"}, "1"),
                                    (5, {"e": "1"}, "1")]}],
         (1, "", "error: bad path encoding: 5\n")),
        ([{"vertex": "1", "terms": [(["a1", "a2"], {"e": "1"}, "0")]}],
         (0, "VERIFIED\n", "")),
        ([{"vertex": "1", "terms": [(["a2"], {"e": "1"}, "1"), (["a2"], {"e": "1"}, "-1")]}],
         (0, "VERIFIED\n", "")),
        ([{"vertex": "1", "terms": [(["a1", "a2"], {"e": "1"}, "1"),
                                    (["a1", "a2"], {"e": "1"}, "-1"),
                                    (["a2"], {"e": "1"}, "1"),
                                    (["a1", "a2"], {"e": "1"}, "1")]}],
         (4, "SUPPORT VIOLATION: term a2(x)e_1 at vertex 1 breaks the support condition "
             "source(left) = target(right) = 1\n", "")),
        ([{"vertex": "1", "terms": []},
          {"vertex": "2", "terms": [({"e": "1"}, {"e": "2"}, "1")]},
          {"vertex": "1", "terms": [(["a1"], ["a3"], "1"), ({"e": "2"}, {"e": "1"}, "1")]}],
         (4, "SUPPORT VIOLATION: term e_2(x)e_1 at vertex 1 breaks the support condition "
             "source(left) = target(right) = 1\n", "")),
    ], ids=["bad-encoding-after-non-basis", "non-basis-with-coeff-0", "cancelled-support-break",
            "cancelled-then-readded", "vertex-listed-twice"])
    def test_verify_error_precedence(self, capsys, tmp_path, entries, expected):
        code, doc, _ = run(capsys, "gen", "cycle", "3", "2")
        path = tmp_path / "cycle.qv"
        path.write_text(doc)
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([
            {"vertex": entry["vertex"],
             "terms": [{"left": left, "right": right, "coeff": coeff}
                       for left, right, coeff in entry["terms"]]}
            for entry in entries]))
        assert run(capsys, "verify", str(path), "--coproduct", str(cand)) == expected

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

    def test_dim_reads_past_a_byte_order_mark(self, capsys, tmp_path):
        doc = tmp_path / "bom.qv"
        doc.write_bytes(b"\xef\xbb\xbf" + DIAMOND.encode())
        assert run(capsys, "dim", str(doc)) == (0, "1\n", "")

    def test_verify_reads_past_a_byte_order_mark(self, capsys, tmp_path):
        """A BOM before a document and a coproduct file changes no output
        byte, on a candidate that passes and on one that fails."""
        e, x = {"e": "p"}, ["x"]
        for legs, code in ((((e, x), (x, e)), 0), (((e, e),), 4)):
            terms = [{"left": left, "right": right, "coeff": "1"} for left, right in legs]
            outputs = []
            for bom in (b"", b"\xef\xbb\xbf"):
                doc, cand = tmp_path / "doc.qv", tmp_path / "cand.json"
                doc.write_bytes(bom + b"vertex p\narrow x : p -> p\nrelation x*x ;\n")
                cand.write_bytes(bom + json.dumps([{"vertex": "p", "terms": terms}]).encode())
                outputs.append(run(capsys, "verify", str(doc), "--coproduct", str(cand)))
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == code

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

    @pytest.mark.parametrize("field, reason", [
        (None, "rational literal '1/0': zero denominator"),
        ("F7", "scalar literal '1/0': denominator 0 is zero in F_7")])
    def test_coproduct_zero_denominator(self, capsys, tmp_path, diamond_file, field, reason):
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "0", "terms": [
            {"left": {"e": "0"}, "right": {"e": "0"}, "coeff": "1/0"}]}]))
        flags = ["--field", field] if field else []
        code, out, err = run(capsys, "verify", diamond_file, "--coproduct", str(cand), *flags)
        self.assert_one_line_error(code, out, err)
        assert err == f"error: bad {reason}\n"

    def test_canonical_zero_denominator(self, capsys):
        code, out, err = run(capsys, "gen", "canonical", "2,2,2", "--lambdas", "1/0")
        self.assert_one_line_error(code, out, err)
        assert err == "error: bad rational literal '1/0': zero denominator\n"

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

    # A bound of 100,000 in the rsz regime ran past a minute before the
    # limit; at the limit every regime is drawn in well under a second.
    @pytest.mark.parametrize("bounds", [("1001", "10"), ("10", "1001"), ("10", "100000")])
    def test_random_bound_above_the_limit(self, capsys, bounds):
        code, out, err = run(capsys, "gen", "random", "3", *bounds, "rsz")
        self.assert_one_line_error(code, out, err)
        assert err == "error: vertex and arrow bounds must be <= 1000\n"

    # Seed 3 at bounds 1000 once failed in the string-quadratic regime.
    @pytest.mark.parametrize("regime", ["rsz", "acyclic-monomial", "string-quadratic"])
    def test_random_bound_at_the_limit(self, capsys, regime):
        code, out, err = run(capsys, "gen", "random", "3", "1000", "1000", regime)
        assert code == 0 and err == "" and out.startswith("field Q\n")

    # `gen linear 100000000000000000000` once ran until it was killed: every
    # family now refuses a size above families.MAX_SIZE before building.
    @pytest.mark.parametrize("family, params, message", [
        ("linear", ["1001"], "vertex count"),
        ("linear", ["100000000000000000000"], "vertex count"),
        ("cycle", ["1001", "2"], "vertex count and generator length"),
        ("cycle", ["3", "1001"], "vertex count and generator length"),
        ("toupie", ["2,1001"], "branch lengths and the branch count"),
        ("toupie", [",".join(["1"] * 1001)], "branch lengths and the branch count"),
        ("canonical", ["2,2,1001", "--lambdas", "1"], "branch lengths and the branch count"),
        ("canonical", [",".join(["1"] * 1001),
                       "--lambdas", ",".join(map(str, range(1, 1000)))],
         "branch lengths and the branch count"),
    ], ids=["linear-n", "linear-huge", "cycle-n", "cycle-d", "toupie-length",
            "toupie-count", "canonical-weight", "canonical-count"])
    def test_family_size_above_the_limit(self, capsys, family, params, message):
        code, out, err = run(capsys, "gen", family, *params)
        self.assert_one_line_error(code, out, err)
        assert err == f"error: {message} must be <= 1000\n"

    @pytest.mark.parametrize("family, params", [
        ("linear", ["1000"]),
        ("cycle", ["1000", "2"]),
        ("cycle", ["3", "1000"]),
        ("toupie", ["2,1000"]),
        ("toupie", [",".join(["1"] * 1000)]),
        ("canonical", ["1000,1"]),
        ("canonical", [",".join(["1"] * 1000),
                       "--lambdas", ",".join(map(str, range(1, 999)))]),
    ], ids=["linear-n", "cycle-n", "cycle-d", "toupie-length", "toupie-count",
            "canonical-weight", "canonical-count"])
    def test_family_size_at_the_limit(self, capsys, family, params):
        code, out, err = run(capsys, "gen", family, *params)
        assert code == 0 and err == "" and out.startswith("field Q\n")

    # `gen cycle 1000 1000` once wrote 4.9 MB, and `gen rsz` on one vertex
    # with 1,500 loops ran 28 s: each family now counts the arrow names it
    # would write, each arrow once and each arrow of every generator term,
    # and refuses more than families.MAX_NAMES before building.  An rsz
    # case names its loop count, and one vertex with k loops has k + 2 k^2.
    @pytest.mark.parametrize("family, params, count", [
        ("linear", ["1000", *["--relation", "1,999"] * 100], 100_899),
        ("cycle", ["1000", "100"], 101_000),
        ("canonical", [",".join(["1000"] * 27), "--lambdas", ",".join(map(str, range(1, 26)))],
         102_000),
        ("toupie", [",".join(["1000"] * 100) + ",1"], 100_001),
        ("rsz", 224, 100_576),
        ("rsz", 1500, 4_501_500),
        ("random", ["3", "2", "1000", "rsz"], 477_252),
    ], ids=["linear", "cycle", "canonical", "toupie", "rsz", "rsz-1500", "random"])
    def test_family_names_above_the_limit(self, capsys, tmp_path, family, params, count):
        if family == "rsz":
            params = [loops_document(tmp_path, params)]
        code, out, err = run(capsys, "gen", family, *params)
        self.assert_one_line_error(code, out, err)
        assert err == f"error: the document would hold {count} arrow names, more than 100000\n"

    @pytest.mark.parametrize("family, params", [
        ("linear", ["1000", *["--relation", "1,999"] * 99]),
        ("cycle", ["1000", "99"]),
        ("canonical", [",".join(["1000"] * 26), "--lambdas", ",".join(map(str, range(1, 25)))]),
        ("toupie", [",".join(["1000"] * 100)]),
        ("rsz", 223),
    ], ids=["linear", "cycle", "canonical", "toupie", "rsz"])
    def test_family_names_at_the_limit(self, capsys, tmp_path, family, params):
        if family == "rsz":
            params = [loops_document(tmp_path, params)]
        code, out, err = run(capsys, "gen", family, *params)
        assert code == 0 and err == "" and out.startswith("field Q\n")

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

    def test_verify_support_violation_on_the_right_leg_only(self, capsys, tmp_path):
        doc = tmp_path / "a3.qv"
        doc.write_text("vertex 1 2 3\narrow a1 : 1 -> 2\narrow a2 : 2 -> 3\n")
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps([{"vertex": "1", "terms": [
            {"left": {"e": "1"}, "right": ["a1"], "coeff": "1"}]}]))
        assert run(capsys, "verify", str(doc), "--coproduct", str(cand)) == (
            4, "SUPPORT VIOLATION: term e_1(x)a1 at vertex 1 breaks the support condition "
               "source(left) = target(right) = 1\n", "")

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

    def test_canonical_takes_rational_lambdas(self, capsys, tmp_path):
        """The benchmark's elim instance: lambdas 2 and 1/3, space dimension 0."""
        code, out, err = run(capsys, "gen", "canonical", "9,10,11,12", "--lambdas", "2,1/3")
        assert code == 0 and err == ""
        assert "relation a1_1*" in out and " - 1/3 a2_1*" in out
        doc = tmp_path / "canonical.qv"
        doc.write_text(out)
        assert run(capsys, "dim", str(doc)) == (0, "0\n", "")

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
# the first vertex, which is never a coproduct there.  linear-verify was
# recorded again when the basis went from block order to canonical order:
# verify names the first failing pair in basis order, now (e_1, a1).
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
     "c6ff6e4586bfc094f4320b05db779506877ab86f8fe2c3eef2868b88bd34bbc6"),
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


TOUPIE = format_document(QuiverDocument(*gen_toupie((3, 3), [], [[2, -3]]), QQ))
CANONICAL_THIRD = format_document(QuiverDocument(
    *gen_canonical(CanonicalSpec((2, 2, 2), (Fraction(1, 3),))), QQ))


def json_text(algebra, command):
    """What `frobq <command> --json` prints for algebra, which is built
    through the library, so its names may be ones the document language
    refuses."""
    out = io.StringIO()
    with mock.patch.object(cli, "_algebra", lambda args: algebra), redirect_stdout(out):
        assert main([command, "unread.qv", "--json"]) == 0
    return out.getvalue()


def dict_payload(algebra, command):
    """The payload of `frobq <command> --json`, built from the library's
    dict forms path_to_json and candidate_to_json."""
    if command == "basis":
        return {"schema": "frobq/1", "dimension": algebra.dimension, "bound": algebra.bound,
                "blocks": [{"source": source, "target": target,
                            "paths": [path_to_json(p) for p in paths]}
                           for (source, target), paths in sorted(blocks(algebra).items())]}
    if command == "dim":
        return {"schema": "frobq/1", "frobenius_dimension": frobenius_dimension(algebra)}
    space = solve_frobenius_space(algebra)
    return {"schema": "frobq/1", "dimension": len(space),
            "candidates": [candidate_to_json(c) for c in space]}


def document_algebra(document, flags):
    """The algebra `frobq <command> FILE *flags` reads from document."""
    doc = parse_document(document, field_override=cli._field_from_flag(
        flags[1] if flags else None))
    return compute_basis(doc.quiver, doc.ideal, doc.field)


ALGEBRAS = st.one_of(mixed_algebras().map(lambda drawn: drawn[:3]), random_algebras())


class TestJsonWriter:
    """basis, dim and space --json write the bytes of
    json.dumps(payload, indent=2) plus a line break, for the payload the
    library's dict forms give."""

    @pytest.mark.parametrize("command", ["basis", "dim", "space"])
    @pytest.mark.parametrize("gen, flags",
                             [*GOLDEN_DOCUMENTS.values(), (["cycle", "12", "9"], [])],
                             ids=[*GOLDEN_DOCUMENTS, "cycle-12-9"])
    def test_cli_payloads(self, capsys, tmp_path, gen, flags, command):
        code, doc, _ = run(capsys, "gen", *gen)
        path = tmp_path / "doc.qv"
        path.write_text(doc)
        code, out, _ = run(capsys, command, str(path), "--json", *flags)
        payload = dict_payload(document_algebra(doc, flags), command)
        assert code == 0 and out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("document, flags, feature", [
        (TOUPIE, ["--field", "F7"], '"coeff": "3"'),
        (TOUPIE, [], '"coeff": "2/3"'),
        # e_a, e_b and the arrow a are legs: one memo key must not serve two of them.
        ("vertex a b\narrow a : a -> b\n", [], '"right": {\n              "e": "a"'),
        (CANONICAL_THIRD, [], '"candidates": []'),
    ], ids=["F7-coefficient-3", "Q-coefficient-2/3", "trivial-legs", "zero-dimensional"])
    def test_space_payloads(self, capsys, tmp_path, document, flags, feature):
        path = tmp_path / "doc.qv"
        path.write_text(document)
        code, out, _ = run(capsys, "space", str(path), "--json", *flags)
        assert code == 0 and feature in out
        payload = dict_payload(document_algebra(document, flags), "space")
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("build, field", [(gen_cycle(12, 9), QQ), (gen_cycle(5, 4), F7)],
                             ids=["cycle-12-9-Q", "cycle-5-4-F7"])
    def test_space_writer_orders_terms_by_sort_key(self, build, field):
        """The sum of the space holds its terms out of Path.sort_key order
        of their legs, and the writer puts them in that order, as
        candidate_to_json does."""
        algebra = compute_basis(*build, field)
        total = CoproductCandidate(algebra, combine(
            algebra, [(1, candidate) for candidate in solve_frobenius_space(algebra)]))
        basis, quiver = algebra.basis, algebra.quiver
        assert any(list(terms) != sorted(terms, key=lambda pair: (
            basis[pair[0]].sort_key(), basis[pair[1]].sort_key()))
            for terms in total.values.values())
        out = cli._space_json(algebra, [total])

        def sort_key(leg):
            return (quiver.trivial_path(leg["e"]) if isinstance(leg, dict)
                    else quiver.path(leg)).sort_key()

        for value in json.loads(out)["candidates"][0]:
            keys = [(sort_key(term["left"]), sort_key(term["right"])) for term in value["terms"]]
            assert keys == sorted(keys)
        payload = {"schema": "frobq/1", "dimension": 1, "candidates": [candidate_to_json(total)]}
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("command", ["basis", "space"])
    def test_writers_escape_names(self, command):
        # Names the document language refuses, so built through the library.
        quiver = Quiver(['\u00e9"', "\\x"], [("\U0001f600", '\u00e9"', "\\x")])
        algebra = compute_basis(quiver, IdealSpec([]), QQ)
        out = json_text(algebra, command)
        assert out == json.dumps(dict_payload(algebra, command), indent=2) + "\n"
        assert "\\u00e9\\\"" in out and "\\ud83d\\ude00" in out and '"\\\\x"' in out

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(quiver=renamed_quivers(), length=st.integers(2, 3))
    def test_basis_blocks_group_the_canonical_basis(self, quiver, length):
        """basis --json groups the basis, which is in canonical order, into
        blocks in (source, target) order, each with its paths in sort_key
        order, on quivers that declare their vertices and arrows out of
        name order.  Every path of the drawn length is zero, so a cyclic
        quiver is finite too."""
        ideal = IdealSpec([PathExpr.from_path(p, 1) for p in quiver.enumerate_paths(length)
                           if len(p) == length])
        algebra = compute_basis(quiver, ideal, QQ)
        assert list(algebra.basis) == sorted(algebra.basis, key=canonical_key)
        written = json.loads(json_text(algebra, "basis"))["blocks"]
        keys = [(block["source"], block["target"]) for block in written]
        assert keys == sorted(set(keys))
        grouped = []
        for block in written:
            paths = [quiver.trivial_path(leg["e"]) if isinstance(leg, dict) else quiver.path(leg)
                     for leg in block["paths"]]
            assert {(p.source, p.target) for p in paths} == {(block["source"], block["target"])}
            assert paths == sorted(paths, key=Path.sort_key)
            grouped += paths
        assert sorted(grouped, key=canonical_key) == list(algebra.basis)

    @pytest.mark.parametrize("command", ["basis", "dim", "space"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ALGEBRAS)
    def test_json_outputs_match_the_dict_forms(self, command, drawn):
        quiver, ideal, field = drawn
        assume(not has_zero_generator(ideal, field))
        algebra = compute_basis(quiver, ideal, field)
        out = json_text(algebra, command)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert out == json.dumps(dict_payload(algebra, command), indent=2) + "\n"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ALGEBRAS)
    @example((*gen_canonical(CanonicalSpec((2, 2, 2), (Fraction(1, 3),))), QQ))
    @example((*gen_canonical(CanonicalSpec((9, 10, 11, 12), (2, Fraction(1, 3)))), QQ))
    def test_space_json_reads_back(self, drawn):
        """candidate_from_json reads space --json back to the solver's
        values over basis indices, and the product table the solver
        verifies with is the one a rebuild pair by pair gives.  The two
        canonical examples have Fraction coordinates."""
        quiver, ideal, field = drawn
        assume(not has_zero_generator(ideal, field))
        algebra = compute_basis(quiver, ideal, field)
        space = solve_frobenius_space(algebra)
        read = [candidate_from_json(data, algebra)
                for data in json.loads(json_text(algebra, "space"))["candidates"]]
        assert [c.values for c in read] == [c.values for c in space]
        rows = product_table_by_pairs(algebra)
        assert algebra.product_table == rows
        assert [list(row) for row in algebra.product_table] == [list(row) for row in rows]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ALGEBRAS.map(lambda drawn: (drawn, False)))
@example(((*gen_cycle(12, 9), QQ), True))
@example(((*gen_cycle(5, 4), F7), True))
def test_space_text_orders_terms_by_sort_key(case):
    """Text space lists each value's terms in Path.sort_key order of their
    legs.  The solver's own candidates may hold their terms in that order
    already, so space is replaced by the sum of its candidates, whose
    values span blocks; in the two cycle examples the sum holds its terms
    out of that order."""
    (quiver, ideal, field), out_of_order = case
    assume(not has_zero_generator(ideal, field))
    algebra = compute_basis(quiver, ideal, field)
    total = CoproductCandidate(algebra, combine(
        algebra, [(1, candidate) for candidate in solve_frobenius_space(algebra)]))
    if out_of_order:
        basis = algebra.basis
        assert any(list(terms) != sorted(terms, key=lambda pair: (
            basis[pair[0]].sort_key(), basis[pair[1]].sort_key()))
            for terms in total.values.values())
    out = io.StringIO()
    with mock.patch.object(cli, "_algebra", lambda args: algebra), \
            mock.patch.object(cli, "solve_frobenius_space", lambda algebra: [total]), \
            redirect_stdout(out):
        assert main(["space", "unread.qv"]) == 0
    lines = ["dimension 1", "candidate 0:"]
    lines += [f"  D(e_{vertex}) = {terms_text(field, path_terms(algebra, total.values[vertex]))}"
              for vertex in quiver.vertices if vertex in total.values]
    assert out.getvalue() == "\n".join(lines) + "\n"


def product_table_by_pairs(algebra):
    """product_table rebuilt one composable pair at a time from algebra.table."""
    basis, table = algebra.basis, algebra.table
    rows = [{} for _ in basis]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            if x.target == y.source:
                word = x.arrows + y.arrows
                rows[i][j] = table[word or x.source] if len(word) < algebra.bound else {}
    return rows


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
