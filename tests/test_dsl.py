import sys

import pytest

from frobq.dsl import QuiverDocument, format_document, parse_document
from frobq.errors import ParseError, ValidationError
from frobq.families import (
    CanonicalSpec,
    gen_canonical,
    gen_cycle,
    gen_linear,
    gen_random,
    gen_toupie,
)
from frobq.ideal import IdealSpec
from frobq.linalg import QQ, PrimeField
from frobq.quiver import Quiver


def test_minimal_document():
    doc = parse_document("vertex 1 2\narrow a : 1 -> 2\n")
    assert doc.quiver.vertices == ("1", "2")
    assert doc.ideal.generators == ()
    assert doc.field is QQ


def test_diamond_document():
    text = """field Q
vertex 0 x y w
arrow a1 : 0 -> x
arrow a2 : x -> w
arrow b1 : 0 -> y
arrow b2 : y -> w
relation a1*a2 - b1*b2 ;
"""
    doc = parse_document(text)
    assert len(doc.ideal.generators) == 1
    g = doc.ideal.generators[0]
    coeffs = sorted(g.terms.values())
    assert coeffs == [QQ.scalar(-1), QQ.one]


def test_comments_and_blank_lines():
    text = "# heading\n\nvertex 1 2  # trailing\narrow a : 1 -> 2\n"
    doc = parse_document(text)
    assert doc.quiver.vertices == ("1", "2")


def test_comment_right_after_a_token():
    doc = parse_document("vertex 1 2#3\narrow a : 1 -> 2#x\narrow b : 2 -> 1\n"
                         "relation a*b ;# c\n")
    assert format_document(doc) == ("field Q\nvertex 1 2\narrow a : 1 -> 2\n"
                                    "arrow b : 2 -> 1\nrelation a*b ;\n")


def test_coefficient_forms():
    text = """vertex 1 2 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 1 -> 2
relation 1/2 a*b + 3 c*b ;
relation -a*b + c*b ;
"""
    doc = parse_document(text)
    g1, g2 = doc.ideal.generators
    assert sorted(g1.terms.values()) == [QQ.scalar(1, 2), QQ.scalar(3)]
    assert sorted(g2.terms.values()) == [QQ.scalar(-1), QQ.one]


def test_prime_field_document():
    doc = parse_document("field F 5\nvertex 1 2\narrow a : 1 -> 2\n")
    assert isinstance(doc.field, PrimeField) and doc.field.p == 5


def test_prime_field_round_trip():
    text = ("field F 5\nvertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
            "arrow c : 1 -> 2\nrelation a*b + 4 c*b ;\n")
    doc = parse_document(text)
    printed = format_document(doc)
    assert parse_document(printed).ideal.generators[0].terms == \
        doc.ideal.generators[0].terms
    assert format_document(parse_document(printed)) == printed


def test_repeated_terms_merge_in_the_field():
    head = "field F 5\nvertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
    with pytest.raises(ParseError, match="5:1: relation cancels to zero"):
        parse_document(head + "relation 3 a*b + 2 a*b ;\n")
    doc = parse_document(head + "arrow c : 1 -> 2\nrelation 3 a*b + 4 c*b + 2 a*b ;\n")
    assert format_document(doc).splitlines()[-1] == "relation 4 c*b ;"


def test_field_override():
    doc = parse_document("field Q\nvertex 1 2\narrow a : 1 -> 2\n",
                         field_override=PrimeField(3))
    assert isinstance(doc.field, PrimeField)


class TestErrors:
    def assert_location(self, text, line, fragment, column=None):
        with pytest.raises(ParseError) as excinfo:
            parse_document(text)
        assert excinfo.value.line == line
        assert column is None or excinfo.value.column == column
        assert fragment in str(excinfo.value)

    def test_admissibility(self):
        self.assert_location("vertex 1 2\narrow a : 1 -> 2\nrelation a ;\n",
                             3, "length 1")

    def test_missing_semicolon(self):
        self.assert_location("vertex 1 2\narrow a : 1 -> 2\nrelation a*a\n",
                             3, "';'")

    def test_unknown_statement(self):
        self.assert_location("vertex 1\nfoo bar\n", 2, "unknown statement")

    def test_bad_arrow_syntax(self):
        self.assert_location("vertex 1 2\narrow a 1 -> 2\n", 2, "arrow syntax")

    def test_unknown_arrow_in_relation(self):
        self.assert_location("vertex 1 2\narrow a : 1 -> 2\nrelation zz*a ;\n",
                             3, "unknown arrow")

    def test_non_composable_term(self):
        self.assert_location(
            "vertex 1 2 3\narrow a : 1 -> 2\narrow b : 1 -> 3\nrelation a*b ;\n",
            4, "do not compose")

    def test_composite_modulus(self):
        self.assert_location("field F 9\nvertex 1\n", 1, "prime")

    def test_duplicate_field_line(self):
        self.assert_location("field Q\nfield Q\nvertex 1\n", 2, "duplicate")

    # Quiver faults point at the token at fault, even when the vertices
    # are declared after the arrows that use them.
    def test_duplicate_vertex(self):
        self.assert_location("field Q\nvertex 1 2\narrow a : 1 -> 2\nvertex 3 2\n",
                             4, "4:10: duplicate vertex identifier: 2", column=10)

    def test_duplicate_arrow(self):
        self.assert_location("arrow a : 1 -> 2\n\n  arrow a : 2 -> 1\nvertex 1 2\n",
                             3, "3:9: duplicate arrow identifier: a", column=9)

    def test_unknown_source_vertex(self):
        self.assert_location("field Q\narrow a : 1 -> 2\narrow b : x -> 2\nvertex 1 2\n",
                             3, "3:11: arrow b: unknown source vertex x", column=11)

    def test_unknown_target_vertex(self):
        self.assert_location("field Q\nvertex 1 2\narrow a : 1 -> 2\narrow b : 2 -> 3\n",
                             4, "4:16: arrow b: unknown target vertex 3", column=16)

    def test_disconnected_quiver(self):
        with pytest.raises(ParseError, match="not connected"):
            parse_document("vertex 1 2 3\narrow a : 1 -> 2\n")

    def test_dangling_sign(self):
        self.assert_location("vertex 1 2\narrow a : 1 -> 2\narrow b : 1 -> 2\n"
                             "relation a + ;\n", 4, "dangling sign")


H = "vertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
LONG = "9" * 5000


# Every place parse_document raises a ParseError, with the exact text:
# "line:column: message".  Numbers are ASCII decimal digits: other Unicode
# digits are no numbers, and "-" is a token of its own.
@pytest.mark.parametrize("document, error", [
    ("field Q\nfield Q\nvertex 1\n", "2:1: duplicate field line"),
    ("vertex\n", "1:1: vertex line needs at least one identifier"),
    ("vertex 1 ->\n", "1:10: bad vertex identifier '->'"),
    (H + "relation a*b\n", "4:12: relation must end with ';'"),
    (H + "relation\n", "4:1: relation must end with ';'"),
    ("edge 1 2\n", "1:1: unknown statement 'edge'"),
    ("", "1:1: quiver must have at least one vertex"),
    ("vertex 1 2\n", "1:1: quiver is not connected; unreachable vertices: 2"),
    ("vertex 1 1\n", "1:10: duplicate vertex identifier: 1"),
    ("vertex 1 2\narrow a : 1 -> 2\narrow a : 2 -> 1\n", "3:7: duplicate arrow identifier: a"),
    ("vertex 1\narrow a : 0 -> 1\n", "2:11: arrow a: unknown source vertex 0"),
    ("vertex 1\narrow a : 1 -> 2\n", "2:16: arrow a: unknown target vertex 2"),
    (H + "relation a ;\n", "4:1: generator term a has length 1; admissible ideals sit "
                           "inside the square of the arrow ideal"),
    ("field\nvertex 1\n", "1:1: field line needs Q or F <prime>"),
    ("field Q 5\nvertex 1\n", "1:9: trailing tokens after field Q"),
    ("field F\nvertex 1\n", "1:7: field F needs a prime modulus"),
    ("field F -5\nvertex 1\n", "1:7: field F needs a prime modulus"),
    ("field F \u0667\nvertex 1\n", "1:7: field F needs a prime modulus"),
    ("field F 4\nvertex 1\n", "1:9: modulus must be prime: 4"),
    ("field R\nvertex 1\n", "1:7: unknown field 'R'"),
    ("vertex 1 2\narrow a 1 -> 2\n", "2:7: arrow syntax is: arrow <id> : <vertex> -> <vertex>"),
    ("vertex 1\narrow\n", "2:1: arrow syntax is: arrow <id> : <vertex> -> <vertex>"),
    ("vertex 1 2\narrow a : 1 -> ;\n", "2:16: bad identifier ';'"),
    (H + "relation ;\n", "4:1: empty relation"),
    (H + "relation a*b a*b ;\n", "4:14: expected + or - between terms, got 'a'"),
    (H + "relation a*b + ;\n", "4:14: relation ends with a dangling sign"),
    (H + "relation a*b - a*b ;\n", "4:1: relation cancels to zero"),
    (H + "relation a*b + a ;\n", "4:1: non-parallel combination: a*b is 1->3 but a is 1->2"),
    (H + f"relation {LONG} a*b ;\n",
     "4:10: integer literal 99999999999999999999... (5000 characters) is not a decimal "
     f"integer of at most {sys.get_int_max_str_digits()} digits"),
    (H + "relation - ;\n", "4:1: expected a term"),
    (H + "relation 1/x a*b ;\n", "4:10: bad rational literal"),
    (H + "relation 1/-2 a*b ;\n", "4:10: bad rational literal"),
    (H + "relation 1/\u0662 a*b ;\n", "4:10: bad rational literal"),
    (H + "relation 1/0 a*b ;\n", "4:12: zero denominator"),
    ("field F 5\n" + H + "relation 1/5 a*b ;\n", "5:12: denominator 5 is zero in F_5"),
    (H + "relation *a ;\n", "4:10: unexpected '*'"),
    (H + "relation a*: ;\n", "4:12: expected an arrow name, got ':'"),
    (H + "relation \u0662 a*b ;\n", "4:10: expected an arrow name, got '\u0662'"),
    (H + "relation \u00b2 a*b ;\n", "4:10: expected an arrow name, got '\u00b2'"),
    (H + "relation a*c ;\n", "4:12: unknown arrow 'c'"),
    (H + "relation a* ;\n", "4:11: dangling '*'"),
    (H + "relation a*b + - a*b ;\n", "4:16: term has no arrows"),
    (H + "relation b*a ;\n", "4:12: arrows do not compose: b ends at 3, a starts at 1"),
    # With more than one fault, the first met reading the relations in
    # order, each one to its end, is reported; "#" ends a line anywhere.
    (H + "relation a + a*zz ;\n", "4:16: unknown arrow 'zz'"),
    (H + "relation a ;\nrelation a*b a*b ;\n", "4:1: generator term a has length 1; "
                                               "admissible ideals sit inside the square of "
                                               "the arrow ideal"),
    (H + "relation a - b*a ;\n", "4:16: arrows do not compose: b ends at 3, a starts at 1"),
    (H + "relation a*b#;\n", "4:12: relation must end with ';'"),
])
def test_every_parse_error(document, error):
    with pytest.raises(ParseError) as excinfo:
        parse_document(document)
    assert str(excinfo.value) == error


FAMILIES = [
    gen_linear(5, [(2, 2)]),
    gen_cycle(3, 2),
    gen_canonical(CanonicalSpec((2, 3, 2), (1,))),
    gen_toupie((3, 2), [(1, 1, 2)], [(1, -1)]),
    gen_random(42, 5, 7, "rsz"),
    gen_random(7, 4, 6, "string-quadratic"),
]


@pytest.mark.parametrize("built", FAMILIES, ids=lambda b: b[0].vertices[0] + str(len(b[0].arrows)))
def test_round_trip_every_family(built):
    quiver, ideal = built
    doc = QuiverDocument(quiver, ideal, QQ)
    text = format_document(doc)
    parsed = parse_document(text)
    assert parsed.quiver.vertices == quiver.vertices
    assert [(a.name, a.source, a.target) for a in parsed.quiver.arrows] == \
        [(a.name, a.source, a.target) for a in quiver.arrows]
    assert [g.terms for g in parsed.ideal.generators] == \
        [g.terms for g in ideal.generators]
    assert format_document(parsed) == text


@pytest.mark.parametrize("built, relation", [
    (gen_linear(3, [(1, 2)]), "relation a1*a2 ;"),
    (gen_toupie((3, 3), [], [(2, -3)]),
     "relation 2 a1_1*a1_2*a1_3 + 2 a2_1*a2_2*a2_3 ;"),
    (gen_toupie((3, 3), [], [(2, 5)]), "relation 2 a1_1*a1_2*a1_3 ;"),
    (gen_toupie((3, 3), [], [(5, 5)]), None),
], ids=["linear", "toupie", "toupie-term-vanishes", "toupie-all-terms-vanish"])
def test_prime_field_document_of_rational_ideal(built, relation):
    # The generators build their ideals over Q; printed over F_5, each
    # coefficient is its residue, and a term whose residue is 0 is left out.
    # A relation with no term left is refused, as parse_document refuses it.
    doc = QuiverDocument(*built, PrimeField(5))
    if relation is None:
        with pytest.raises(ValidationError, match="cancels to zero"):
            format_document(doc)
        return
    text = format_document(doc)
    assert text.startswith("field F 5\n") and relation in text.splitlines()
    assert format_document(parse_document(text)) == text


# Quiver takes any non-empty name, but the language reads only
# [A-Za-z0-9_.]+: "0,0" would not parse, "a b" would parse as two
# vertices and "x#" as the vertex x followed by a comment.
@pytest.mark.parametrize("vertices, arrows, message", [
    (["0,0"], [], "vertex name '0,0' is not an identifier"),
    (["a b"], [], "vertex name 'a b' is not an identifier"),
    (["x#"], [], "vertex name 'x#' is not an identifier"),
    (["1", "2"], [("a b", "1", "2")], "arrow name 'a b' is not an identifier"),
], ids=["comma", "space", "hash", "arrow"])
def test_format_refuses_names_the_language_cannot_read(vertices, arrows, message):
    doc = QuiverDocument(Quiver(vertices, arrows), IdealSpec([]), QQ)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        format_document(doc)
