import pytest

from frobq.dsl import QuiverDocument, format_document, parse_document
from frobq.errors import ParseError
from frobq.families import (
    CanonicalSpec,
    gen_canonical,
    gen_cycle,
    gen_linear,
    gen_random,
    gen_toupie,
)
from frobq.linalg import QQ, PrimeField


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


def test_field_override():
    doc = parse_document("field Q\nvertex 1 2\narrow a : 1 -> 2\n",
                         field_override=PrimeField(3))
    assert isinstance(doc.field, PrimeField)


class TestErrors:
    def assert_location(self, text, line, fragment):
        with pytest.raises(ParseError) as excinfo:
            parse_document(text)
        assert excinfo.value.line == line
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

    def test_disconnected_quiver(self):
        with pytest.raises(ParseError, match="not connected"):
            parse_document("vertex 1 2 3\narrow a : 1 -> 2\n")

    def test_dangling_sign(self):
        self.assert_location("vertex 1 2\narrow a : 1 -> 2\narrow b : 1 -> 2\n"
                             "relation a + ;\n", 4, "dangling sign")


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
], ids=["linear", "toupie"])
def test_prime_field_document_of_rational_ideal(built, relation):
    # The generators build their ideals over Q; printed over F_5, each
    # coefficient is its residue.
    text = format_document(QuiverDocument(*built, PrimeField(5)))
    assert text.startswith("field F 5\n") and relation in text.splitlines()
    assert format_document(parse_document(text)) == text
