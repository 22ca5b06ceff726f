"""Line-oriented quiver document language.

    field Q | field F <prime>
    vertex <id> [<id> ...]
    arrow <id> : <vertex> -> <vertex>
    relation <term> { (+|-) <term> } ;     term := [<rational>] <arrow> { * <arrow> }

An identifier (a vertex or arrow name) is ASCII letters, digits, `_`
and `.`.  `#` starts a comment anywhere on a line, even right after a
token: `2#3` reads as `2`.  Rationals are written `num` or `num/den`.  Every
error carries the line and column it happened at; one that no single
token causes (a quiver that is not connected) points at 1:1.
parse(format(doc)) reproduces the document exactly for documents in
normalized form.
"""

import re
import sys

from .errors import ParseError, ValidationError, shorten
from .ideal import IdealSpec, check_term_length
from .linalg import DECIMAL, QQ, PrimeField
from .quiver import PathExpr, Quiver

_IDENTIFIER = re.compile(r"[A-Za-z0-9_.]+")
_TOKEN = re.compile(r"->|[*+\-:;/]|" + _IDENTIFIER.pattern + r"|\S")


class QuiverDocument:
    """A parsed document: quiver, validated ideal and field."""

    def __init__(self, quiver, ideal, field):
        self.quiver = quiver
        self.ideal = ideal
        self.field = field


def _tokenize(line, lineno):
    # No token but a comment holds "#", so the comment is cut off first.
    return [(m.group(), lineno, m.start() + 1)
            for m in _TOKEN.finditer(line.partition("#")[0])]


def parse_document(text, field_override=None) -> QuiverDocument:
    field = None
    vertices = []
    arrows = []
    relations = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        head, line_, col = tokens[0]
        rest = tokens[1:]
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno, col)
            field = _parse_field(rest, lineno)
        elif head == "vertex":
            if not rest:
                raise ParseError("vertex line needs at least one identifier", lineno, col)
            for name, ln, c in rest:
                if not _IDENTIFIER.fullmatch(name):
                    raise ParseError(f"bad vertex identifier {name!r}", ln, c)
            vertices.extend(rest)
        elif head == "arrow":
            arrows.append(_parse_arrow(rest, lineno))
        elif head == "relation":
            if not rest or rest[-1][0] != ";":
                where = rest[-1] if rest else tokens[0]
                raise ParseError("relation must end with ';'", where[1], where[2])
            relations.append((rest[:-1], lineno))
        else:
            raise ParseError(f"unknown statement {shorten(head, repr)}", lineno, col)

    if field is None:
        field = QQ
    if field_override is not None:
        field = field_override

    try:
        quiver = Quiver([v[0] for v in vertices], [[t[0] for t in a] for a in arrows])
    except ValidationError as exc:
        # The token at fault; a fault of the whole quiver (not connected,
        # no vertex) has none and points at 1:1.
        if exc.at is None:
            line, col = 1, 1
        elif exc.at[0] == "vertex":
            _, line, col = vertices[exc.at[1]]
        else:
            _, line, col = arrows[exc.at[1]][exc.at[2]]
        raise ParseError(str(exc), line, col) from None

    generators = [_parse_relation(tokens, lineno, quiver, field) for tokens, lineno in relations]
    return QuiverDocument(quiver, IdealSpec(generators), field)


def _parse_field(tokens, lineno):
    if not tokens:
        raise ParseError("field line needs Q or F <prime>", lineno, 1)
    name, ln, col = tokens[0]
    if name == "Q":
        if len(tokens) > 1:
            raise ParseError("trailing tokens after field Q", tokens[1][1], tokens[1][2])
        return QQ
    if name == "F":
        if len(tokens) != 2 or not DECIMAL.fullmatch(tokens[1][0]):
            raise ParseError("field F needs a prime modulus", ln, col)
        try:
            return PrimeField(_integer(tokens[1]))
        except ValidationError as exc:
            raise ParseError(str(exc), tokens[1][1], tokens[1][2]) from None
    raise ParseError(f"unknown field {shorten(name, repr)}", ln, col)


def _parse_arrow(tokens, lineno):
    """The name, source and target tokens of an arrow line."""
    texts = [t[0] for t in tokens]
    if len(texts) != 5 or texts[1] != ":" or texts[3] != "->":
        raise ParseError("arrow syntax is: arrow <id> : <vertex> -> <vertex>",
                         lineno, tokens[0][2] if tokens else 1)
    parts = (tokens[0], tokens[2], tokens[4])
    for value, ln, col in parts:
        if not _IDENTIFIER.fullmatch(value):
            raise ParseError(f"bad identifier {value!r}", ln, col)
    return parts


def _parse_relation(tokens, lineno, quiver, field):
    if not tokens:
        raise ParseError("empty relation", lineno, 1)
    terms = {}
    negative = tokens[0][0] == "-"
    position = int(negative)
    while True:
        (coeff, path), position = _parse_term(tokens, position, quiver, field, lineno)
        if negative:
            coeff = field.reduce(-coeff)
        # Repeated paths merge here, so that a sum that vanishes in the
        # field drops out of the relation.
        terms[path] = field.reduce(terms[path] + coeff) if path in terms else coeff
        if position >= len(tokens):
            break
        op, ln, col = tokens[position]
        if op not in ("+", "-"):
            raise ParseError(f"expected + or - between terms, got {shorten(op, repr)}", ln, col)
        negative = op == "-"
        position += 1
        if position >= len(tokens):
            raise ParseError("relation ends with a dangling sign", ln, col)
    try:
        expr = PathExpr(terms)
        if expr.is_zero:
            raise ValidationError("relation cancels to zero")
        for path in expr.terms:
            check_term_length(path)
    except ValidationError as exc:
        raise ParseError(str(exc), lineno, 1) from None
    return expr


def _integer(token):
    """The int a numeric token spells; a ParseError at the token when int() refuses it."""
    text, ln, col = token
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal {shorten(text)} is not a decimal integer of at most "
                         f"{sys.get_int_max_str_digits()} digits", ln, col) from None


def _parse_term(tokens, position, quiver, field, lineno):
    if position >= len(tokens):
        raise ParseError("expected a term", lineno, 1)
    coeff = field.one
    text, ln, col = tokens[position]
    # A leading number is a coefficient when an arrow (or a /den part)
    # follows; otherwise it is read as an arrow name.
    if DECIMAL.fullmatch(text) and position + 1 < len(tokens):
        nxt = tokens[position + 1][0]
        if nxt == "/":
            if position + 2 >= len(tokens) or not DECIMAL.fullmatch(tokens[position + 2][0]):
                raise ParseError("bad rational literal", ln, col)
            den = _integer(tokens[position + 2])
            if den == 0:
                raise ParseError("zero denominator", tokens[position + 2][1],
                                 tokens[position + 2][2])
            try:
                coeff = field.scalar(_integer(tokens[position]), den)
            except ValidationError as exc:
                raise ParseError(str(exc), tokens[position + 2][1],
                                 tokens[position + 2][2]) from None
            position += 3
        elif nxt not in ("*", "+", "-", ";"):
            coeff = field.scalar(_integer(tokens[position]))
            position += 1
    arrow_names = []
    while True:
        if position >= len(tokens):
            break
        text, ln, col = tokens[position]
        if text in ("+", "-"):
            break
        if text == "*":
            raise ParseError("unexpected '*'", ln, col)
        if text not in quiver.arrow_by_name:
            if not _IDENTIFIER.fullmatch(text):
                raise ParseError(f"expected an arrow name, got {text!r}", ln, col)
            raise ParseError(f"unknown arrow {shorten(text, repr)}", ln, col)
        arrow_names.append(text)
        position += 1
        if position < len(tokens) and tokens[position][0] == "*":
            position += 1
            if position >= len(tokens) or tokens[position][0] in ("+", "-"):
                raise ParseError("dangling '*'", tokens[position - 1][1],
                                 tokens[position - 1][2])
            continue
        break
    if not arrow_names:
        raise ParseError("term has no arrows", ln, col)
    try:
        path = quiver.path(arrow_names)
    except ValidationError as exc:
        raise ParseError(str(exc), ln, col) from None
    return (coeff, path), position


def format_document(doc: QuiverDocument) -> str:
    """Normalized text form; parse(format(doc)) reproduces doc, whose names must be identifiers."""
    for kind, names in (("vertex", doc.quiver.vertices), ("arrow", doc.quiver.arrow_by_name)):
        for name in names:
            if not _IDENTIFIER.fullmatch(name):
                raise ValidationError(f"{kind} name {shorten(name, repr)} is not an identifier")
    lines = []
    if isinstance(doc.field, PrimeField):
        lines.append(f"field F {doc.field.p}")
    else:
        lines.append("field Q")
    lines.append("vertex " + " ".join(doc.quiver.vertices))
    for a in doc.quiver.arrows:
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}")
    for g in doc.ideal.generators:
        lines.append("relation " + _format_expr(g, doc.field) + " ;")
    return "\n".join(lines) + "\n"


def _format_expr(expr, field):
    """The relation's terms in the field; terms that vanish there are left out."""
    parts = []
    for path, coeff in expr.terms.items():
        coeff = field.coerce(coeff)
        if not coeff:
            continue
        # An F_p residue is never negative, so it prints as a nonnegative integer.
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        word = "*".join(path.arrows)
        body = word if magnitude == 1 else f"{magnitude} {word}"
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    if not parts:
        raise ValidationError(f"relation {expr} cancels to zero in {field.name}")
    return " ".join(parts)

