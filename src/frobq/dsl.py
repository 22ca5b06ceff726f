"""Line-oriented quiver document language.

    field Q | field F <prime>
    vertex <id> [<id> ...]
    arrow <id> : <vertex> -> <vertex>
    relation <term> { (+|-) <term> } ;     term := [<rational>] <arrow> { * <arrow> }

`#` starts a comment.  Rationals are written `num` or `num/den`.  Every
error carries the line and column it happened at.  parse(format(doc))
reproduces the document exactly for documents in normalized form.
"""

import re

from .errors import ParseError, ValidationError
from .ideal import IdealSpec, validate
from .linalg import QQ, PrimeField, RationalField
from .quiver import PathExpr, Quiver

_TOKEN = re.compile(r"->|[*+\-:;/]|[A-Za-z0-9_.]+|\S")


class QuiverDocument:
    """A parsed document: quiver, validated ideal and field."""

    def __init__(self, quiver, ideal, field):
        self.quiver = quiver
        self.ideal = ideal
        self.field = field


def _tokenize(line, lineno):
    tokens = []
    for match in _TOKEN.finditer(line):
        text = match.group()
        if text.startswith("#"):
            break
        tokens.append((text, lineno, match.start() + 1))
    return tokens


class _Relation:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno


def parse_document(text, field_override=None) -> QuiverDocument:
    field = None
    vertices = []
    arrows = []
    relations = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = _tokenize(raw, lineno)
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
                if not _is_identifier(name):
                    raise ParseError(f"bad vertex identifier {name!r}", ln, c)
                vertices.append(name)
        elif head == "arrow":
            arrows.append(_parse_arrow(rest, lineno))
        elif head == "relation":
            if not rest or rest[-1][0] != ";":
                where = rest[-1] if rest else tokens[0]
                raise ParseError("relation must end with ';'", where[1], where[2])
            relations.append(_Relation(rest[:-1], lineno))
        else:
            raise ParseError(f"unknown statement {head!r}", lineno, col)

    if field is None:
        field = QQ
    if field_override is not None:
        field = field_override

    try:
        quiver = Quiver(vertices, arrows)
    except ValidationError as exc:
        raise ParseError(str(exc), 1, 1) from None

    generators = []
    for rel in relations:
        g = _parse_relation(rel, quiver, field)
        try:
            validate(quiver, IdealSpec([g]))
        except ValidationError as exc:
            raise ParseError(str(exc), rel.lineno, 1) from None
        generators.append(g)
    return QuiverDocument(quiver, IdealSpec(generators), field)


def _is_identifier(text):
    return re.fullmatch(r"[A-Za-z0-9_.]+", text) is not None


def _parse_field(tokens, lineno):
    if not tokens:
        raise ParseError("field line needs Q or F <prime>", lineno, 1)
    name, ln, col = tokens[0]
    if name == "Q":
        if len(tokens) > 1:
            raise ParseError("trailing tokens after field Q", tokens[1][1], tokens[1][2])
        return QQ
    if name == "F":
        if len(tokens) != 2 or not tokens[1][0].isdigit():
            raise ParseError("field F needs a prime modulus", ln, col)
        try:
            return PrimeField(int(tokens[1][0]))
        except ValidationError as exc:
            raise ParseError(str(exc), tokens[1][1], tokens[1][2]) from None
    raise ParseError(f"unknown field {name!r}", ln, col)


def _parse_arrow(tokens, lineno):
    texts = [t[0] for t in tokens]
    if len(texts) != 5 or texts[1] != ":" or texts[3] != "->":
        raise ParseError("arrow syntax is: arrow <id> : <vertex> -> <vertex>",
                         lineno, tokens[0][2] if tokens else 1)
    name, source, target = texts[0], texts[2], texts[4]
    for value, token in ((name, tokens[0]), (source, tokens[2]), (target, tokens[4])):
        if not _is_identifier(value):
            raise ParseError(f"bad identifier {value!r}", token[1], token[2])
    return (name, source, target)


def _parse_relation(rel, quiver, field):
    tokens = rel.tokens
    if not tokens:
        raise ParseError("empty relation", rel.lineno, 1)
    terms = []
    position = 0

    def peek():
        return tokens[position][0] if position < len(tokens) else None

    sign = field.one
    if peek() == "-":
        sign = -field.one
        position += 1
    while True:
        term, position = _parse_term(tokens, position, quiver, field, rel.lineno)
        coeff, path = term
        terms.append((path, sign * coeff))
        if position >= len(tokens):
            break
        op, ln, col = tokens[position]
        if op == "+":
            sign = field.one
        elif op == "-":
            sign = -field.one
        else:
            raise ParseError(f"expected + or - between terms, got {op!r}", ln, col)
        position += 1
        if position >= len(tokens):
            raise ParseError("relation ends with a dangling sign", ln, col)
    try:
        expr = PathExpr(terms)
        if expr.is_zero:
            raise ValidationError("relation cancels to zero")
    except ValidationError as exc:
        raise ParseError(str(exc), rel.lineno, 1) from None
    return expr


def _looks_numeric(text):
    return text.isdigit()


def _parse_term(tokens, position, quiver, field, lineno):
    if position >= len(tokens):
        raise ParseError("expected a term", lineno, 1)
    coeff = field.one
    text, ln, col = tokens[position]
    # A leading number is a coefficient when an arrow (or a /den part)
    # follows; otherwise it is read as an arrow name.
    if _looks_numeric(text) and position + 1 < len(tokens):
        nxt = tokens[position + 1][0]
        if nxt == "/":
            if position + 2 >= len(tokens) or not _looks_numeric(tokens[position + 2][0]):
                raise ParseError("bad rational literal", ln, col)
            den = tokens[position + 2][0]
            if int(den) == 0:
                raise ParseError("zero denominator", tokens[position + 2][1],
                                 tokens[position + 2][2])
            coeff = field.scalar(int(text), int(den))
            position += 3
        elif nxt not in ("*", "+", "-", ";"):
            coeff = field.scalar(int(text))
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
        if not _is_identifier(text):
            raise ParseError(f"expected an arrow name, got {text!r}", ln, col)
        if text not in quiver.arrow_by_name:
            raise ParseError(f"unknown arrow {text!r}", ln, col)
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
    """Normalized text form; parse(format(doc)) reproduces doc."""
    lines = []
    if isinstance(doc.field, PrimeField):
        lines.append(f"field F {doc.field.p}")
    else:
        lines.append("field Q")
    if doc.quiver.vertices:
        lines.append("vertex " + " ".join(doc.quiver.vertices))
    for a in doc.quiver.arrows:
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}")
    for g in doc.ideal.generators:
        lines.append("relation " + _format_expr(g, doc.field) + " ;")
    return "\n".join(lines) + "\n"


def _format_expr(expr, field):
    parts = []
    for i, (path, coeff) in enumerate(expr.terms.items()):
        coeff = field.coerce(coeff)
        negative = _is_negative(coeff, field)
        magnitude = -coeff if negative else coeff
        word = "*".join(path.arrows)
        body = word if magnitude == field.one else f"{field.format(magnitude)} {word}"
        if i == 0:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def _is_negative(coeff, field):
    # prime field residues print as nonnegative integers
    return isinstance(field, RationalField) and coeff < 0
