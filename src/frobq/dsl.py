"""Line-oriented quiver document language.

    field Q | field F <prime>
    vertex <id> [<id> ...]
    arrow <id> : <vertex> -> <vertex>
    relation <term> { (+|-) <term> } ;     term := [<rational>] <arrow> { * <arrow> }

An identifier (a vertex or arrow name) is ASCII letters, digits, `_`
and `.`.  `#` starts a comment anywhere on a line, even right after a
token: `2#3` reads as `2`.  Rationals are written `num` or `num/den`.  Every
error carries the line and column it happened at, found only then, by
scanning the line again; one that no single token causes (a quiver that
is not connected) points at 1:1.  parse(format(doc)) reproduces the
document exactly for documents in normalized form.
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


class _Fault(Exception):
    """A parse error at token k of its line, or at column 1 when k is None."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


def _column(raw, k):
    """The column of the k-th token of line raw, cut as parse_document cuts it."""
    return list(_TOKEN.finditer(raw.partition("#")[0]))[k].start() + 1


def parse_document(text, field_override=None) -> QuiverDocument:
    field = None
    vertices, vertex_at = [], []    # (line index, token index) of each vertex
    arrows, arrow_at = [], []       # line index of each arrow
    relations = []
    lines = text.splitlines()
    try:
        for i, raw in enumerate(lines):
            # No token but a comment holds "#", so the comment is cut off first.
            tokens = _TOKEN.findall(raw.partition("#")[0])
            if not tokens:
                continue
            head = tokens[0]
            if head == "field":
                if field is not None:
                    raise _Fault("duplicate field line", 0)
                field = _parse_field(tokens)
            elif head == "vertex":
                if len(tokens) == 1:
                    raise _Fault("vertex line needs at least one identifier", 0)
                for k in range(1, len(tokens)):
                    if not _IDENTIFIER.fullmatch(tokens[k]):
                        raise _Fault(f"bad vertex identifier {tokens[k]!r}", k)
                    vertex_at.append((i, k))
                vertices += tokens[1:]
            elif head == "arrow":
                arrows.append(_parse_arrow(tokens))
                arrow_at.append(i)
            elif head == "relation":
                if tokens[-1] != ";":
                    raise _Fault("relation must end with ';'", len(tokens) - 1)
                relations.append((i, tokens[:-1]))
            else:
                raise _Fault(f"unknown statement {shorten(head, repr)}", 0)
        field = field_override or field or QQ

        try:
            quiver = Quiver(vertices, arrows)
        except ValidationError as exc:
            # The token at fault; a fault of the whole quiver (not connected,
            # no vertex) has none and points at 1:1.
            if exc.at is None:
                i, k = 0, None
            elif exc.at[0] == "vertex":
                i, k = vertex_at[exc.at[1]]
            else:
                i, k = arrow_at[exc.at[1]], 1 + 2 * exc.at[2]
            raise _Fault(str(exc), k) from None

        generators = []
        for i, tokens in relations:
            generators.append(_parse_relation(tokens, quiver, field))
    except _Fault as fault:
        column = 1 if fault.k is None else _column(lines[i], fault.k)
        raise ParseError(str(fault), i + 1, column) from None
    return QuiverDocument(quiver, IdealSpec(generators), field)


def _parse_field(tokens):
    if len(tokens) == 1:
        raise _Fault("field line needs Q or F <prime>")
    name = tokens[1]
    if name == "Q":
        if len(tokens) > 2:
            raise _Fault("trailing tokens after field Q", 2)
        return QQ
    if name == "F":
        if len(tokens) != 3 or not DECIMAL.fullmatch(tokens[2]):
            raise _Fault("field F needs a prime modulus", 1)
        try:
            return PrimeField(_integer(tokens, 2))
        except ValidationError as exc:
            raise _Fault(str(exc), 2) from None
    raise _Fault(f"unknown field {shorten(name, repr)}", 1)


def _parse_arrow(tokens):
    """The name, source and target of an arrow line."""
    if len(tokens) != 6 or tokens[2] != ":" or tokens[4] != "->":
        raise _Fault("arrow syntax is: arrow <id> : <vertex> -> <vertex>",
                     1 if len(tokens) > 1 else None)
    for k in (1, 3, 5):
        if not _IDENTIFIER.fullmatch(tokens[k]):
            raise _Fault(f"bad identifier {tokens[k]!r}", k)
    return tokens[1], tokens[3], tokens[5]


def _parse_relation(tokens, quiver, field):
    """The relation of a line's tokens, "relation" first and its ";" cut off."""
    if len(tokens) == 1:
        raise _Fault("empty relation")
    terms = {}
    negative = tokens[1] == "-"
    position = 1 + negative
    while True:
        (coeff, path), position = _parse_term(tokens, position, quiver, field)
        if negative:
            coeff = field.reduce(-coeff)
        # Repeated paths merge here, so that a sum that vanishes in the
        # field drops out of the relation.
        terms[path] = field.reduce(terms[path] + coeff) if path in terms else coeff
        if position >= len(tokens):
            break
        op = tokens[position]
        if op not in ("+", "-"):
            raise _Fault(f"expected + or - between terms, got {shorten(op, repr)}", position)
        negative = op == "-"
        position += 1
        if position >= len(tokens):
            raise _Fault("relation ends with a dangling sign", position - 1)
    try:
        expr = PathExpr(terms)
        if expr.is_zero:
            raise ValidationError("relation cancels to zero")
        for path in expr.terms:
            check_term_length(path)
    except ValidationError as exc:
        raise _Fault(str(exc)) from None
    return expr


def _integer(tokens, k):
    """The int token k spells; a fault at the token when int() refuses it."""
    try:
        return int(tokens[k])
    except ValueError:
        raise _Fault(f"integer literal {shorten(tokens[k])} is not a decimal integer of at "
                     f"most {sys.get_int_max_str_digits()} digits", k) from None


def _parse_term(tokens, position, quiver, field):
    if position >= len(tokens):
        raise _Fault("expected a term")
    coeff = field.one
    at = position
    # A leading number is a coefficient when an arrow (or a /den part)
    # follows; otherwise it is read as an arrow name.
    if DECIMAL.fullmatch(tokens[position]) and position + 1 < len(tokens):
        nxt = tokens[position + 1]
        if nxt == "/":
            if position + 2 >= len(tokens) or not DECIMAL.fullmatch(tokens[position + 2]):
                raise _Fault("bad rational literal", position)
            den = _integer(tokens, position + 2)
            if den == 0:
                raise _Fault("zero denominator", position + 2)
            try:
                coeff = field.scalar(_integer(tokens, position), den)
            except ValidationError as exc:
                raise _Fault(str(exc), position + 2) from None
            position += 3
        elif nxt not in ("*", "+", "-", ";"):
            coeff = field.scalar(_integer(tokens, position))
            position += 1
    arrow_names = []
    while position < len(tokens):
        at = position
        text = tokens[position]
        if text in ("+", "-"):
            break
        if text == "*":
            raise _Fault("unexpected '*'", at)
        if text not in quiver.arrow_by_name:
            if not _IDENTIFIER.fullmatch(text):
                raise _Fault(f"expected an arrow name, got {text!r}", at)
            raise _Fault(f"unknown arrow {shorten(text, repr)}", at)
        arrow_names.append(text)
        position += 1
        if position < len(tokens) and tokens[position] == "*":
            position += 1
            if position >= len(tokens) or tokens[position] in ("+", "-"):
                raise _Fault("dangling '*'", position - 1)
            continue
        break
    if not arrow_names:
        raise _Fault("term has no arrows", at)
    try:
        path = quiver.path(arrow_names)
    except ValidationError as exc:
        raise _Fault(str(exc), at) from None
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

