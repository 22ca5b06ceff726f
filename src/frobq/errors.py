"""Exception hierarchy shared across the package.

The CLI maps these onto its exit codes, so new error conditions should
reuse one of the classes below instead of raising bare ValueErrors.
"""


class FrobqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FrobqError):
    """Lexical or syntax error in a quiver document, with location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column or 1}: {message}"
        super().__init__(message)


class ValidationError(FrobqError):
    """Semantic error: malformed quiver, ideal, or coproduct data.

    at names the item a Quiver check found at fault, so that a parser can
    point at its token: ("vertex", i) is the i-th vertex, a duplicate, and
    ("arrow", i, k) the name (k = 0, a duplicate), source (1) or target
    (2, an unknown vertex) of the i-th arrow.  None elsewhere.
    """

    def __init__(self, message, at=None):
        super().__init__(message)
        self.at = at


class UnsupportedIdealRegimeError(FrobqError):
    """The engine cannot certify a finite quotient for this ideal.

    Raised for cyclic quivers whose monomial generators alone do not cut
    every cycle; the non-monomial part might still make the quotient
    finite, but this engine does not attempt to prove that.
    """


class InfiniteDimensionalError(FrobqError):
    """The quotient is provably infinite dimensional.

    Only raised for purely monomial ideals, where surviving paths form a
    basis of the quotient and a reachable cycle of walks that avoid the
    generators pumps arbitrarily long survivors.
    """


class SupportViolationError(ValidationError):
    """A coproduct candidate has a term outside its forced support block."""


class InternalFaultError(FrobqError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def shorten(text, show=str):
    """text as an error message echoes it: show(text), or for more than 20
    characters show() of its first 20 followed by its length.  Text with a
    character that is not printable, a line break say, is shown by repr,
    which escapes it, so the message stays one line; so is empty text and
    text with leading or trailing whitespace, so the reader sees where it
    ends.  Any other value (a JSON list or object, say) is echoed as
    show(value), cut the same way after 60 characters."""
    limit = 20
    if not isinstance(text, str):
        text, show, limit = show(text), str, 60
    elif not text.isprintable() or not text or text != text.strip():
        show = repr
    return show(text) if len(text) <= limit else f"{show(text[:limit])}... ({len(text)} characters)"
