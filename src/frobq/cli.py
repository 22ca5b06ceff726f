"""Command line driver.

Subcommands: basis, dim, space, verify, classify, patterns, gen.
Exit codes: 0 ok, 1 parse error or other bad input or usage, 2 unsupported
ideal regime, 3 infinite dimensional certificate failure, 4 verification
failure, 5 internal consistency fault.  Text mode prints bare values for
scripting; --json emits versioned frobq/1 documents with scalars as exact
strings.  main can be called repeatedly in one process: it builds its
parser once and looks up the cmd_<command> function on every call.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .dsl import QuiverDocument, format_document, parse_document
from .errors import (
    FrobqError,
    InfiniteDimensionalError,
    InternalFaultError,
    ParseError,
    SupportViolationError,
    UnsupportedIdealRegimeError,
    ValidationError,
    shorten,
)
from .frobenius import (
    candidate_from_json,
    candidate_to_json,
    frobenius_dimension,
    path_to_json,
    solve_frobenius_space,
    verify_coproduct,
)
from .ideal import compute_basis
from .linalg import DECIMAL, QQ, PrimeField

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_REGIME = 2
EXIT_INFINITE = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5

SCHEMA = "frobq/1"


def _field_from_flag(text):
    if text is None:
        return None
    if text == "Q":
        return QQ
    # _ints drops empty list items, so "F5," would read as F5.
    if text.startswith("F") and "," not in text:
        return PrimeField(_ints(text[1:], 1)[0])
    raise ValidationError(f"bad field {shorten(text, repr)}; use Q or F<prime>")


def _read(path):
    """The text of a file, which must be UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def _load(path, field_flag):
    return parse_document(_read(path), field_override=_field_from_flag(field_flag))


def _algebra(args):
    doc = _load(args.file, args.field)
    return compute_basis(doc.quiver, doc.ideal, doc.field)


def _dumps(value, pad="\n"):
    """The text json.dumps writes for value with an indent of 2, for str
    dict keys.

    An indent makes json fall back to its pure-Python encoder, so the two
    containers are written here and strings by the C string encoder;
    pad is a line break and the indent of value's own line.  Any other
    leaf (None, a bool, a float) is written the same with or without
    indent, so json.dumps writes it.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(key)}: {_dumps(item, inner)}"
                 for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        if all(isinstance(item, str) for item in value):  # an arrow word
            items = map(encode_basestring_ascii, value)
        else:
            items = [_dumps(item, inner) for item in value]
    else:
        return json.dumps(value)
    if not value:
        return brackets
    # One f-string copies the joined items once; a chain of + copies them
    # once per +, and the large copies raise the process's peak memory.
    return f"{brackets[0]}{inner}{sep.join(items)}{pad}{brackets[1]}"


def _emit(text, out=None):
    stream = sys.stdout if out is None else open(out, "w", encoding="utf-8")
    try:
        stream.write(text)
    finally:
        if out is not None:
            stream.close()


def cmd_basis(args):
    algebra = _algebra(args)
    blocks = [(key, paths) for key, paths in sorted(algebra.blocks.items()) if paths]
    if args.json:
        payload = {
            "schema": SCHEMA,
            "dimension": algebra.dimension,
            "bound": algebra.bound,
            "blocks": [{"source": source, "target": target,
                        "paths": [path_to_json(p) for p in paths]}
                       for (source, target), paths in blocks],
        }
        _emit(_dumps(payload) + "\n")
    else:
        lines = [f"dimension {algebra.dimension}", f"bound {algebra.bound}"]
        for (source, target), paths in blocks:
            lines.append(f"block {source} -> {target}: {' '.join(str(p) for p in paths)}")
        _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_dim(args):
    algebra = _algebra(args)
    dimension = frobenius_dimension(algebra)
    if args.json:
        payload = {"schema": SCHEMA, "frobenius_dimension": dimension}
        _emit(_dumps(payload) + "\n")
    else:
        _emit(f"{dimension}\n")
    return EXIT_OK


def cmd_space(args):
    algebra = _algebra(args)
    space = solve_frobenius_space(algebra)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "dimension": len(space),
            "candidates": [candidate_to_json(c) for c in space],
        }
        _emit(_dumps(payload) + "\n")
    else:
        lines = [f"dimension {len(space)}"]
        for i, candidate in enumerate(space):
            lines.append(f"candidate {i}:")
            for vertex in algebra.quiver.vertices:
                tensor = candidate.values.get(vertex)
                if tensor is None or tensor.is_zero:
                    continue
                lines.append(f"  D(e_{vertex}) = {tensor}")
        _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args):
    algebra = _algebra(args)
    try:
        data = json.loads(_read(args.coproduct))
    except RecursionError:
        raise ValidationError(f"{args.coproduct}: JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() refuses a JSON number this long
        raise ValidationError(f"{args.coproduct}: JSON number longer than "
                              f"{sys.get_int_max_str_digits()} digits") from None
    try:
        candidate = candidate_from_json(data, algebra)
        ok, counterexample = verify_coproduct(algebra, candidate)
    except SupportViolationError as exc:
        _emit(f"SUPPORT VIOLATION: {exc}\n")
        return EXIT_VERIFY
    if ok:
        _emit("VERIFIED\n")
        return EXIT_OK
    _emit("FAILED: " + counterexample.describe() + "\n")
    return EXIT_VERIFY


def cmd_classify(args):
    from . import closed_forms  # as in cmd_gen: only classify and patterns compile it

    algebra = _algebra(args)
    dimension = frobenius_dimension(algebra)
    lines = [f"algebra dimension {algebra.dimension}",
             f"coproduct space dimension {dimension}"]

    rsz = closed_forms.is_radical_square_zero(algebra)
    lines.append(f"radical square zero: {'yes' if rsz else 'no'}")
    if rsz and algebra.quiver.arrows:
        formula = closed_forms.radical_square_zero_dimension(algebra.quiver)
        agree = "agrees with solver" if formula == dimension else "DISAGREES with solver"
        lines.append(f"  quotient formula dimension: {formula} ({agree})")

    try:
        info = closed_forms.toupie_classify(algebra.quiver, algebra.ideal, algebra.field)
    except ValidationError:
        lines.append("toupie: no")
    else:
        lines.append(f"toupie: yes, kind {info.kind}")
        lines.append(f"  branch lengths: {list(info.branch_lengths)}")
        lines.append(f"  monomial relation branches: {info.monomial_relation_branch_count}")
        lines.append(f"  predicted dimension {info.prediction}: "
                     + ("holds" if info.prediction_holds(dimension) else "VIOLATED"))

    string = closed_forms.is_string(algebra)
    if string:
        quadratic = closed_forms.is_string_quadratic(algebra)
        gentle = closed_forms.is_gentle(algebra)
        kind = "gentle" if gentle else ("quadratic" if quadratic else "general")
        lines.append(f"string: yes ({kind})")
    else:
        lines.append("string: no")

    matches = closed_forms.detect_local_patterns(algebra)
    if matches:
        summary = ", ".join(f"pattern {m.pattern} at {m.vertex}" for m in matches)
        lines.append(f"local patterns: {summary}")
        lines.append("  witness exists, so the space is nontrivial")
    else:
        lines.append("local patterns: none")
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_patterns(args):
    from . import closed_forms

    algebra = _algebra(args)
    matches = closed_forms.detect_local_patterns(algebra)
    if not matches:
        _emit("no local patterns\n")
        return EXIT_OK
    lines = []
    for m in matches:
        lines.append(f"pattern {m.pattern} at vertex {m.vertex}: "
                     f"in {list(m.in_arrows)}, out {list(m.out_arrows)}, "
                     f"vanishing {[str(p) for p in m.vanishing]}")
        witness = closed_forms.witness_coproduct(m, algebra)
        tensor = witness.value_at(m.vertex)
        lines.append(f"  witness D(e_{m.vertex}) = {tensor} (verified)")
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def _ints(text, count=None):
    """Comma separated DECIMAL integers; exactly count of them when count is given."""
    parts = [part for part in text.split(",") if part]
    try:
        if not all(map(DECIMAL.fullmatch, parts)):
            raise ValueError
        values = list(map(int, parts))
    except ValueError:
        raise ValidationError(
            f"expected comma separated integers, got {shorten(text, repr)}") from None
    if count is not None and len(values) != count:
        raise ValidationError(f"expected {count} comma separated integer"
                              f"{'' if count == 1 else 's'}, got {shorten(text, repr)}")
    return values


def _gen_params(args, count, usage):
    if len(args.params) != count:
        raise ValidationError(f"gen {args.family} needs {usage}")
    return args.params


def cmd_gen(args):
    from . import families  # only gen needs it; other commands skip compiling it

    family = args.family
    if family == "linear":
        n = _ints(_gen_params(args, 1, "<n>")[0], 1)[0]
        rels = [tuple(_ints(p, 2)) for p in args.relation]
        quiver, ideal = families.gen_linear(n, rels)
    elif family == "cycle":
        n, d = (_ints(p, 1)[0] for p in _gen_params(args, 2, "<n> <d>"))
        quiver, ideal = families.gen_cycle(n, d)
    elif family == "canonical":
        weights = tuple(_ints(_gen_params(args, 1, "<n1,n2,...>")[0]))
        lambdas = tuple(_ints(args.lambdas)) if args.lambdas else ()
        quiver, ideal = families.gen_canonical(
            families.CanonicalSpec(weights, lambdas))
    elif family == "toupie":
        lengths = tuple(_ints(_gen_params(args, 1, "<l1,l2,...>")[0]))
        monomial = [tuple(_ints(p, 3)) for p in args.monomial]
        linear = [_ints(p) for p in args.linear]
        quiver, ideal = families.gen_toupie(lengths, monomial, linear)
    elif family == "rsz":
        doc = _load(_gen_params(args, 1, "<quiver document>")[0], None)
        quiver, ideal = families.gen_radical_square_zero(doc.quiver)
    elif family == "random":
        *numbers, regime = _gen_params(
            args, 4, "<seed> <vertex bound> <arrow bound> <regime>")
        seed, vbound, abound = (_ints(p, 1)[0] for p in numbers)
        quiver, ideal = families.gen_random(seed, vbound, abound, regime)
    else:
        raise ValidationError(f"unknown family {shorten(family, repr)}; choose from "
                              "linear, cycle, canonical, toupie, rsz, random")
    doc = QuiverDocument(quiver, ideal, QQ)
    _emit(format_document(doc), args.output)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValidationError, so they exit 1 with one line, in
    which each argument, or value after "=", that is echoed and that
    shorten cuts or escapes goes through shorten.  Other text stays as it
    is, so an empty or blank argument does not rewrite the message; the
    unrecognized arguments, which parse_args has as a list, are each
    shown by shorten, so a blank one is quoted."""

    def parse_known_args(self, args=None, namespace=None):
        self.arguments = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            raise ValidationError(f"{self.prog}: unrecognized arguments: "
                                  + " ".join(map(shorten, extras)))
        return args

    def error(self, message):
        echoes = {text for arg in self.arguments for text in (arg, arg.partition("=")[2])}
        for text in sorted(echoes, key=len, reverse=True):
            if len(text) > 20 or not text.isprintable():
                message = message.replace(repr(text), shorten(text, repr))
                message = message.replace(text, shorten(text))
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    parser = _Parser(
        prog="frobq",
        description="Exact computation of nearly Frobenius coproduct spaces "
                    "on quotients of path algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p):
        p.add_argument("file", help="quiver document")
        p.add_argument("--field", help="override the document field (Q or F<prime>)")
        return p

    p = with_file(sub.add_parser("basis", help="quotient algebra basis per block"))
    p.add_argument("--json", action="store_true")

    p = with_file(sub.add_parser("dim", help="dimension of the coproduct space"))
    p.add_argument("--json", action="store_true")

    p = with_file(sub.add_parser("space", help="basis of the coproduct space"))
    p.add_argument("--json", action="store_true")

    p = with_file(sub.add_parser("verify", help="check a coproduct candidate file"))
    p.add_argument("--coproduct", required=True, help="candidate JSON file")

    with_file(sub.add_parser("classify", help="family classification and "
                                              "predicted dimensions"))
    with_file(sub.add_parser("patterns", help="local patterns with witnesses"))

    p = sub.add_parser("gen", help="emit a family instance as a document")
    p.add_argument("family", help="linear | cycle | canonical | toupie | rsz | random")
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--relation", action="append", default=[],
                   help="linear family: start,length")
    p.add_argument("--lambdas", help="canonical family: comma separated scalars")
    p.add_argument("--monomial", action="append", default=[],
                   help="toupie family: branch,start,length")
    p.add_argument("--linear", action="append", default=[],
                   help="toupie family: comma separated branch coefficients")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # Looked up per call, so a cmd_* swapped on the module after import runs.
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedIdealRegimeError as exc:
        print(f"unsupported ideal regime: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except InfiniteDimensionalError as exc:
        print(f"infinite dimensional: {exc}", file=sys.stderr)
        return EXIT_INFINITE
    except InternalFaultError as exc:
        print(f"internal consistency fault: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValidationError, FrobqError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
