"""The CLI's error contract, checked on mutated documents and coproduct files.

Whatever the input, `frobq` exits with a code README documents (0-5), and
codes 1, 2, 3 and 5 come with exactly one stderr line of under 200 bytes.
No traceback reaches either stream, and no exception escapes `main`.
"""

import contextlib
import copy
import functools
import io
import json
import re

from hypothesis import given, settings, strategies as st

import frobq
from frobq.cli import main

DOCUMENTS = [
    """field Q
vertex 0 x y w
arrow a1 : 0 -> x
arrow a2 : x -> w
arrow b1 : 0 -> y
arrow b2 : y -> w
relation a1*a2 - b1*b2 ;
""",
    """field F 5
vertex 1 2 3
arrow a : 1 -> 2
arrow b : 2 -> 3
arrow c : 3 -> 1
relation 3/2 a*b*c + a*b*c*a*b*c ;
relation b*c*a ;
relation c*a*b ;
""",
    """vertex p
arrow x : p -> p
arrow y : p -> p
relation x*x ;
relation y*y ;
relation x*y - 2 y*x ;
""",
]
DEEP = "@deep@"  # stands for a nested JSON list; json.dumps cannot write a deep one

# Texts a mutation puts in place of a document token or a JSON value.
NAMES = ["v" * 5000, "ä", "名前", "😀" * 30, "a\nb", "x y", "\x85", "\x00", " ", "",
         "e_0", "0", "a1*a2"]
NUMBERS = ["9" * 5000, "9" * 4300, "1/" + "9" * 5000, "²", "٣", "0x10", "1e5", "1.5", "1/0",
           "-", "--1", "1_0", "5/10", "-3/4"]
JSON_VALUES = [1.5, True, False, None, 5, -1, 10 ** 30, "a", [], {}, [[]], {"e": 0},
               {"e": "0", "f": 1}, ["a1", 1], DEEP]

COMMANDS = [["dim"], ["dim", "--json"], ["basis", "--json"], ["space"], ["space", "--json"],
            ["classify"], ["patterns"], ["verify", "--coproduct", "{coproduct}"]]
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5}


@functools.cache
def _coproduct():
    """A verified coproduct of the first document, as frobq/1 JSON.  Solved
    on first use, not at import, so a solver fault fails the test that
    draws it rather than the collection of this module."""
    doc = frobq.parse_document(DOCUMENTS[0])
    algebra = frobq.compute_basis(doc.quiver, doc.ideal, doc.field)
    candidate = frobq.solve_frobenius_space(algebra)[0]
    return {"schema": "frobq/1", "coproduct": frobq.candidate_to_json(candidate)}


@st.composite
def mutated_document(draw):
    text = draw(st.sampled_from(DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True)
        spans = [m.span() for m in re.finditer(r"[^\s*+;:]+", text)]
        kind = draw(st.sampled_from(["token", "token", "truncate", "duplicate", "delete"]))
        if kind == "token" and spans:
            start, end = draw(st.sampled_from(spans))
            new = draw(st.sampled_from(NAMES + NUMBERS) | st.text(max_size=6))
            text = text[:start] + new + text[end:]
        elif kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif kind in ("duplicate", "delete") and lines:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [lines[i]] * (2 if kind == "duplicate" else 0)
            text = "".join(lines)
    return text


def _slots(value, trail=()):
    """The key path of every value inside a JSON value, the root's being ()."""
    yield trail
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield from _slots(child, trail + (key,))


@st.composite
def mutated_coproduct(draw):
    data = json.loads(json.dumps(_coproduct()))
    for _ in range(draw(st.integers(1, 3))):
        slots = [trail for trail in _slots(data) if trail]
        if not slots:
            break
        kind = draw(st.sampled_from(["set", "set", "duplicate", "delete"]))
        trail = draw(st.sampled_from(slots))
        parent = data
        for key in trail[:-1]:
            parent = parent[key]
        key = trail[-1]
        if kind == "set":
            parent[key] = copy.deepcopy(draw(st.sampled_from(JSON_VALUES + NAMES + NUMBERS)))
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, parent[key])
    text = json.dumps(data)
    depth = draw(st.sampled_from([2, 500, 980, 1000, 100000]))
    text = text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(
    st.tuples(mutated_document(), st.builds(lambda: json.dumps(_coproduct())), st.sampled_from(COMMANDS)),
    st.tuples(st.sampled_from(DOCUMENTS[:1]), mutated_coproduct(), st.just(COMMANDS[-1])),
))
def test_every_input_ends_in_a_documented_exit(tmp_path_factory, case):
    document, coproduct, command = case
    directory = tmp_path_factory.getbasetemp()
    doc_file, coproduct_file = directory / "fuzz.qv", directory / "fuzz.json"
    doc_file.write_text(document, encoding="utf-8")
    coproduct_file.write_text(coproduct, encoding="utf-8")
    subcommand, *options = command
    options = [str(coproduct_file) if o == "{coproduct}" else o for o in options]
    code, out, err = _call([subcommand, str(doc_file), *options])
    assert code in DOCUMENTED_EXIT_CODES
    assert "Traceback" not in out and "Traceback" not in err
    if code in (1, 2, 3, 5):
        assert err.endswith("\n") and len(err.splitlines()) == 1, err
        assert len(err.encode()) < 200, err
