"""The three workloads: their inputs, the commands run on them, and the checks.

Every input is a pure function of the workload seed.  The seed relabels
vertices and arrows of each instance (dimensions do not depend on names,
but path order, and with it pivot order, does) and draws the corpus.

* ``elim``: ``frobq dim`` on three instances whose spaces are tiny, so
  row reduction is almost the whole run, over Q and over F_101.
* ``verify``: ``frobq space --json`` on two cycles whose spaces are large
  (n*d basis vectors, each re-verified on all pairs), then ``frobq verify``
  of the sum of the returned basis.
* ``corpus``: many small algebras, each through six commands, so fixed
  per-call costs (argument parsing, parsing, basis, closed forms, JSON)
  weigh as much as solving.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("elim", "verify", "corpus")
CORPUS_SIZE = 240
CORPUS_FAMILIES = ("rsz", "acyclic-monomial", "string-quadratic", "toupie", "linear")
OUTSIDE_EXIT = 4


@dataclass
class Instance:
    """One algebra as a quiver document, with what is known about its answer."""

    id: str
    text: str
    prime: Optional[int]      # None for Q
    expected: Optional[int]   # known coproduct space dimension, when there is one
    outside_vertex: str       # e_v (x) e_v at this vertex is never a coproduct
    path: str = ""            # set once the document is written


def build(workload, seed):
    """The workload's instances and the small warm-up instance, from the seed."""
    from frobq import families

    rng = random.Random(f"{workload}/{seed}")
    if workload == "elim":
        canonical = families.CanonicalSpec((9, 10, 11, 12), (2, Fraction(1, 3)))
        instances = [
            _instance("linear30-Q", families.gen_linear(30), rng, expected=1),
            _instance("linear24-F101", families.gen_linear(24), rng,
                      prime=101, expected=1),
            _instance("canonical-9-10-11-12-Q", families.gen_canonical(canonical), rng,
                      expected=0),
        ]
    elif workload == "verify":
        instances = [
            _instance("cycle-12-9-Q", families.gen_cycle(12, 9), rng, expected=108),
            _instance("cycle-9-7-F7", families.gen_cycle(9, 7), rng,
                      prime=7, expected=63),
        ]
    elif workload == "corpus":
        instances = [_corpus_instance(k, rng) for k in range(CORPUS_SIZE)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warm = _instance("warm-cycle-3-2-Q", families.gen_cycle(3, 2), rng, expected=6)
    return instances, warm


def _corpus_instance(k, rng):
    """The k-th corpus algebra.

    Sizes cycle through fixed values and only the structure is drawn, so
    every seed's corpus has the same mix of sizes and its tail percentile
    does not hinge on how many large instances one seed happens to draw.
    """
    from frobq import families
    from frobq.errors import ValidationError

    family = CORPUS_FAMILIES[k % len(CORPUS_FAMILIES)]
    j = k // len(CORPUS_FAMILIES)
    ident = f"{k:03d}-{family}"
    if family in families.REGIMES:
        built = families.gen_random(rng.randrange(10 ** 9), 6 + j % 3, 9 + j % 6, family)
        return _instance(ident, built, rng)
    if family == "linear":
        n = 4 + j % 6
        relations = set()
        for _ in range(j // 6 % 3):
            length = rng.randint(2, min(4, n - 1))
            relations.add((rng.randint(1, n - length), length))
        expected = None if relations else 1
        return _instance(ident, families.gen_linear(n, sorted(relations)), rng,
                         expected=expected)
    branches = 2 + j % 3
    while True:
        lengths = [rng.randint(2, 4) for _ in range(branches)]
        monomial = []
        if rng.random() < 0.5:
            branch = rng.randrange(branches)
            length = rng.randint(2, lengths[branch])
            start = rng.randint(1, lengths[branch] - length + 1)
            monomial.append((branch + 1, start, length))
        linear = []
        if rng.random() < 0.7:
            for _ in range(rng.randint(1, branches - 1)):
                linear.append([rng.choice((-2, -1, 1, 2, 3)) for _ in range(branches)])
        try:
            built = families.gen_toupie(lengths, monomial, linear)
        except ValidationError:
            continue
        return _instance(ident, built, rng)


def _instance(ident, built, rng, prime=None, expected=None):
    from frobq.dsl import QuiverDocument, format_document
    from frobq.linalg import QQ

    quiver, ideal = _relabel(*built, rng)
    text = format_document(QuiverDocument(quiver, ideal, QQ))
    if prime is not None:
        # format_document writes QQ coefficients; the field line alone
        # makes the document an F_p one, as a user would write it.
        text = text.replace("field Q\n", f"field F {prime}\n", 1)
    return Instance(ident, text, prime, expected, rng.choice(quiver.vertices))


def _relabel(quiver, ideal, rng):
    """The same bound quiver with vertex and arrow names permuted by rng."""
    from frobq.ideal import IdealSpec
    from frobq.quiver import PathExpr, Quiver

    vertex_names = [f"v{i}" for i in range(len(quiver.vertices))]
    arrow_names = [f"x{i}" for i in range(len(quiver.arrows))]
    rng.shuffle(vertex_names)
    rng.shuffle(arrow_names)
    vertex = dict(zip(quiver.vertices, vertex_names))
    arrow = {a.name: new for a, new in zip(quiver.arrows, arrow_names)}
    renamed = Quiver([vertex[v] for v in quiver.vertices],
                     [(arrow[a.name], vertex[a.source], vertex[a.target])
                      for a in quiver.arrows])
    generators = [
        PathExpr({renamed.path([arrow[n] for n in p.arrows]): c for p, c in g.terms.items()})
        for g in ideal.generators
    ]
    return renamed, IdealSpec(generators)


# ---------------------------------------------------------------------------
# Commands and checks.  ``call(argv)`` runs one CLI command and returns
# (exit code, stdout); ``check(ok, message)`` counts one attempted check.

def run_instance(workload, inst, call, check):
    """Run the workload's commands on one instance; returns space's candidates."""
    if workload == "elim":
        code, out = call(["dim", inst.path])
        check(code == 0 and out == f"{inst.expected}\n",
              f"{inst.id}: dim exited {code} printing {out!r}, expected {inst.expected}")
        return None
    if workload == "corpus":
        code, out = call(["basis", inst.path, "--json"])
        basis = _parsed(code, out)
        check(_holds(lambda: basis["dimension"]
                     == sum(len(b["paths"]) for b in basis["blocks"])),
              f"{inst.id}: basis exited {code} or lists a wrong number of paths")
    code, out = call(["space", inst.path, "--json"])
    space = _parsed(code, out)
    ok = _holds(lambda: space["schema"] == "frobq/1"
                and space["dimension"] == len(space["candidates"]))
    check(ok, f"{inst.id}: space exited {code} or its dimension and basis disagree")
    if not ok:
        return None
    dimension = space["dimension"]
    candidates = space["candidates"]
    if inst.expected is not None:
        check(dimension == inst.expected,
              f"{inst.id}: space dimension {dimension}, expected {inst.expected}")
    if workload == "corpus":
        _check_classify(inst, call(["classify", inst.path]), dimension, check)
        code, out = call(["patterns", inst.path])
        found = out != "no local patterns\n"
        check(code == 0 and (not found or (dimension >= 1 and "(verified)" in out)),
              f"{inst.id}: patterns exited {code} or found a witness for a zero space")
    try:
        inside = combine(candidates, inst.prime)
        outside = combine(candidates, inst.prime, inst.outside_vertex) \
            if workload == "corpus" else None
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError):
        check(False, f"{inst.id}: space returned malformed candidates")
        return None
    sum_file = inst.path + ".sum.json"
    _write_json(sum_file, inside)
    code, out = call(["verify", inst.path, "--coproduct", sum_file])
    check(code == 0 and out == "VERIFIED\n",
          f"{inst.id}: the sum of the returned basis failed verify ({code}): {out[:200]!r}")
    if outside is not None:
        outside_file = inst.path + ".outside.json"
        _write_json(outside_file, outside)
        code, out = call(["verify", inst.path, "--coproduct", outside_file])
        check(code == OUTSIDE_EXIT,
              f"{inst.id}: a candidate outside the space exited {code}, expected "
              f"{OUTSIDE_EXIT}")
    return candidates


def _check_classify(inst, result, dimension, check):
    code, out = result
    lines = out.splitlines()
    reported = [line.rsplit(" ", 1)[1] for line in lines
                if line.startswith("coproduct space dimension ")]
    check(code == 0 and reported == [str(dimension)],
          f"{inst.id}: classify exited {code} or its dimension {reported} is not {dimension}")
    check("DISAGREES" not in out and "VIOLATED" not in out,
          f"{inst.id}: a closed form disagrees with the solver: {out!r}")


def check_each_candidate(inst, candidates, call, check):
    """Every returned basis coproduct passes ``frobq verify`` on its own."""
    file = inst.path + ".one.json"
    for i, candidate in enumerate(candidates):
        _write_json(file, {"schema": "frobq/1", "coproduct": candidate})
        code, out = call(["verify", inst.path, "--coproduct", file])
        check(code == 0 and out == "VERIFIED\n",
              f"{inst.id}: basis candidate {i} failed verify ({code})")


def combine(candidates, prime, outside_vertex=None):
    """The exact sum of frobq/1 candidates, plus e_v (x) e_v at outside_vertex.

    e_v (x) e_v is never a coproduct on a connected quiver with an arrow
    at v, since (1 (x) a) or (a (x) 1) of it survives for that arrow a, so
    adding it to an element of the space leaves the space.
    """
    totals = {}
    for candidate in candidates:
        for entry in candidate:
            for term in entry["terms"]:
                _add(totals, entry["vertex"], term["left"], term["right"],
                     _scalar(term["coeff"], prime))
    if outside_vertex is not None:
        trivial = {"e": outside_vertex}
        _add(totals, outside_vertex, trivial, trivial, 1)
    by_vertex = {}
    for (vertex, left, right), value in totals.items():
        if value % prime if prime else value:
            by_vertex.setdefault(vertex, []).append({
                "left": json.loads(left), "right": json.loads(right),
                "coeff": _format(value, prime)})
    return {"schema": "frobq/1",
            "coproduct": [{"vertex": v, "terms": t} for v, t in by_vertex.items()]}


def _add(totals, vertex, left, right, value):
    key = (vertex, json.dumps(left), json.dumps(right))
    totals[key] = totals.get(key, 0) + value


def _scalar(text, prime):
    return int(text) % prime if prime else Fraction(text)


def _format(value, prime):
    if prime:
        return str(value % prime)
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else \
        f"{value.numerator}/{value.denominator}"


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _parsed(code, out):
    """The command's JSON output, or None when it failed or printed no JSON."""
    if code != 0:
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _holds(predicate):
    """A check on output that may be malformed: any lookup error means False."""
    try:
        return bool(predicate())
    except (KeyError, IndexError, TypeError, AttributeError):
        return False
