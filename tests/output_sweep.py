"""CLI output sweep: the sha256 of every frobq output on the benchmark documents.

Run from a checkout:

    python tests/output_sweep.py OUT.tsv [--seeds 1 2 3]

It imports frobq from this checkout's src/ and builds the documents with
perfbench/workloads.py: the seed 1-3 documents of elim, verify and
corpus, each with its warm-up document.  On each document, over the
document's field, with --field F5 and with --field F7, it runs in process:

* basis, dim and space, as text and with --json;
* classify and patterns;
* verify of the sum of space's candidates, of that sum plus e_v (x) e_v
  at the document's outside vertex, and of each of the first three
  candidates alone.

Each document also gets MALFORMED (8) broken variants, drawn by a
random.Random seeded with its file name.  A variant replaces one
whitespace-separated word by an unknown arrow (zz), the first arrow's
name (a term of length 1, or a duplicate arrow), "*", ";", an
Arabic-Indic three or the first vertex's name (a duplicate vertex), or
it duplicates or deletes one line.  Each variant runs dim over the
document's own field, so a changed parse error shows too.

It also runs gen (document "gen", field "doc"): each family at the
parameters of GEN_PARAMS, which README and tests/test_cli.py use, gen rsz
on one vertex with LOOPS loops, and gen random at seeds 0-39 in each
regime for every vertex bound 6-8 and arrow bound 9-14, the corpus
bounds.

Then come the LOOP_DOCUMENTS, which hold loops, as no benchmark
document does, and the RREF_DOCUMENTS, which pin two cases of rref: a
2 x 2 grid whose square says h0*v1 = 2 v0*h1, so its constraint system
has a live union-find component with ratios other than 1, and a*x - a*y
on parallel arrows x and y, whose system holds a row of three entries
and so is eliminated.  Each runs every command a
benchmark document runs, its MALFORMED variants included, with
e_1 (x) e_1 as the added term.

Last, every document above runs dim on an indented copy of each of its
MALFORMED variants: each line starts with a tab and a space, and "#c"
is glued to its last token, so a parse error's column counts past
whitespace and comments.

Each output is one line of OUT.tsv: document, field, command, exit code,
and the sha256 of stdout and of stderr.  Two checkouts give the same
file exactly when their outputs are byte-identical, so compare the files
with diff or cmp.  Files are named relative to a scratch directory, so no
output holds a temporary path.  pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)
from frobq import cli  # noqa: E402

FIELDS = (None, "F5", "F7")    # None: the document's own field
CANDIDATES_ALONE = 3
MALFORMED = 8


def repeated(item, count):
    """count copies of item, comma separated."""
    return ",".join([item] * count)


ONES = repeated("1", 1000)
GEN_PARAMS = [
    "linear 3", "linear 4", "linear 12", "linear 5 --relation 2,2",
    "linear 4 --relation 1,3", "linear 6 --relation 2,2",
    "cycle 3 2", "cycle 5 4", "cycle 12 9",
    "canonical 2,3,5 --lambdas 1", "canonical 2,2,2 --lambdas 1",
    "toupie 3,2 --monomial 1,1,2 --linear 1,-1", "toupie 2,2 --linear 1,-1",
    "toupie 3,3 --linear 2,-3",
    "random 42 5 7 rsz", "random 42 5 7 string-quadratic", "random 42 5 7 acyclic-monomial",
    "random 3 1000 1000 rsz", "random 3 1000 1000 string-quadratic",
    "random 3 1000 1000 acyclic-monomial",
    # At and just above families.MAX_SIZE.
    "linear 1000", "linear 1001", "cycle 1000 2", "cycle 1001 2", "cycle 3 1000",
    "cycle 3 1001", "toupie 2,1000", "toupie 2,1001", f"toupie {ONES}", f"toupie {ONES},1",
    "canonical 1000,1", "canonical 2,2,1001 --lambdas 1",
    f"canonical {ONES} --lambdas {','.join(map(str, range(1, 999)))}",
    f"canonical {ONES},1 --lambdas {','.join(map(str, range(1, 1000)))}",
    # At or just below families.MAX_NAMES arrow names, and just above it.
    "cycle 1000 99", "cycle 1000 100",
    "linear 1000" + " --relation 1,999" * 99, "linear 1000" + " --relation 1,999" * 100,
    f"toupie {repeated('1000', 100)}", f"toupie {repeated('1000', 100)},1",
    f"canonical {repeated('1000', 26)} --lambdas {','.join(map(str, range(1, 25)))}",
    f"canonical {repeated('1000', 27)} --lambdas {','.join(map(str, range(1, 26)))}",
    # The benchmark's elim instance, with a rational lambda.
    "canonical 9,10,11,12 --lambdas 2,1/3",
]
# One vertex with k loops gives k + 2 * k^2 arrow names: 99,681 and 100,576.
LOOPS = (223, 224)
# k[x]/(x^3); two loops with every length-2 word zero; a 2-cycle with a loop.
LOOP_DOCUMENTS = {
    "loop-x3": "field Q\nvertex 1\narrow x : 1 -> 1\nrelation x*x*x ;\n",
    "loop-two-rsz": ("field Q\nvertex 1\narrow x : 1 -> 1\narrow y : 1 -> 1\n"
                     "relation x*x ;\nrelation x*y ;\nrelation y*x ;\nrelation y*y ;\n"),
    "loop-2-cycle": ("field Q\nvertex 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n"
                     "arrow l : 1 -> 1\nrelation l*l ;\nrelation a*b ;\nrelation b*l*a ;\n"),
}
RREF_DOCUMENTS = {
    "grid-2x2-ratio-2": ("field Q\nvertex 1 2 3 4\narrow h0 : 1 -> 2\narrow h1 : 3 -> 4\n"
                         "arrow v0 : 1 -> 3\narrow v1 : 2 -> 4\nrelation h0*v1 - 2 v0*h1 ;\n"),
    "parallel-ax-ay": ("field Q\nvertex 1 2 3\narrow a : 1 -> 2\narrow x : 2 -> 3\n"
                       "arrow y : 2 -> 3\nrelation a*x - a*y ;\n"),
}


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "raised"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_document(name, inst, field):
    """(command, (exit code, stdout, stderr)) of every command on one
    document over one field."""
    flag = ["--field", field] if field else []
    as_json = {}
    for command in ("basis", "dim", "space"):
        yield command, run([command, name, *flag])
        as_json[command] = run([command, name, "--json", *flag])
        yield command + " --json", as_json[command]
    for command in ("classify", "patterns"):
        yield command, run([command, name, *flag])
    code, out, _ = as_json["space"]
    if code != 0:
        return
    candidates = json.loads(out)["candidates"]
    prime = int(field[1:]) if field else inst.prime
    coproducts = [("verify sum", workloads.combine(candidates, prime)),
                  ("verify sum+e_v(x)e_v",
                   workloads.combine(candidates, prime, inst.outside_vertex))]
    coproducts += [(f"verify candidate {i}", {"schema": "frobq/1", "coproduct": c})
                   for i, c in enumerate(candidates[:CANDIDATES_ALONE])]
    for label, payload in coproducts:
        with open("coproduct.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        yield label, run(["verify", name, "--coproduct", "coproduct.json", *flag])


def sweep_gen():
    """(command, (exit code, stdout, stderr)) of every gen call; gen rsz
    reads the document that gen linear 4 writes."""
    for params in GEN_PARAMS:
        yield "gen " + gen_label(params), run(["gen", *params.split()])
    run(["gen", "linear", "4", "-o", "linear-4.fq"])
    yield "gen rsz <gen linear 4>", run(["gen", "rsz", "linear-4.fq"])
    for loops in LOOPS:
        with open("loops.fq", "w", encoding="utf-8") as handle:
            handle.write("field Q\nvertex 1\n"
                         + "".join(f"arrow l{i} : 1 -> 1\n" for i in range(loops)))
        yield f"gen rsz <{loops} loops>", run(["gen", "rsz", "loops.fq"])
    for regime in ("acyclic-monomial", "rsz", "string-quadratic"):
        for vertices in range(6, 9):
            for arrows in range(9, 15):
                for seed in range(40):
                    params = ["random", str(seed), str(vertices), str(arrows), regime]
                    yield "gen " + " ".join(params), run(["gen", *params])


def gen_label(params):
    """params with each list of more than 20 characters cut to its length."""
    return " ".join(w if len(w) <= 20 else f"<{len(w)} characters>" for w in params.split())


def malformed(name, text):
    """(label, text) of MALFORMED broken variants of the document."""
    rng = random.Random(name)
    lines = text.splitlines()
    first = {words[0]: words[1] for line in reversed(lines) if (words := line.split())}
    replacements = ("zz", first["arrow"], "*", ";", "\u0663", first["vertex"])
    for _ in range(MALFORMED):
        i = rng.randrange(len(lines))
        edit = rng.choice(("replace", "duplicate", "delete"))
        changed = lines[:]
        if edit == "replace":
            words = list(re.finditer(r"\S+", lines[i]))
            k = rng.randrange(len(words))
            new = rng.choice(replacements)
            changed[i] = lines[i][:words[k].start()] + new + lines[i][words[k].end():]
            label = f"line {i + 1} word {k + 1} replaced by {new!r}"
        elif edit == "duplicate":
            changed.insert(i, lines[i])
            label = f"line {i + 1} duplicated"
        else:
            del changed[i]
            label = f"line {i + 1} deleted"
        yield label, "".join(line + "\n" for line in changed)


def indented(text):
    """text with each line led by a tab and a space and its last token followed by "#c"."""
    return "".join(f"\t {line}#c\n" for line in text.splitlines())


def sweep_indented(name, text):
    """(label, (exit code, stdout, stderr)) of dim on the indented copy of
    each broken variant."""
    for n, (label, broken) in enumerate(malformed(name, text)):
        with open("malformed.fq", "w", encoding="utf-8") as handle:
            handle.write(indented(broken))
        yield f"dim, indented variant {n}: {label}", run(["dim", "malformed.fq"])


def sweep_file(name, inst):
    """(field, label, (exit code, stdout, stderr)) of every command on one
    document: each field's commands, then dim of each broken variant."""
    with open(name, "w", encoding="utf-8") as handle:
        handle.write(inst.text)
    for field in FIELDS:
        for label, result in sweep_document(name, inst, field):
            yield field or "doc", label, result
    for n, (label, text) in enumerate(malformed(name, inst.text)):
        with open("malformed.fq", "w", encoding="utf-8") as handle:
            handle.write(text)
        yield "doc", f"dim, variant {n}: {label}", run(["dim", "malformed.fq"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", help="file to write the output hashes to")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    output = Path(args.output).resolve()
    home = os.getcwd()
    count = 0
    documents = []      # (file name, text) of each document, for the indented variants
    with tempfile.TemporaryDirectory() as scratch, \
            open(output, "w", encoding="utf-8") as lines:
        os.chdir(scratch)
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                instances, warm = workloads.build(workload, seed)
                for inst in instances + [warm]:
                    name = f"{workload}-{seed}-{inst.id}.fq"
                    documents.append((name, inst.text))
                    for field, label, (code, out, err) in sweep_file(name, inst):
                        lines.write(f"{name}\t{field}\t{label}\t{code}\t"
                                    f"{sha(out)}\t{sha(err)}\n")
                        count += 1
        for label, (code, out, err) in sweep_gen():
            lines.write(f"gen\tdoc\t{label}\t{code}\t{sha(out)}\t{sha(err)}\n")
            count += 1
        for doc_id, text in {**LOOP_DOCUMENTS, **RREF_DOCUMENTS}.items():
            inst = workloads.Instance(doc_id, text, None, None, "1")
            documents.append((f"{doc_id}.fq", text))
            for field, label, (code, out, err) in sweep_file(f"{doc_id}.fq", inst):
                lines.write(f"{doc_id}.fq\t{field}\t{label}\t{code}\t"
                            f"{sha(out)}\t{sha(err)}\n")
                count += 1
        for name, text in documents:
            for label, (code, out, err) in sweep_indented(name, text):
                lines.write(f"{name}\tdoc\t{label}\t{code}\t{sha(out)}\t{sha(err)}\n")
                count += 1
        os.chdir(home)
    print(f"{count} outputs written to {output}")


if __name__ == "__main__":
    main()
