"""Mutation check: every listed mutant must make its test subset fail.

Run from a checkout:

    python tests/mutants.py

Each mutant replaces one exact text, which must occur exactly once in
its file, by a small wrong variant.  The script copies src/, tests/ and
pyproject.toml into a temporary directory, first runs the union of the
test subsets on the unmutated copy in one pytest call (all must pass,
so every subset passes), then applies each mutant in turn to the copy,
runs its subset with ``pytest -x`` and restores the file.  The checkout
is never written to.  A mutant is killed when its subset fails; it
survives when the subset passes.  The script prints one line per mutant
with the time it took, and exits 1 when a mutant survives, when its
anchor text does not occur exactly once, when pytest ends in anything
but pass or fail (a mutant that does not even import), or when a
subset, or the unmutated union, runs longer than SUBSET_TIMEOUT seconds
(a mutant that makes a test loop forever), which it reports as TIMEOUT.
Its first line gives the unmutated union's time, and its last line the
count of mutants killed and the whole run's time.

pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = "src/frobq/cli.py"
CLOSED_FORMS = "src/frobq/closed_forms.py"
DSL = "src/frobq/dsl.py"
FROBENIUS = "src/frobq/frobenius.py"
FAMILIES = "src/frobq/families.py"
IDEAL = "src/frobq/ideal.py"
LINALG = "src/frobq/linalg.py"
QUIVER = "src/frobq/quiver.py"
VERIFIER_TESTS = ("tests/test_verifier_reference.py", "tests/test_frobenius.py")
# The two tests that kill the no-copy _take mutant.  pytest -x runs them in
# this order and stops at the first failure, so the one that fails in about
# a second comes before the Hypothesis test, which shrinks for about 15 s.
TAKE_TESTS = ("tests/test_frobenius.py::test_coproduct_through_a_product_of_two_coordinates",
              "tests/test_frobenius.py::test_take_sums_moves_and_writes_to_no_group")
# The longest run, the unmutated union of all subsets, takes about 20 s on
# 2 cores; the longest subset, VERIFIER_TESTS, about 5 s.
SUBSET_TIMEOUT = 60


@dataclass(frozen=True)
class Mutant:
    file: str
    anchor: str
    replacement: str
    tests: tuple
    why: str


MUTANTS = [
    Mutant(FROBENIUS,
           "            if exp_l == left_side and exp_r == right_side:\n",
           "            right_side = exp_r\n"
           "            if exp_l == left_side and exp_r == right_side:\n",
           VERIFIER_TESTS,
           "the verifier ignores the right form D(x) (1 (x) y)"),
    Mutant(FROBENIUS,
           "            if exp_l == left_side and exp_r == right_side:\n",
           "            left_side = exp_l\n"
           "            if exp_l == left_side and exp_r == right_side:\n",
           VERIFIER_TESTS,
           "the verifier ignores the left form (x (x) 1) D(y)"),
    Mutant(FROBENIUS,
           "        if c == 1:\n",
           "        if c:\n",
           VERIFIER_TESTS,
           "a group is shared though its product's scalar is not 1"),
    Mutant(FROBENIUS,
           "        side[key] = held = held.copy()\n",
           "        side[key] = held\n",
           TAKE_TESTS,
           "a merge writes into a group taken by reference (no copy)"),
    Mutant(FROBENIUS,
           "            if not left_x and not left_y:\n",
           "            if not left_x and not left_y:\n"
           "                continue\n",
           VERIFIER_TESTS,
           "the verifier skips every pair with D(x) = D(y) = 0, though D(xy) may not vanish"),
    Mutant(FROBENIUS,
           "    new = reduce(value if old is None else old + value)\n",
           "    new = value if old is None else old + value\n",
           ("tests/test_frobenius.py::test_candidate_from_json_sums_repeated_terms",),
           "_add keeps sums unreduced, so F_p values the reader sums leave [0, p)"),
    Mutant(FROBENIUS,
           "            if len(coords) == 1 and 1 in coords.values():\n",
           "            if len(coords) == 1:\n",
           VERIFIER_TESTS,
           "the value on a product of one coordinate is D(b) even when its scalar is not 1"),
    Mutant(FROBENIUS,
           "                for z, cz in row[u].items():\n",
           "                for z, cz in list(row[u].items())[:1]:\n",
           ("tests/test_frobenius.py::test_coproduct_through_a_product_of_two_coordinates",),
           "the left form uses only the first coordinate of x * u"),
    Mutant(FROBENIUS,
           "                if not basis[i].source == vertex == basis[j].target:\n",
           "                if not basis[i].source == vertex:\n",
           ("tests/test_frobenius.py",),
           "the support check ignores the right leg's target"),
    Mutant(FROBENIUS,
           "    return [dict.fromkeys(cols, algebra.field.one) for cols in live]\n",
           "    return [dict.fromkeys(cols, algebra.field.one) for cols in live[:-1]]\n",
           ("tests/test_frobenius.py",),
           "the chain walk drops its last vector"),
    Mutant(FROBENIUS,
           "                while (s := step[u]) is not None:\n",
           "                while (s := step[u]) is not None and s[0] == last[v]:\n",
           ("tests/test_frobenius.py",),
           "the chain walk takes a chain as live where the step test drops it: v does not end "
           "in u's arrow, or two arrows a have a * u != 0"),
    Mutant(FROBENIUS,
           "if s[0] != last[v] or extends[prefix[v]] > 1:",
           "if s[0] != last[v]:",
           ("tests/test_frobenius.py",),
           "the chain walk steps onto (a * u, v') though a second arrow extends v'"),
    Mutant(FROBENIUS,
           "        heads = [v for v in vs if not extends[v]]\n",
           "        heads = vs\n",
           ("tests/test_frobenius.py",),
           "the chain walk also starts at columns whose right leg an arrow extends, so keeps "
           "a column sent to zero"),
    Mutant(FROBENIUS,
           "step[u] = (name, w) if step[u] is None else many",
           "step[u] = (name, w)",
           ("tests/test_frobenius.py",),
           "step[u] keeps the last arrow a with a * u != 0, though two arrows have one"),
    Mutant(FROBENIUS,
           "extends[v] += 1",
           "extends[v] = 1",
           ("tests/test_frobenius.py",),
           "two arrows that extend a right leg count as one"),
    Mutant(FROBENIUS,
           "        right = [(k, z, reduce(-c)) for k, v in enumerate(vs)\n",
           "        right = [(k, z, reduce(-c)) for k, v in enumerate(vs[:0])\n",
           ("tests/test_definition_oracle.py::test_solver_matches_raw_definition[diamond]",),
           "the non-monomial constraint build drops the D(e_p) (1 (x) a) terms"),
    Mutant(FROBENIUS,
           "(k, z, reduce(-c))",
           "(k, z, -c)",
           ("tests/test_frobenius.py::test_f_p_rows_hold_residues",),
           "the constraint build leaves a right-hand -c unreduced, outside [0, p) over F_p"),
    Mutant(FROBENIUS,
           "    return len(_kernel(algebra)[0])\n",
           "    algebra.product_table\n"
           "    return len(_kernel(algebra)[0])\n",
           ("tests/test_frobenius.py::test_dimension_leaves_the_product_table_unbuilt",),
           "dim builds the product table it never reads"),
    Mutant(FROBENIUS,
           "    if data.__class__ is list:  # not a str: tuple(\"ab\") would read as a word\n",
           "    if not isinstance(data, dict):\n",
           ("tests/test_cli.py::TestCommands::test_verify_refuses_a_string_for_a_word",),
           "the reader's word lookup takes the JSON string \"ab\" for the word a*b"),
    Mutant(FROBENIUS,
           "for (i, j), c in sorted(terms.items()))\n",
           "for (i, j), c in terms.items())\n",
           ("tests/test_cli.py::test_space_text_orders_terms_by_sort_key",),
           "text space, patterns and FAILED lines leave a value's terms in the order they were added"),
    Mutant(FROBENIUS,
           "for (i, j), c in sorted(candidate.values[vertex].items())]}\n",
           "for (i, j), c in sorted(candidate.values[vertex].items(), reverse=True)]}\n",
           ("tests/test_cli.py::TestJsonWriter::test_space_writer_orders_terms_by_sort_key",),
           "candidate_to_json writes a value's terms in reverse sort_key order"),
    Mutant(CLI,
           "    legs = [_leg(path, 12) for path in algebra.basis]\n",
           "    texts = {path.arrows: _leg(path, 12) for path in algebra.basis}\n"
           "    legs = [texts[path.arrows] for path in algebra.basis]\n",
           ("tests/test_cli.py::TestJsonWriter::test_space_payloads",),
           "the leg texts are keyed by arrows, so e_a and e_b share one text"),
    Mutant(CLI,
           "ordered = terms if len(terms) == 1 else sorted(terms)\n",
           "ordered = terms\n",
           ("tests/test_cli.py::TestJsonWriter::test_space_writer_orders_terms_by_sort_key",),
           "space --json leaves a value's terms in the order they were added"),
    Mutant(CLI,
           "    blocks = sorted(grouped.items())\n",
           "    blocks = list(grouped.items())\n",
           ("tests/test_cli.py::TestJsonWriter::test_cli_payloads",),
           "basis groups the basis into blocks in the order they first occur in it, "
           "not in (source, target) order"),
    Mutant(CLI,
           "_leg(p, 8) for p in paths",
           "_leg(p, 6) for p in paths",
           ("tests/test_cli.py::TestJsonWriter::test_cli_payloads",),
           "basis --json writes its paths one level too shallow"),
    Mutant(CLOSED_FORMS,
           "    for i in range(1, len(word)):\n",
           "    for i in range(1, len(word) - 1):\n",
           ("tests/test_closed_forms.py",),
           "the tail (x) head witness drops its last cut"),
    Mutant(CLOSED_FORMS,
           "                _add(value, (left, right), cl * cr, reduce)\n",
           "                _add(value, (right, left), cl * cr, reduce)\n",
           ("tests/test_closed_forms.py",),
           "the tail (x) head witness swaps its legs"),
    Mutant(CLOSED_FORMS,
           "(2, 2, 3): 3, (2, 2, 4): 4,",
           "(2, 2, 3): 4, (2, 2, 4): 3,",
           ("tests/test_closed_forms.py",),
           "the pattern table swaps patterns 3 and 4"),
    Mutant(CLOSED_FORMS,
           "    for row in reduced.rows:\n        if len(row) == 1:\n"
           "            monomial_branches.add(next(iter(row)))\n",
           "",
           ("tests/test_closed_forms.py",),
           "toupie_classify misses a branch that a reduced linear row kills outright"),
    Mutant(IDEAL,
           "        return [{j: table.get(a.arrows + w or a.source, zero)\n",
           "        return [{j: table.get((a.arrows + w)[-2:] or a.source, zero)\n",
           ("tests/test_cli.py::TestJsonWriter::test_space_json_reads_back",),
           "the product table keys a product by its last two arrows only"),
    Mutant(IDEAL,
           "a.arrows + w or a.source",
           "a.arrows + w",
           ("tests/test_verifier_reference.py::test_product_table_matches_multiply",),
           "the product table looks e_v * e_v up by the empty word, so reads it as zero"),
    Mutant(IDEAL,
           "if (c := field.coerce(coeff))]",
           "if (c := coeff)]",
           ("tests/test_basis_reference.py",),
           "compute_basis adopts an ideal row's coefficient without coercing it"),
    Mutant(IDEAL,
           "    live = [p for p in paths if p.arrows not in table]\n",
           "    live = sorted((p for p in paths if p.arrows not in table),\n"
           "                  key=lambda p: (p.source, p.target))\n",
           ("tests/test_ideal.py::TestComputeBasis::test_canonical_order_by_hand",),
           "compute_basis takes its live columns in (source, target) block order, "
           "so the basis is in block order"),
    Mutant(IDEAL,
           "    return longest + 1\n",
           "    return longest\n",
           ("tests/test_ideal.py",),
           "the certified bound is one less"),
    Mutant(IDEAL,
           "        if w in words or w[:-1] in table or w[1:] in table:\n",
           "        if w in words or w[:-1] in table:\n",
           ("tests/test_basis_reference.py",),
           "the zero-path recurrence forgets a word whose zero part is w[1:]"),
    Mutant(IDEAL,
           "{v: len(quiver.in_arrows[v]) for v in quiver.vertices}",
           "{v: len({a.source for a in quiver.in_arrows[v]}) for v in quiver.vertices}",
           ("tests/test_ideal.py::test_vertex_kahn_pass_is_the_walk_with_no_words",),
           "the vertex Kahn pass counts in-degree by distinct sources, so drops parallel "
           "arrows"),
    Mutant(QUIVER,
           "        for a in arrows:\n            after",
           "        for a in self.arrows:\n            after",
           ("tests/test_quiver.py::test_enumerate_paths_is_every_path_in_sort_key_order",),
           "enumerate_paths extends each path by the arrows at its end in document order"),
    Mutant(DSL,
           "[k].start() + 1",
           "[k].start()",
           ("tests/test_dsl.py::test_every_parse_error",),
           "a parse error's column counts from 0"),
    Mutant(FAMILIES,
           "len(quiver.in_arrows[v]) * len(quiver.out_arrows[v])",
           "len(quiver.in_arrows[v]) + len(quiver.out_arrows[v])",
           ("tests/test_families.py",),
           "the rsz name count adds in(v) and out(v) instead of multiplying them"),
    Mutant(FAMILIES,
           "for n, value in zip(lengths, values) if value))\n",
           "for n, value in zip(lengths, values)))\n",
           ("tests/test_families.py",),
           "the toupie name count counts a branch whose linear coefficient is zero"),
    Mutant(LINALG,
           "        return self.reduce(Fraction(x.denominator, x.numerator))\n",
           "        return 1 / x\n",
           ("tests/test_linalg.py",),
           "RationalField.inverse gives a float for an int"),
    Mutant(LINALG,
           "        return pow(x, -1, self.p)\n",
           "        return x % self.p\n",
           ("tests/test_linalg.py",),
           "PrimeField.inverse returns its argument, not its inverse mod p"),
    Mutant(LINALG,
           "        return x if x.__class__ is int else x.numerator if x.denominator == 1 else x\n",
           "        return x\n",
           ("tests/test_linalg.py",),
           "RationalField.reduce leaves an integral Fraction, Fraction(n, 1), unnormalised"),
    Mutant(LINALG,
           "        if reduce(a * x[i] + b * x[j]):\n            return None\n",
           "",
           ("tests/test_linalg.py",),
           "the union-find RREF keeps a component live when a row disagrees with its ratios"),
    Mutant(LINALG,
           "            parent[find(i)] = find(zero)\n",
           "            find(i)\n",
           ("tests/test_linalg.py",),
           "the union-find RREF does not send a one-entry row's column to zero"),
    Mutant(LINALG,
           "            free = max(cols)\n",
           "            free = min(cols)\n",
           ("tests/test_linalg.py",),
           "the union-find RREF leaves a live component's smallest column free"),
    Mutant(LINALG,
           "                    holders[j].add(k)\n",
           "",
           ("tests/test_linalg.py",),
           "the elimination does not index a fill-in under its column"),
]


def _copy(destination):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, destination / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", destination / "pyproject.toml")


def _pytest(copy, tests):
    """pytest's exit code on tests in copy: 0 pass, 1 fail; None when the
    run takes longer than SUBSET_TIMEOUT seconds and is killed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=SUBSET_TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def main():
    begun = time.perf_counter()
    faults = 0
    with tempfile.TemporaryDirectory(prefix="frobq-mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        tests = {test for m in MUTANTS for test in m.tests}
        files = {test for test in tests if "::" not in test}
        # A node id in a file that the union holds whole would run twice.
        union = sorted(files | {test for test in tests if test.split("::")[0] not in files})
        start = time.perf_counter()
        code = _pytest(copy, union)
        if code != 0:
            reason = "TIMEOUT" if code is None else f"pytest exit {code}"
            print(f"unmutated copy fails the union of the subsets ({reason})")
            return 1
        print(f"unmutated {time.perf_counter() - start:6.1f} s  the union of the subsets passes")
        for mutant in MUTANTS:
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            count = original.count(mutant.anchor)
            if count != 1:
                print(f"ANCHOR {count} times in {mutant.file}: {mutant.why}")
                faults += 1
                continue
            path.write_text(original.replace(mutant.anchor, mutant.replacement),
                            encoding="utf-8")
            start = time.perf_counter()
            try:
                code = _pytest(copy, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed", None: "TIMEOUT"}.get(
                code, f"ERROR (pytest exit {code})")
            print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {mutant.why}")
            faults += verdict != "killed"
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - begun:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
