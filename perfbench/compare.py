"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of ``<workload>-seed<n>-trace0.json`` files
as ``run.py`` writes them (``.bench_out/results`` of a checkout).  Runs
are paired by workload and seed.  A pair whose documents hash differs is
refused: the two runs did not measure the same inputs.  For each
workload and end-to-end metric of BENCHMARK.json the step prints both
medians with their quartiles, the share of pairs the change won, and the
verdict of ``stats.verdict`` under the metric's bound.

Measure both sides with the same ``--seconds``, at least ten seeds, and
alternate which side runs first.  Exit code 1 means some metric is worse.
"""

import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        meta = result["meta"]
        runs[(meta["workload"], meta["seed"])] = result
    return runs


def compare(parent, change, spec):
    """Rows of (workload, metric, parent quartiles, change quartiles, share, verdict).

    Raises ValueError when a seed's documents differ between the sides.
    """
    rows = []
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        for seed in seeds:
            a = parent[(workload, seed)]["meta"]["documents_sha256"]
            b = change[(workload, seed)]["meta"]["documents_sha256"]
            if a != b:
                raise ValueError(f"{workload} seed {seed}: the documents differ "
                                 f"({a[:12]} against {b[:12]}); refusing to compare")
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            result, share = stats.verdict(p, c, metric["better"], metric["bound"])
            rows.append((workload, name, stats.quartiles(p), stats.quartiles(c),
                         len(seeds), share, result))
    return rows


def failures(runs, workload):
    return sum(r["failed"] for (w, _), r in runs.items() if w == workload)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load(argv[0]), load(argv[1])
    try:
        rows = compare(parent, change, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("error: no workload and seed measured on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':8} {'metric':18} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'pairs':>5} {'won':>5}  verdict")
    for workload, name, p, c, pairs, share, result in rows:
        print(f"{workload:8} {name:18} {_quartiles(p):34} {_quartiles(c):34} "
              f"{pairs:5d} {share:5.0%}  {result}")
    for workload in sorted({row[0] for row in rows}):
        before, after = failures(parent, workload), failures(change, workload)
        if after > before:
            print(f"{workload}: the change failed {after} checks against {before}; "
                  "no gain counts")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def _quartiles(q):
    q1, median, q3 = q
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
