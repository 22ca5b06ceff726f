"""Spans around frobq's public calls, and the per-layer metrics they give.

The traced run replays each CLI command through ``frobq.cli.main`` while
the public functions listed in ``TARGETS`` are replaced, in every frobq
module that binds them, by wrappers that record one span per call.  The
wrappers do no work of their own beyond the span and keeping a reference
to the result; sizes and ratios are computed from those references after
the pass, outside every span.  Calls made inside a function the table
does not name (``compose``, ``reduce_path``, ``extend_coproduct``) are
part of that function's self time.
"""

import contextlib
import importlib
import sys
from time import perf_counter

# (module, public function) pairs wrapped in the traced run.  A span is
# named "<module>.<function>", so the layer is the part before the dot.
TARGETS = (
    ("dsl", "parse_document"),
    ("ideal", "compute_basis"),
    ("linalg", "rref"),
    ("linalg", "rank"),
    ("linalg", "kernel_basis"),
    ("frobenius", "build_constraint_system"),
    ("frobenius", "frobenius_dimension"),
    ("frobenius", "solve_frobenius_space"),
    ("frobenius", "verify_coproduct"),
    ("frobenius", "candidate_to_json"),
    ("frobenius", "candidate_from_json"),
    ("closed_forms", "is_radical_square_zero"),
    ("closed_forms", "radical_square_zero_dimension"),
    ("closed_forms", "toupie_classify"),
    ("closed_forms", "is_string"),
    ("closed_forms", "is_string_quadratic"),
    ("closed_forms", "is_gentle"),
    ("closed_forms", "detect_local_patterns"),
    ("closed_forms", "witness_coproduct"),
    ("cli", "cmd_basis"),
    ("cli", "cmd_dim"),
    ("cli", "cmd_space"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_classify"),
    ("cli", "cmd_patterns"),
)

PACKAGE = "frobq"

# name -> unit, in the order the traced run prints them.
LAYER_METRICS = {
    "linalg.kernel_s": "s",
    "linalg.rank": "count",
    "linalg.kernel_dim": "count",
    "linalg.fill_ratio": "1",
    "frobenius.build_s": "s",
    "frobenius.cols": "count",
    "frobenius.rows": "count",
    "frobenius.nnz": "count",
    "frobenius.blocks": "count",
    "frobenius.largest_block_cols": "count",
    "frobenius.solve_s": "s",
    "frobenius.verify_s": "s",
    "frobenius.verify_calls": "count",
    "frobenius.pairs_checked": "count",
    "frobenius.composable_ratio": "1",
    "frobenius.json_s": "s",
    "dsl.parse_s": "s",
    "dsl.parse_calls": "count",
    "cli.self_s": "s",
    "ideal.basis_s": "s",
    "ideal.dim_A": "count",
    "quiver.paths": "count",
    "closed_forms.s": "s",
    "closed_forms.calls": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans of one pass: [name, start, end, parent index, instance]."""

    def __init__(self):
        self.spans = []
        self.instance = None
        self._stack = []
        self._constraint_ids = set()
        self.builds = []        # constraint matrices, kept alive so their ids stay valid
        self.eliminations = []  # (columns, rank, input nnz, RREF nnz) of constraint systems
        self.bases = []         # (dim A, reduction table size)
        self.verifications = []  # (algebra, counterexample or None)

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.instance]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.split(".", 1)[1], None)

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_compute_basis(self, args, algebra):
        self.bases.append((algebra.dimension, len(algebra.table)))

    def _observe_build_constraint_system(self, args, result):
        matrix = result[0]
        self._constraint_ids.add(id(matrix))
        self.builds.append(matrix)

    def _observe_rref(self, args, result):
        matrix = args[0]
        if id(matrix) in self._constraint_ids:
            reduced, pivots = result
            self.eliminations.append(
                (matrix.ncols, len(pivots), len(matrix.entries), len(reduced.entries)))

    def _observe_verify_coproduct(self, args, result):
        self.verifications.append((args[0], result[1]))


@contextlib.contextmanager
def installed(tracer):
    """Route every binding of a TARGETS function through tracer spans."""
    wrappers = {}
    for module_name, function_name in TARGETS:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        original = getattr(module, function_name)
        wrappers[id(original)] = tracer.wrap(f"{module_name}.{function_name}", original)
    replaced = []
    for name, module in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attribute, value in list(vars(module).items()):
            if id(value) in wrappers:
                replaced.append((module, attribute, value))
                setattr(module, attribute, wrappers[id(value)])
    try:
        yield
    finally:
        for module, attribute, value in replaced:
            setattr(module, attribute, value)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    end = lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Each span's duration minus the part its children cover, even when they overlap."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [end - start - covered_length(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def _constraint_blocks(matrix):
    """Connected blocks of the constraint system: columns joined by a shared row."""
    parent = list(range(matrix.ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    first_in_row = {}
    for (i, j) in matrix.entries:
        root = first_in_row.setdefault(i, j)
        a, b = find(root), find(j)
        if a != b:
            parent[b] = a
    sizes = {}
    for c in range(matrix.ncols):
        r = find(c)
        sizes[r] = sizes.get(r, 0) + 1
    return len(sizes), max(sizes.values(), default=0)


def _verified_pairs(algebra, counterexample):
    """Pairs the all-pairs verifier visits, and how many of them compose.

    The verifier walks algebra.basis x algebra.basis in order and stops
    at the first failing pair, so the count follows from the basis and
    the counterexample it returns.
    """
    basis = algebra.basis
    n = len(basis)
    if counterexample is None:
        sources, targets = {}, {}
        for b in basis:
            sources[b.source] = sources.get(b.source, 0) + 1
            targets[b.target] = targets.get(b.target, 0) + 1
        return n * n, sum(count * sources.get(v, 0) for v, count in targets.items())
    stop = algebra.index[counterexample.x] * n + algebra.index[counterexample.y] + 1
    composable = sum(1 for k in range(stop) if basis[k // n].target == basis[k % n].source)
    return stop, composable


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    spans = tracer.spans
    own = self_times(spans)
    self_by_name = {}
    calls_by_name = {}
    for span, t in zip(spans, own):
        self_by_name[span[0]] = self_by_name.get(span[0], 0.0) + t
        calls_by_name[span[0]] = calls_by_name.get(span[0], 0) + 1

    def self_of(*names):
        return sum(self_by_name.get(n, 0.0) for n in names)

    def layer_self(layer):
        return sum(t for n, t in self_by_name.items() if n.startswith(layer + "."))

    def layer_calls(layer):
        return sum(c for n, c in calls_by_name.items() if n.startswith(layer + "."))

    cols = sum(e[0] for e in tracer.eliminations)
    ranks = sum(e[1] for e in tracer.eliminations)
    nnz_in = sum(e[2] for e in tracer.eliminations)
    nnz_out = sum(e[3] for e in tracer.eliminations)
    blocks = [_constraint_blocks(m) for m in tracer.builds]
    pairs = [_verified_pairs(a, cex) for a, cex in tracer.verifications]
    checked = sum(p[0] for p in pairs)
    return {
        "linalg.kernel_s": layer_self("linalg"),
        "linalg.rank": ranks,
        "linalg.kernel_dim": cols - ranks,
        "linalg.fill_ratio": nnz_out / nnz_in if nnz_in else 0.0,
        "frobenius.build_s": self_of("frobenius.build_constraint_system"),
        "frobenius.cols": sum(m.ncols for m in tracer.builds),
        "frobenius.rows": sum(m.nrows for m in tracer.builds),
        "frobenius.nnz": sum(len(m.entries) for m in tracer.builds),
        "frobenius.blocks": sum(b[0] for b in blocks),
        "frobenius.largest_block_cols": max((b[1] for b in blocks), default=0),
        "frobenius.solve_s": self_of("frobenius.solve_frobenius_space",
                                     "frobenius.frobenius_dimension"),
        "frobenius.verify_s": self_of("frobenius.verify_coproduct"),
        "frobenius.verify_calls": calls_by_name.get("frobenius.verify_coproduct", 0),
        "frobenius.pairs_checked": checked,
        "frobenius.composable_ratio": sum(p[1] for p in pairs) / checked if checked else 0.0,
        "frobenius.json_s": self_of("frobenius.candidate_to_json",
                                    "frobenius.candidate_from_json"),
        "dsl.parse_s": self_of("dsl.parse_document"),
        "dsl.parse_calls": calls_by_name.get("dsl.parse_document", 0),
        "cli.self_s": layer_self("cli"),
        "ideal.basis_s": self_of("ideal.compute_basis"),
        "ideal.dim_A": sum(b[0] for b in tracer.bases),
        "quiver.paths": sum(b[1] for b in tracer.bases),
        "closed_forms.s": layer_self("closed_forms"),
        "closed_forms.calls": layer_calls("closed_forms"),
    }

