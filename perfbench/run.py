"""frobq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload elim|verify|corpus --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Commands go through ``frobq.cli.main``
in this process with stdout captured, one at a time (a closed loop with
one client and no threads).  Passes over the workload repeat until
``--seconds`` have gone by, and at least MIN_PASSES times.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced replays of the same commands and reports the
per-layer metrics.  Times are in reference seconds: raw seconds rescaled
by a fixed kernel timed between commands (see speed.py).  Every output is
checked; the last line of stdout is the JSON result.  The full result,
with run metadata, sample counts and raw seconds, is also written under
``.bench_out/results/``, and a traced run writes its spans there too.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = tracing.PACKAGE

SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
COLD_STARTS_PER_PASS = 3
MIN_COLD_STARTS = 15
SUBPROCESS_TIMEOUT_S = 60
FAILURES_KEPT = 20

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_ms.p50": "ms",
    "instance_ms.p95": "ms",
    "cold_start_ms.p50": "ms",
    "peak_rss_mb": "MB",
}


class Bench:
    """One run of one workload: its documents, CLI calls, checks and speed samples."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.meter = speed.SpeedMeter()
        self.cli = None
        self.instances = []
        self.warm = None
        self.attempted = 0
        self.failures = []
        self.reference = {}

    # -- checks -----------------------------------------------------------

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """Import frobq afresh, generate and write the documents, warm up.

        Returns the interval as (seconds, start, end).
        """
        self.meter.sample()
        start = perf_counter()
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.cli = importlib.import_module(PACKAGE + ".cli")
        instances, warm = workloads.build(self.workload, self.seed)
        docs = self.workdir / "docs"
        docs.mkdir(parents=True, exist_ok=True)
        for inst in instances + [warm]:
            inst.path = str(docs / f"{inst.id}.fq")
            with open(inst.path, "w", encoding="utf-8") as handle:
                handle.write(inst.text)
        self.instances, self.warm = instances, warm
        workloads.run_instance(self.workload, warm, self._untimed_call, self.check)
        end = perf_counter()
        self.meter.sample()
        return end - start, start, end

    def documents_sha256(self):
        digest = hashlib.sha256()
        for inst in self.instances + [self.warm]:
            digest.update(f"{inst.id}\n{inst.text}\n".encode())
        return digest.hexdigest()

    def in_reference_seconds(self, intervals):
        """Raw (seconds, start, end) intervals of one phase in reference seconds.

        One factor covers the whole phase (a pass, the set-ups, a group of
        cold starts): it rests on many samples, which proved steadier than
        the few next to each interval.
        """
        factor = self.meter.scale(intervals[0][1], intervals[-1][2])
        return [t * factor for t, _, _ in intervals]

    # -- one CLI command --------------------------------------------------

    def _invoke(self, argv, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        traced = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            with traced:
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code  # argparse rejecting argv, as a shell would see it
                except Exception:
                    # A traceback is a failed command, not a failed benchmark.
                    code = None
                    err.write(traceback.format_exc())
            elapsed = perf_counter() - start
        if code is None:
            print(f"frobq {' '.join(argv)} raised:\n{err.getvalue()}", file=sys.stderr)
        return code, out.getvalue(), elapsed

    def _untimed_call(self, argv):
        code, out, _ = self._invoke(argv)
        return code, out

    # -- passes -----------------------------------------------------------

    def run_pass(self, tracer=None, label="pass"):
        """One pass over every instance.

        Returns each instance's (seconds inside cli.main, start, end) and
        the candidates space returned.  Untraced passes record every
        command's exit code and output; a traced pass must reproduce them
        byte for byte.
        """
        gc.collect()
        intervals = []
        candidates = {}
        for inst in self.instances:
            step = 0
            spent = 0.0
            if tracer is not None:
                tracer.instance = f"{label}/{inst.id}"

            def call(argv):
                nonlocal step, spent
                self.meter.maybe_sample()
                code, out, elapsed = self._invoke(argv, tracer)
                spent += elapsed
                key = (inst.id, step)
                step += 1
                if tracer is None:
                    self.reference[key] = (code, out)
                else:
                    self.check(self.reference.get(key) == (code, out),
                               f"{inst.id}: traced replay of frobq {' '.join(argv)} "
                               "differs from the untraced CLI output")
                return code, out

            start = perf_counter()
            candidates[inst.id] = workloads.run_instance(self.workload, inst, call, self.check)
            intervals.append((spent, start, perf_counter()))
        self.meter.sample()
        return intervals, candidates

    def cold_starts(self, count):
        """`python -m frobq dim` on the warm-up document in count fresh processes."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        argv = [sys.executable, "-m", PACKAGE, "dim", self.warm.path]
        expected = f"{self.warm.expected}\n"
        intervals = []
        for _ in range(count):
            self.meter.sample()
            start = perf_counter()
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S, check=False)
            end = perf_counter()
            self.check(done.returncode == 0 and done.stdout == expected,
                       f"cold start exited {done.returncode} printing {done.stdout!r}")
            intervals.append((end - start, start, end))
        self.meter.sample()
        return intervals


def measure(bench, seconds):
    """The untraced run: end-to-end metrics as {name: (value, samples)}, and notes.

    Times are in reference seconds (see speed.py), each phase by its own
    kernel samples.  Each instance's time is its median over the passes;
    wall_s is the sum of those medians and instance_ms takes nearest-rank
    percentiles over them.
    """
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    bench.cold_starts(1)  # may still compile bytecode; not counted
    passes, cold, raw_wall = [], [], []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        intervals, _ = bench.run_pass()
        passes.append(bench.in_reference_seconds(intervals))
        raw_wall.append(sum(t for t, _, _ in intervals))
        # Spread over the run, cold starts see the same mix of machine
        # states as the passes do.
        cold.append(bench.cold_starts(COLD_STARTS_PER_PASS))
    if sum(map(len, cold)) < MIN_COLD_STARTS:
        cold.append(bench.cold_starts(MIN_COLD_STARTS - sum(map(len, cold))))
    cold_ms = [t * 1000 for group in cold for t in bench.in_reference_seconds(group)]
    raw_cold_ms = [t * 1000 for group in cold for t, _, _ in group]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_instance = [statistics.median(times) for times in zip(*passes)]
    instance_ms = [t * 1000 for t in per_instance]
    samples = len(passes) * len(instance_ms)
    return {
        "setup_s": (statistics.median(bench.in_reference_seconds(setups)), len(setups)),
        "wall_s": (sum(per_instance), len(passes)),
        "instance_ms.p50": (stats.percentile(instance_ms, 50), samples),
        "instance_ms.p95": (stats.percentile(instance_ms, 95), samples),
        "cold_start_ms.p50": (statistics.median(cold_ms), len(cold_ms)),
        "peak_rss_mb": (peak_mb, 1),
    }, {
        "passes": len(passes),
        "instances": len(instance_ms),
        "instances_above_p95": stats.ranked_above(len(instance_ms), 95),
        "tail_percentile": stats.tail_percentile(len(instance_ms)),
        "raw_setup_s": statistics.median(t for t, _, _ in setups),
        "raw_wall_s": statistics.median(raw_wall),
        "raw_cold_start_ms.p50": statistics.median(raw_cold_ms),
        **speed_notes(bench.meter),
    }


def measure_traced(bench, seconds):
    """The traced run: per-layer metrics as {name: (value, samples)}, notes and spans.

    Each pass's times are scaled to reference seconds by the kernel
    samples taken during that pass.
    """
    bench.setup()
    untraced, traced, per_pass, spans = [], [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() < deadline:
        intervals, candidates = bench.run_pass()
        untraced.append(sum(bench.in_reference_seconds(intervals)))
        if not traced:
            for inst in bench.instances:
                workloads.check_each_candidate(inst, candidates[inst.id] or [],
                                               bench._untimed_call, bench.check)
        tracer = tracing.Tracer()
        label = f"traced{len(traced)}"
        with tracing.installed(tracer):
            intervals, _ = bench.run_pass(tracer, label)
        traced.append(sum(bench.in_reference_seconds(intervals)))
        factor = bench.meter.scale(intervals[0][1], intervals[-1][2])
        metrics = tracing.layer_metrics(tracer)
        per_pass.append({n: v * factor if tracing.LAYER_METRICS[n] == "s" else v
                         for n, v in metrics.items()})
        spans.extend(tracer.spans)
    values = {name: (stats.percentile([p[name] for p in per_pass], 50), len(per_pass))
              for name in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced),
                                  len(traced))
    timed = {n: v for n, (v, _) in values.items()
             if tracing.LAYER_METRICS[n] == "s" and n != "trace.overhead_s"}
    return values, {"largest_self_time": max(timed, key=timed.get),
                    **speed_notes(bench.meter)}, spans


def speed_notes(meter):
    q1, median, q3 = stats.quartiles(meter.seconds)
    return {"kernel_ms.p50": median * 1000, "kernel_ms.iqr": (q3 - q1) * 1000,
            "kernel_samples": len(meter.seconds)}


def run_metadata(args, bench):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _tree_sha256(SRC / PACKAGE),
        "documents_sha256": bench.documents_sha256(),
    }


def _git_commit():
    """HEAD's commit read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _tree_sha256(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\n")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Terminated(BaseException):
    """SIGTERM, unwinding the run so that child processes are killed and
    waited for and the work directory is removed.  A BaseException, so the
    handlers around frobq's commands do not swallow it."""


def _terminate(signum, frame):
    raise Terminated()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources in {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    results = OUT / "results"
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, workdir)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.trace:
            values, notes, spans = measure_traced(bench, args.seconds)
            units = tracing.LAYER_METRICS
        else:
            values, notes = measure(bench, args.seconds)
            spans = None
            units = END_TO_END
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(bench.failures)
    attempted = max(bench.attempted, 1)
    stem = f"{args.workload}-seed{args.seed}"
    full = {
        "meta": run_metadata(args, bench),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {n: {"value": values[n][0], "unit": u, "samples": values[n][1]}
                    for n, u in units.items()},
        "notes": notes,
        "failures": bench.failures[:FAILURES_KEPT],
    }
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(full, handle, indent=1)
    if spans is not None:
        with open(results / f"{stem}-spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"],
                       "spans": spans}, handle)

    print("meta " + json.dumps(full["meta"], sort_keys=True))
    for message in full["failures"]:
        print("FAILED " + message.splitlines()[0])
    print(f"{'failed_ratio':28} {full['failed_ratio']:<14.6g} 1  "
          f"({failed} of {attempted} checks)")
    for name, metric in full["metrics"].items():
        value = metric["value"]
        shown = f"{value:<14d}" if isinstance(value, int) else f"{value:<14.6g}"
        print(f"{name:28} {shown} {metric['unit']:6} (n={metric['samples']})")
    for name, note in notes.items():
        print(f"{name:28} {note}")
    print(json.dumps({
        "correct": full["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in full["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
