"""Corpus benchmark for redop: one workload per call, every job's output checked.

    python3 bench/run.py --workload symbolic-cold --seed 1 --seconds 30 --trace 0

Workloads (a closed loop: one client, one job at a time, no threads):

- symbolic-cold: every non-bijection job of the corpus matrix, each in a
  child forked from a parent that has imported redop, so each job is a
  fresh process like a CLI call, minus the interpreter and import cost.
- bijection-surface: the bijection jobs with --samples 50, forked cold; each
  pass uses another sampling seed derived from the workload seed.
- session-warm: the jobs of both workloads in this one process, pass after
  pass, each pass in a seeded shuffled order.

The workload seed reaches the program only as --seed on the jobs (and, in
session-warm, as the job order). A job fails when its exit code or its JSON
report without timing_ms differs from bench/reference.json, when it crashes,
or when it runs past JOB_LIMIT_S. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a fixed number of whole
passes runs with every layer wrapped (see spans.py) and the metrics are the
per-layer calls, self times and ratios.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import matrix  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("symbolic-cold", "bijection-surface", "session-warm")
SETUP_REPEATS = 5
# The program has no work budget yet, so the benchmark bounds each job.
JOB_LIMIT_S = 60.0
# No job starts later than this after the start, so a run ends within 180 s
# even when jobs hang.
LAST_START_S = 100.0
# session-warm's numbers depend on how many passes ran, since later passes
# see repeated inputs, so it always runs two; a traced run of the others
# runs one, so its call counts repeat exactly.
FIXED_PASSES = {"session-warm": 2}
TRACE_PASSES = 1


class JobTimeout(BaseException):
    """Raised in-process when a session job passes JOB_LIMIT_S."""


def import_redop():
    """Import redop from this checkout's src/, never from elsewhere."""
    src = matrix.ROOT / "src"
    sys.path.insert(0, str(src))
    import redop.cli

    where = Path(redop.__file__).resolve().parent
    if where != src / "redop":
        raise ImportError("redop was imported from %s, not from %s" % (where, src))


def setup():
    """Import redop, enumerate the job matrix, load the reference."""
    import_redop()
    return matrix.symbolic_jobs(), matrix.bijection_jobs(), matrix.load_reference()


def _read_all(fd, deadline):
    """Everything written to fd until EOF, or None if the deadline passes first."""
    chunks = []
    while True:
        left = deadline - time.perf_counter()
        ready = select.select([fd], [], [], left)[0] if left > 0 else []
        if not ready:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def forked(fn, limit):
    """Run fn() in a forked child; its JSON result comes back over a pipe.

    Returns (result or None, seconds from fork to reaping, child peak RSS
    in KiB). A child that passes the limit is killed.
    """
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            data = json.dumps(fn()).encode()
            with os.fdopen(w, "wb") as f:
                f.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    try:
        data = _read_all(r, t0 + limit)
    finally:
        os.close(r)
    if data is None:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t0
    result = json.loads(data) if data and status == 0 else None
    return result, seconds, usage.ru_maxrss


def measure_setup(repeats):
    """Set-up seconds, each measured in a child forked before redop is imported."""

    def timed():
        t0 = time.perf_counter()
        setup()
        return time.perf_counter() - t0

    samples = []
    for _ in range(repeats):
        seconds = forked(timed, JOB_LIMIT_S)[0]
        if seconds is None:
            raise RuntimeError("set-up failed; is this a full checkout with src/redop?")
        samples.append(seconds)
    return samples


def execute(argv):
    """One CLI call in this process; returns the outcome the reference pins.

    sympy draws the evaluation points of multivariate factorization from
    its own generator, which a fresh process seeds from the OS, and a bad
    draw can make a job 100 times slower. Seeding it from the command line
    makes each job's cost repeat with its seed.
    """
    import sympy.core.random

    import redop.cli

    sympy.core.random.seed(" ".join(argv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = redop.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            return {"exit": "crash", "error": traceback.format_exc()}
    return matrix.outcome(code, out.getvalue(), err.getvalue())


def sampling_seed(seed, i):
    """The --seed of pass i's bijection jobs, derived from the workload seed."""
    return random.Random("%d/%d" % (seed, i)).randrange(1 << 31)


def passes(workload, seed, symbolic, bijection):
    """Pass i's units: (job, argv) in run order."""

    def surface(i):
        s = sampling_seed(seed, i)
        return [(job, job.argv(s, matrix.BIJECTION_SAMPLES)) for job in bijection]

    if workload == "symbolic-cold":
        units = [(job, job.argv(seed)) for job in symbolic]
        return lambda i: units
    if workload == "bijection-surface":
        return surface
    order = random.Random(seed)

    def warm(i):
        units = [(job, job.argv(seed)) for job in symbolic] + surface(i)
        order.shuffle(units)
        return units

    return warm


class Run:
    """Results of one workload run."""

    def __init__(self, reference, tracer=None):
        self.reference = reference
        self.tracer = tracer
        self.times = {}  # job key -> [seconds]
        self.attempted = 0
        self.failures = []
        self.points = 0
        self.peak_rss_kb = 0
        self.traced_s = 0.0
        self.spans = {}  # label -> [calls, self seconds]
        self.counters = {}
        self.max_ops = 0
        self.normalize_outermost_s = 0.0

    def record(self, job, outcome, seconds, trace=None):
        self.attempted += 1
        if outcome != self.reference.get(job.key):
            self.failures.append(job.key)
            print("FAIL %s: got %s" % (job.key, json.dumps(outcome)[:300]), file=sys.stderr)
        self.times.setdefault(job.key, []).append(seconds)
        if job.command == "bijection" and outcome.get("report"):
            self.points += _points(outcome)
        if trace is not None:
            self.traced_s += seconds
            for label, (calls, self_s) in spans.self_times(trace["spans"]).items():
                acc = self.spans.setdefault(label, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
            self.normalize_outermost_s += spans.outermost_seconds(trace["spans"], "core.normalize")
            for name, n in trace["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + n
            self.max_ops = max(self.max_ops, trace["max_ops"])


def _points(outcome):
    """Certified surface points, read from the bijection report's "N points"."""
    total = 0
    for result in outcome["report"]["results"]:
        for v in result["verdicts"]:
            words = v["detail"].split()
            if "points" in words:
                total += int(words[words.index("points") - 1])
    return total


def run_forked(run, unit):
    """One job in a forked child; times it from fork to reaping.

    Traced, the time ends when the job does, before its spans are sent.
    """
    job, argv = unit
    tracer = run.tracer

    def child():
        outcome = execute(argv)
        done = time.perf_counter()
        return {"outcome": outcome, "done": done,
                "trace": tracer.take() if tracer else None}

    t0 = time.perf_counter()
    payload, seconds, rss_kb = forked(child, JOB_LIMIT_S)
    run.peak_rss_kb = max(run.peak_rss_kb, rss_kb)
    if payload is None:
        run.record(job, {"exit": "killed or crashed"}, seconds)
        return
    if tracer:
        seconds = payload["done"] - t0
    run.record(job, payload["outcome"], seconds, payload["trace"])


def _alarm(signum, frame):
    raise JobTimeout()


def run_in_process(run, unit):
    job, argv = unit
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        outcome = execute(argv)
    except JobTimeout:
        outcome = {"exit": "timed out"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - t0
    run.record(job, outcome, seconds, run.tracer.take() if run.tracer else None)


def drive(run, units_of_pass, step, seconds, fixed_passes=None):
    """Closed loop over whole passes; returns whether every pass ran whole.

    Passes never stop part-way, so each job is timed equally often. With
    `fixed_passes`, exactly that many run; otherwise one, and another only
    if, at the previous pass's pace, it ends within `seconds`.
    """
    start = time.perf_counter()
    i = 0
    last = 0.0
    while True:
        now = time.perf_counter()
        if fixed_passes is not None:
            if i == fixed_passes:
                return True
        elif i > 0 and now - start + last > seconds:
            return True
        for unit in units_of_pass(i):
            if time.perf_counter() - start > LAST_START_S:
                return False
            step(run, unit)
        last = time.perf_counter() - now
        i += 1


def end_to_end(run, workload, setup_samples, peak_rss_kb):
    """The metrics BENCHMARK.json checks, and the ones printed for reading only.

    The percentiles are too noisy to check on bijection-surface, whose
    median is one job's few runs, and the rest hold on some workloads only.
    """
    runs = [t for v in run.times.values() for t in v]
    checked = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (len(runs) / sum(runs), "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    printed = {"job_ms_p50": (statistics.median(runs) * 1000.0, "ms")}
    if len(runs) >= 100:  # at least ten runs lie beyond the 90th percentile
        printed["job_ms_p90"] = (statistics.quantiles(runs, n=10)[-1] * 1000.0, "ms")
    if workload == "bijection-surface":
        printed["points_per_s"] = (run.points / sum(runs), "1/s")
    printed["fail_ratio"] = (len(run.failures) / run.attempted, "ratio")
    return checked, printed


def per_layer(run):
    metrics = {}
    total = run.traced_s
    by_layer = {layer: 0.0 for layer in spans.LAYERS}
    for label, _, _ in spans.TARGETS:
        calls, self_s = run.spans.get(label, (0, 0.0))
        metrics[label + ".calls"] = (calls, "count")
        metrics[label + ".self_s"] = (self_s, "s")
        by_layer[label.split(".", 1)[0]] += self_s
    for layer, self_s in by_layer.items():
        metrics[layer + ".self_share"] = (self_s / total, "ratio")
    metrics["other.self_share"] = ((total - sum(by_layer.values())) / total, "ratio")
    calls = run.spans.get("core.normalize", (0, 0.0))[0]
    c = run.counters
    metrics["core.normalize.share"] = (run.normalize_outermost_s / total, "ratio")
    metrics["core.normalize.noop_ratio"] = (_ratio(c.get("core.normalize.noop", 0), calls), "ratio")
    metrics["core.normalize.distinct_ratio"] = (
        _ratio(c.get("core.normalize.distinct", 0), calls), "ratio")
    metrics["core.normalize.max_ops"] = (run.max_ops, "ops")
    zero_calls = run.spans.get("core.is_zero", (0, 0.0))[0]
    for verdict in spans.IS_ZERO_VERDICTS:
        metrics["core.is_zero." + verdict] = (c.get("core.is_zero." + verdict, 0), "count")
    sampled = c.get("core.is_zero.sampled_zero", 0) + c.get("core.is_zero.probably_nonzero", 0)
    metrics["core.is_zero.sampled_ratio"] = (_ratio(sampled, zero_calls), "ratio")
    roots = run.spans.get("mpmath.findroot", (0, 0.0))[0]
    metrics["families.points"] = (c.get("families.points", 0), "count")
    metrics["families.root_yield"] = (_ratio(c.get("families.points", 0), roots), "ratio")
    metrics["jobs.traced_s"] = (total, "s")
    return metrics


def _ratio(a, b):
    return a / b if b else 0.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.chdir(matrix.ROOT)

    try:
        setup_samples = measure_setup(SETUP_REPEATS)
    except RuntimeError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    symbolic, bijection, reference = setup()

    tracer = None
    undo = []
    if args.trace:
        tracer = spans.Tracer()
        undo = spans.install(tracer)
    run = Run(reference, tracer)
    step = run_in_process if args.workload == "session-warm" else run_forked
    try:
        complete = drive(
            run, passes(args.workload, args.seed, symbolic, bijection), step, args.seconds,
            FIXED_PASSES.get(args.workload, TRACE_PASSES if args.trace else None))
    finally:
        spans.uninstall(undo)
    if args.workload == "session-warm":
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_rss_kb = run.peak_rss_kb

    print("workload %s, seed %d: %d job(s), %d run(s), %.2f passes%s"
          % (args.workload, args.seed, len(run.times), run.attempted,
             run.attempted / max(1, len(run.times)), ", traced" if args.trace else ""))
    if args.trace:
        metrics, printed = per_layer(run), {}
    else:
        metrics, printed = end_to_end(run, args.workload, setup_samples, peak_rss_kb)
    for name, (value, unit) in {**metrics, **printed}.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": complete and not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
