"""Benchmark of homglue: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload assoc|gap|structure --seed N \
        --seconds S --trace 0|1

Set-up imports homglue from src/, generates the seeded inputs and writes
them as JSON files. The run then makes closed-loop passes over the job
list (one client, each job starts when the previous one ends) until S
seconds have gone, and at least one pass. Every timed answer is compared
with the answer frozen for it in frozen/<workload>.json, and independent
oracles check some of them.

With --trace 0 the result holds the end-to-end metrics, taken from the
mean latency of each job over the passes (its percentiles as
Harrell-Davis estimates); the set-up is repeated at times spread over
the run and setup_s is the median of those set-ups. Every time metric is
scaled to a nominal machine speed by a reference kernel timed between
the jobs (see reference.py). With --trace 1 passes
alternate between untraced and traced; the result holds the per-layer
metrics of the first traced pass and the tracing overhead, and the spans
of that pass are written to out/trace-<workload>-seed<N>.jsonl.gz.

The last line of standard output is the result as one JSON object.
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from reference import Reference
from tracer import Tracer, per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
FROZEN = os.path.join(HERE, "frozen")
SETUP_REPS = 9

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import homglue.cli; print(time.perf_counter() - t)"
)


def pin_to_one_cpu():
    """Keep this process, and the interpreters it starts for set-up, on one
    CPU, so that the jobs, the set-ups and the reference kernel all meet
    the same neighbours. Returns the CPU, or None where affinity cannot be
    set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def import_program():
    """Import homglue from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "homglue", "__init__.py")):
        raise SystemExit("error: no homglue sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import homglue

    if not os.path.abspath(homglue.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: homglue imported from %s, not %s" % (homglue.__file__, SRC))


def import_seconds():
    """Time of `import homglue.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def load_frozen(workload, block):
    with open(os.path.join(FROZEN, workload + ".json")) as fh:
        doc = json.load(fh)
    return doc["names"][block], doc["answers"][block]


def names_digest(jobs):
    return hashlib.sha256("\n".join(j.name for j in jobs).encode()).hexdigest()[:12]


def setup(workload, seed, workdir):
    """One set-up: the import of homglue in a fresh interpreter plus input
    generation, file writing and frozen-answer loading in this process.
    Returns (jobs, expected answers, seconds)."""
    import workloads

    block = workloads.block_of(seed)
    t_import = import_seconds()
    t0 = time.perf_counter()
    jobs = workloads.build(workload, seed, workdir)
    frozen_names, expected = load_frozen(workload, block)
    seconds = t_import + time.perf_counter() - t0
    if frozen_names != names_digest(jobs):
        print("job list of block %d differs from the frozen one" % block, flush=True)
        expected = [None] * len(jobs)
    return jobs, expected, seconds


class SetupRepeats:
    """Set-ups repeated at times spread evenly over the timed run, each in
    a work directory of its own that is removed after it, so that setup_s
    (their median) is taken at the machine speed the reference kernel
    saw, not at that of the run's first second."""

    def __init__(self, args, workdir, first_s):
        self.args = args
        self.workdir = workdir
        self.times = [first_s]

    def due(self, elapsed):
        return elapsed >= len(self.times) * self.args.seconds / SETUP_REPS

    def run_one(self):
        d = "%s-setup%d" % (self.workdir, len(self.times))
        try:
            self.times.append(setup(self.args.workload, self.args.seed, d)[2])
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def median(self):
        while len(self.times) < SETUP_REPS:
            self.run_one()
        return statistics.median(self.times)


class Pass:
    """Latencies and failures of one pass over the job list."""

    def __init__(self):
        self.latency_ns = []
        self.scaled_ns = []
        self.failed = 0


def run_pass(jobs, expected, oracle_ok, tracer=None, reference=None):
    """Run every job once, timing only the call into the program, and
    after each job the reference kernel if one is given. A job fails if it
    raises, or if its answer differs from the frozen one or from its
    oracle; its name is printed and the pass goes on."""
    p = Pass()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter_ns()
        try:
            result = job.run()
        except Exception as e:  # a failed job is counted, not fatal
            p.latency_ns.append(time.perf_counter_ns() - t0)
            p.failed += 1
            print("FAILED %s: raised %r" % (job.name, e), flush=True)
            continue
        p.latency_ns.append(time.perf_counter_ns() - t0)
        if reference is not None:
            reference.add(p.scaled_ns, p.latency_ns[-1])
        answer = job.answer(result)
        if answer != expected[i]:
            p.failed += 1
            print("MISMATCH %s: %s, frozen %s" % (job.name, answer, expected[i]), flush=True)
            continue
        if job.check is not None:
            if i not in oracle_ok:
                oracle_ok[i] = job.check(result)
            if not oracle_ok[i]:
                p.failed += 1
                print("ORACLE %s: answer fails its independent check" % job.name, flush=True)
    return p


def per_job_means(passes, scaled=False):
    """Mean latency of each job over the passes, in seconds, as measured
    or scaled to nominal speed."""
    cols = zip(*(p.scaled_ns if scaled else p.latency_ns for p in passes))
    return [statistics.fmean(col) / 1e9 for col in cols]


def jobs_per_s(latencies):
    return len(latencies) / sum(latencies)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "homglue")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def provenance(args, jobs, passes):
    import workloads

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": args.pinned_cpu,
        "workload": args.workload,
        "seed": args.seed,
        "block": workloads.block_of(args.seed),
        "default_seed": workloads.DEFAULT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "jobs": len(jobs),
        "passes": len(passes),
        "setup_reps": SETUP_REPS,
        "trace": args.trace,
    }


def hd_quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density over their
    ranks. Job costs cluster by family, so a single order statistic jumps
    between clusters from one seed to the next; this estimate moves with
    all the jobs near the quantile. Weights come from Simpson's rule on
    each rank interval, then are normalised."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        total = density(lo) + density(lo + steps * h)
        total += sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append(total * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def time_metrics(latencies, setup_s):
    return {
        "jobs_per_s": (jobs_per_s(latencies), "1/s"),
        "job_p50_ms": (hd_quantile(latencies, 0.5) * 1e3, "ms"),
        "job_p90_ms": (hd_quantile(latencies, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def measure(args, jobs, expected, setups):
    oracle_ok = {}
    passes = []
    reference = Reference()
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(jobs, expected, oracle_ok, reference=reference))
        if setups.due(time.perf_counter() - t0):
            setups.run_one()
    reference.close_chunk()
    setup_s = setups.median()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = reference.scale()
    raw = time_metrics(per_job_means(passes), setup_s)
    means = per_job_means(passes, scaled=True)
    metrics = time_metrics(means, setup_s * scale)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    p90 = metrics["job_p90_ms"][0] / 1e3
    attempted = sum(len(p.latency_ns) for p in passes)
    failed = sum(p.failed for p in passes)
    print("# provenance " + json.dumps(provenance(args, jobs, passes)))
    print(
        "# reference kernel: %d calls, mean %.1f us, run-wide scale to nominal speed %.4f"
        % (reference.calls, reference.mean_ns() / 1e3, scale)
    )
    print("# set-ups, unscaled s: " + " ".join("%.4f" % t for t in setups.times))
    for name, (value, unit) in raw.items():
        print("# unscaled %-12s %14.6f %s" % (name, value, unit))
    for name, (value, unit) in metrics.items():
        print("%-12s %14.6f %s" % (name, value, unit))
    print(
        "%-12s %14.6f %s  (%d failed of %d attempted)"
        % ("fail_frac", failed / attempted, "ratio", failed, attempted)
    )
    print(
        "# %d latency samples (per-job means over %d passes), %d above p90; %d set-ups"
        % (len(means), len(passes), sum(m > p90 for m in means), len(setups.times))
    )
    return metrics, attempted, failed


def measure_traced(args, jobs, expected):
    oracle_ok = {}
    plain, traced = [], []
    first = None
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        plain.append(run_pass(jobs, expected, oracle_ok))
        with Tracer() as tracer:
            traced.append(run_pass(jobs, expected, oracle_ok, tracer))
        if first is None:
            first = tracer
    metrics = per_layer_metrics(first, [j.name for j in jobs])
    untraced_rate = jobs_per_s(per_job_means(plain))
    traced_rate = jobs_per_s(per_job_means(traced))
    metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate, "ratio")
    passes = plain + traced
    prov = provenance(args, jobs, passes)
    print("# provenance " + json.dumps(prov))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"provenance": prov, "jobs": [j.name for j in jobs]}) + "\n")
        for span in first.spans:
            fh.write(json.dumps(span.as_json()) + "\n")
    print("# %d spans written to %s" % (len(first.spans), os.path.relpath(path, ROOT)))
    for name, (value, unit) in metrics.items():
        print("%-48s %16.6f %s" % (name, value, unit))
    attempted = sum(len(p.latency_ns) for p in passes)
    failed = sum(p.failed for p in passes)
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("assoc", "gap", "structure"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind: the work directory is removed and a running
    # set-up interpreter is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args.pinned_cpu = pin_to_one_cpu()
    import_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    try:
        jobs, expected, setup_s = setup(args.workload, args.seed, workdir)
        if args.trace:
            metrics, attempted, failed = measure_traced(args, jobs, expected)
        else:
            setups = SetupRepeats(args, workdir, setup_s)
            metrics, attempted, failed = measure(args, jobs, expected, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
