"""Benchmark for mdeg: exact-answer CLI jobs run through ``mdeg.cli.main``.

    python3 mdegbench/run.py --workload threefold-qq --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  One process, one thread, a closed loop:
each job starts when the previous one has finished.  After one warm-up
pass over the workload's jobs, passes repeat until ``--seconds`` have
elapsed.  Times are medians over those passes, scaled by the host's
current speed (see `host_speed`).  Every job's stdout
is compared with the canonical output in expected.json and with answers
known independently of the program.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see tracing.py).  A summary
with every metric and the failed fraction goes to stderr.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"

# A job that runs this long has regressed far past its baseline (the
# slowest job, geom P, takes 2-3 s on a 2-vCPU x86 VM); it is stopped and
# counted as failed.
JOB_BUDGET_S = 40.0
# No job starts after this point of a run, so the run ends in time.
RUN_BUDGET_S = 150.0
SETUP_REPEATS = 9
# Seconds of `reference_loop` on an idle 2-vCPU x86 VM (CPython 3.11);
# the unit the timed metrics are scaled to, see `host_speed`.
REFERENCE_S = 0.0070
# After each job the reference loop is timed once per this many seconds
# of job time, so its samples cover the run evenly.
REFERENCE_EVERY_S = 0.25

# Per-layer metrics reported with --trace 1 (the full table is written
# to _work/layers-<workload>.json).
LAYER_FUNCTIONS = (
    "cli.main",
    "inputlang.parse_input",
    "groebner.buchberger",
    "groebner.substituted_ideal",
    "groebner.intersect",
    "groebner.saturate",
    "groebner.saturate_irrelevant",
    "groebner.contract",
    "groebner.Ideal.groebner_basis",
    "monomial.MonomialIdeal.intersect",
    "monomial.MonomialIdeal.standard_monomials",
    "monomial.irreducible_decomposition",
    "monomial.primary_decomposition",
    "monomial.minimal_primes",
    "monomial.length_at_minimal_prime",
    "monomial.reisner_cm_check",
    "monomial.minimalize",
    "hilbert.k_polynomial_monomial",
    "hilbert.multidegree_C",
    "hilbert.geometric_multidegrees",
    "hilbert.arithmetic_multidegree",
    "intpoly.IntegerPolynomial.substitute_one_minus_t",
    "genin.gin",
    "genin.gin_structure_report",
    "standardize.standardize_ideal",
    "standardize.cs_check",
    "determinantal.build_determinantal",
    "determinantal.closed_formulas",
    "polymatroid.exchange_check",
    "polymatroid.snp_check",
)
LAYER_EXTRAS = (
    "ring.Polynomial.__mul__.calls",
    "groebner.buchberger.basis_out",
    "groebner.substituted_ideal.terms_out",
    "monomial.irreducible_decomposition.components_out",
    "hilbert.k_polynomial_monomial.memo_hit_ratio",
    "trace.untraced_wall_s",
    "trace.wall_s",
    "trace.overhead_s",
)


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; not an Exception, so mdeg cannot catch it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_stages(cli, stages):
    """Run a pipeline of mdeg invocations in-process; (exit code, last stdout)."""
    rc, out = 0, ""
    saved = sys.stdin
    try:
        for argv in stages:
            sys.stdin = io.StringIO(out)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            out = buf.getvalue()
            if rc != 0:
                break
    finally:
        sys.stdin = saved
    return rc, out


class Runner:
    """Runs jobs through mdeg.cli.main and checks their outputs."""

    def __init__(self, job_list, expected, deadline, tracer=None):
        import mdeg.cli

        self.cli = mdeg.cli
        self.jobs = job_list
        self.expected = expected
        self.deadline = deadline
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.reference = []

    def run_job(self, job):
        """Run one job; return its seconds, or None if it failed."""
        if self.tracer is not None:
            self.tracer.job = self.attempted
        self.attempted += 1
        budget = min(JOB_BUDGET_S, self.deadline - time.perf_counter())
        if budget <= 0:
            self.failures.append(f"{job.name}: not started, run budget spent")
            return None
        gc.collect()
        signal.setitimer(signal.ITIMER_REAL, budget)
        t0 = time.perf_counter()
        try:
            rc, out = run_stages(self.cli, job.stages)
        except JobTimeout:
            rc, out = "timeout", ""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0
        gc.collect()
        for _ in range(1 + int(seconds / REFERENCE_EVERY_S)):
            self.reference.append(reference_seconds())
        error = self._check(job, rc, out)
        if error:
            self.failures.append(f"{job.name}: {error}")
            return None
        return seconds

    def _check(self, job, rc, out):
        if rc == "timeout":
            return f"over the {JOB_BUDGET_S:.0f} s budget"
        if rc != 0:
            return f"exit code {rc}"
        if jobs.normalized(job, out) != self.expected.get(job.name):
            return "output differs from expected.json"
        if job.check is not None and not job.check(json.loads(out)):
            return "answer check failed"
        return None

    def run_pass(self):
        """Seconds of each job in one pass; None for a failed job."""
        return {job.name: self.run_job(job) for job in self.jobs}


def reference_loop(n=20000):
    """Fixed pure-Python work that never touches mdeg."""
    d = {}
    s = 0
    for i in range(n):
        t = (i, i + 1, i & 7)
        d[t] = s
        s += sum(t)
    return s


def reference_seconds():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def host_speed(reference):
    """REFERENCE_S over the run's mean reference time.

    On a shared host other tenants slow this interpreter by up to 1.8x,
    switching between fast and slow within seconds and for minutes at a
    time, and every timing of a run moves with them.  The reference loop
    is sampled evenly through the run, so its mean sees the same mix of
    slow and fast stretches (a median would flip between the two);
    multiplying a run's times by this factor states them at the speed of
    an idle host.
    """
    return REFERENCE_S / statistics.mean(reference)


def pass_seconds(times):
    return sum(t for t in times.values() if t is not None)


def slowest_job(times):
    return max((t for t in times.values() if t is not None), default=0.0)


def measure_setup():
    """Median seconds for a fresh interpreter to import mdeg and mdeg.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import mdeg, mdeg.cli"]
    subprocess.run(cmd, env=env, check=True)  # writes the bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_report(tracer, untraced, traced):
    """Per-pass means over the traced passes, and the tracing overhead.

    Means, so that the layer times add up to the pass time they are
    compared with; unscaled, since the overhead is a difference of two
    timings of the same run.
    """
    table = tracer.layer_metrics(len(traced))
    nodes = table["hilbert.k_polynomial_monomial.calls"]
    hits = table.pop("hilbert.k_polynomial_monomial.memo_hits")
    table["hilbert.k_polynomial_monomial.memo_hit_ratio"] = hits / nodes if nodes else 0.0
    table["trace.untraced_wall_s"] = statistics.mean(map(pass_seconds, untraced))
    table["trace.wall_s"] = statistics.mean(map(pass_seconds, traced))
    table["trace.overhead_s"] = table["trace.wall_s"] - table["trace.untraced_wall_s"]
    return table


def per_layer_names():
    names = [f"{fn}.{kind}" for fn in LAYER_FUNCTIONS for kind in ("calls", "busy_s", "self_s")]
    return names + list(LAYER_EXTRAS)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "mdeg" / "cli.py").is_file() or not EXPECTED.is_file():
        print(f"mdeg sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in jobs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {jobs.WORKLOADS}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())[args.workload]
    setup_s = measure_setup() if args.trace == 0 else None
    job_list = jobs.build(args.workload, args.seed, WORK / args.workload)
    signal.signal(signal.SIGALRM, _alarm)
    deadline = started + RUN_BUDGET_S
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(job_list, expected, deadline, tracer)

    if tracing.installed_wrappers():
        raise RuntimeError("mdeg is wrapped before tracing was asked for")
    runner.run_pass()  # warm-up
    passes, traced = [], []
    stop = time.perf_counter() + args.seconds
    while True:
        passes.append(runner.run_pass())
        if tracer is not None:
            tracer.install()
            try:
                stale = tracer.stale_bindings()
                if stale:
                    raise RuntimeError(f"untraced bindings: {stale}")
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
        if time.perf_counter() >= stop or runner.failures:
            break

    if tracer is None:
        if tracing.installed_wrappers():
            raise RuntimeError("the untraced run left wrappers installed")
        speed = host_speed(runner.reference)
        metrics = {
            "wall_s": _metric(statistics.median(map(pass_seconds, passes)) * speed, "s"),
            "max_job_s": _metric(statistics.median(map(slowest_job, passes)) * speed, "s"),
            "setup_s": _metric(setup_s * speed, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        table = layer_report(tracer, passes, traced)
        (WORK / f"layers-{args.workload}.json").write_text(json.dumps(table, indent=1, sort_keys=True))
        tracer.write_spans(WORK / f"spans-{args.workload}.tsv")
        metrics = {name: _metric(table.get(name, 0), unit_of(name)) for name in per_layer_names()}

    walls = sorted(map(pass_seconds, passes))
    print(f"# unscaled pass seconds: median {statistics.median(walls):.4f}, "
          f"max {walls[-1]:.4f}; host speed factor {host_speed(runner.reference):.4f}",
          file=sys.stderr)
    failed = len(runner.failures)
    for msg in runner.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} timed passes, "
          f"{runner.attempted} jobs, failed_frac {failed / runner.attempted:.4f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
