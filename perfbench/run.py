"""The supergeo benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload superalgebra --seed 1 --seconds 35 --trace 0

The program under test is imported from ``src/`` of the same checkout.  The
client runs jobs back to back (a closed loop), one at a time.  Every job
checks its own exact result; a wrong result or an unexpected exception
counts as failed.

A workload's jobs follow a fixed schedule of job kinds, in rounds.
``--seconds`` sets the amount of work: the number of rounds that takes about
that long on the machine the workload's ``round_seconds`` was measured on.
A run always does whole rounds, so every run of a workload has the same
number and mix of jobs, whatever the speed of the machine at the time; only
the times differ.

sympy's running time depends on the interpreter's string-hash layout, which
Python draws afresh for every process.  So one run is split over the
workload's ``workers`` fresh interpreters, started one after the other, each
with its own ``PYTHONHASHSEED`` derived from ``--seed``.  Each worker imports
supergeo, builds the workload's fixtures, warms up, and then runs its rounds
(rounds are dealt to the workers in turn).  The job times of all workers are
pooled.

On a shared 2-vCPU virtual machine the speed of one process changes by up
to 2x within seconds, and a wall-clock time taken alone cannot tell that
drift from a change to the program.  So a worker also times a fixed
pure-Python reference loop before each job and after the last one (untimed
for the jobs), and scales each job's time by ``REFERENCE_S`` over the median
of the ``SCALE_WINDOW`` reference timings before it and as many after it
(fewer at the ends), so that one slow reference timing does not set a
job's scale.  The reported job times are
therefore seconds at the speed at which the reference loop takes
``REFERENCE_S``; the raw wall times are printed on the lines before the JSON
and written, next to the scaled ones, to
``.perfbench_out/result-<workload>.json``.  Set-up times are scaled by
``REFERENCE_S`` over the median of all the run's reference timings: the
machine's speed in the seconds around one set-up is too noisy to scale it
by, but its speed over the whole run removes the slower drift between runs.

* ``--trace 0`` reports the end-to-end metrics: throughput, median and tail
  job time, set-up time (median of ``SETUP_SAMPLES`` set-ups: the workers'
  and those of processes that only set up, started between the workers)
  and peak memory (largest over the workers).  No wrappers are installed.
* ``--trace 1`` runs the same rounds (half a run's) in one traced and one
  untraced worker with the same hash seed, and reports the traced worker's
  per-layer call counts and self times and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give the same
figures for a reader, with the failure ratio, the tail percentile and its
sample count, and a digest of the rendered outputs of the first jobs.  Spans
and per-job records go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL_BEYOND = 10
# The first jobs of worker 0 have the same inputs on every commit for a
# seed, so their digest shows whether results stayed byte-identical.
DIGEST_JOBS = 8
# A run must end within 180 s; a worker that takes longer is stopped.
RUN_DEADLINE_S = 170
# Set-up samples per untraced run: one from each worker, the rest from
# processes that only set up, started before, between and after the
# workers so that the samples spread over the run's whole time.
SETUP_SAMPLES = 5
# Median time of reference_work() on a 2-vCPU x86-64 virtual machine with
# Python 3.11.7, so scaled times stay close to wall times there.
REFERENCE_S = 0.0093
# Reference timings on each side of a job that set its scale.
SCALE_WINDOW = 3


def reference_work():
    """Seconds for a fixed pure-Python loop of Fraction and dict work.

    The garbage collector is off while it runs, so the objects the program
    keeps alive cannot change the loop's time (and with it the scale)."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        for k in range(1, 1400):
            q = Fraction(k % 17 + 1, k % 13 + 2)
            key = (k % 31, k % 7)
            acc[key] = acc.get(key, 0) + q * q
        return time.perf_counter() - start
    finally:
        gc.enable()


def load_program():
    """Import supergeo from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import supergeo
    except ImportError as exc:
        print(f"perfbench: cannot import supergeo from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(supergeo.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: supergeo came from {supergeo.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return supergeo


def render(obj) -> str:
    """Canonical text of a job output, for the digest."""
    if isinstance(obj, str):
        return obj
    if hasattr(obj, "entries"):  # SuperMatrix
        return ";".join(e.render() for row in obj.entries for e in row)
    if hasattr(obj, "components"):  # VectorField
        return ";".join(c.render() for c in obj.components)
    return obj.render()


class JobRecord:
    __slots__ = ("index", "kind", "seconds", "ok", "digest")

    def __init__(self, index, kind, seconds, ok, digest):
        self.index = index
        self.kind = kind
        self.seconds = seconds
        self.ok = ok
        self.digest = digest

    def as_list(self):
        return [self.index, self.kind, self.seconds, self.ok, self.digest]


def execute(workload, job, index, tracer=None):
    """Run one job under the clock and check it; never raises."""
    workload.prepare(job)
    if tracer is not None:
        tracer.job = index
    start = time.perf_counter()
    try:
        ok, outputs = workload.run(job)
    except Exception:  # a job that raises counts as failed, the loop goes on
        seconds = time.perf_counter() - start
        print(f"perfbench: job {index} ({job.kind}) raised:\n{traceback.format_exc()}",
              file=sys.stderr)
        return JobRecord(index, job.kind, seconds, False, "raised")
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.paused = True
    try:
        digest = hashlib.sha256("\n".join(map(render, outputs)).encode()).hexdigest()
    finally:
        if tracer is not None:
            tracer.paused = False
            tracer.job = -1
    if not ok:
        print(f"perfbench: job {index} ({job.kind}) failed its check", file=sys.stderr)
    return JobRecord(index, job.kind, seconds, bool(ok), digest)


def closed_loop(workload, rounds, worker=0, workers=1, tracer=None):
    """Run ``rounds`` rounds of the job stream: rounds worker, worker +
    workers, ...  Rounds of other workers are drawn but skipped, so no two
    jobs of one seed share an input.  Returns the job records and the
    reference-loop timings taken before each job and after the last one."""
    records = []
    references = []
    round_no = 0
    for index, (job, ends_round) in enumerate(workload.jobs()):
        if round_no % workers == worker:
            references.append(reference_work())
            records.append(execute(workload, job, index, tracer))
        round_no += ends_round
        if round_no == rounds * workers:
            break
    references.append(reference_work())
    return records, references


def rounds_for(seconds, workload_name, workers):
    """Rounds per worker so that ``workers`` workers take about ``seconds``."""
    from workloads import WORKLOADS

    return max(1, round(seconds / (workers * WORKLOADS[workload_name].round_seconds)))


def tail(times):
    """The job time with TAIL_BEYOND samples beyond it, with its percentile
    and the number of samples beyond it."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def summary(records):
    times = [r.seconds for r in records]
    ok = sum(r.ok for r in records)
    value, pct, beyond = tail(times)
    return {
        "attempted": len(records),
        "failed": len(records) - ok,
        "jobs_per_s": ok / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "fail_ratio": (len(records) - ok) / len(records),
    }


def setup_workload(workload_name, seed):
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, ROOT)
    workload.setup()
    for index, job in enumerate(workload.warmup_jobs()):
        if not execute(workload, job, -1 - index).ok:
            raise SystemExit(f"perfbench: warm-up job {job.kind} failed")
    return workload


def out_dir():
    path = ROOT / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, records):
    """Per-layer metrics of one traced worker."""
    from tracing import SPAN_NAMES

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = metric(tracer.self_s[name], "s")
    for layer, value in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = metric(value, "s")
    validate_calls = tracer.calls["geometry.validate_metric"]
    metrics["scalars.peak_terms"] = metric(tracer.peak_terms, "count")
    metrics["scalars.peak_grassmann_degree"] = metric(tracer.peak_degree, "count")
    metrics["exactlinalg.cells"] = metric(tracer.cells, "count")
    metrics["geometry.metric_reuse_ratio"] = metric(
        len(tracer.distinct_metrics) / validate_calls if validate_calls else 0.0, "ratio")
    covered = sum(tracer.job_span_time(r.index) for r in records)
    metrics["trace.span_coverage"] = metric(covered / sum(r.seconds for r in records),
                                            "ratio")
    metrics["trace.spans"] = metric(sum(tracer.calls.values()), "count")
    metrics["trace.observer_s"] = metric(tracer.observer_s, "s")
    return metrics


# -- worker process ---------------------------------------------------------------


def worker_main(args):
    """Set up, then run this worker's rounds (none: set-up only)."""
    load_program()
    workload = setup_workload(args.workload, args.seed)
    ready = time.perf_counter()
    if args.rounds == 0:
        print(json.dumps({"ready": ready}))
        return 0
    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        records, references = closed_loop(workload, args.rounds, args.worker,
                                          args.workers, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "ready": ready,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": [r.as_list() for r in records],
        "references": references,
    }
    if tracer is not None:
        tracer.write(out_dir() / f"spans-{args.workload}.tsv")
        out["layers"] = layer_metrics(tracer, records)
        out["spans_stored"] = tracer.stored()
        out["spans_dropped"] = tracer.dropped
        out["observer_s"] = tracer.observer_s
    print(json.dumps(out))
    return 0


# -- parent process -----------------------------------------------------------------


def hash_seed(seed, k):
    return (seed * 1_000_003 + k * 7919) % 4_294_967_295


def spawn(args, worker, workers, traced, hseed, deadline, setup_only=False):
    """Run one worker to completion; return its output and set-up time."""
    rounds = 0 if setup_only else rounds_for(args.seconds, args.workload, workers)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--worker", str(worker), "--workers", str(workers),
           "--rounds", str(rounds), "--traced", str(int(traced))]
    env = dict(os.environ, PYTHONHASHSEED=str(hseed))
    start = time.perf_counter()
    timeout = max(deadline - start, 1.0)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker {worker} ran past the run's deadline", file=sys.stderr)
        raise SystemExit(3) from None
    if proc.returncode != 0:
        print(f"perfbench: worker {worker} exited with {proc.returncode}", file=sys.stderr)
        raise SystemExit(proc.returncode if proc.returncode > 0 else 3)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - start
    if setup_only:
        return out
    out["wall_records"] = [JobRecord(*r) for r in out["records"]]
    refs = out["references"]
    # refs[k] is timed just before job k, refs[k + 1] just after it
    out["scales"] = [REFERENCE_S / statistics.median(
                         refs[max(k + 1 - SCALE_WINDOW, 0):k + 1 + SCALE_WINDOW])
                     for k in range(len(out["records"]))]
    out["records"] = [JobRecord(i, kind, seconds * scale, ok, digest)
                      for (i, kind, seconds, ok, digest), scale
                      in zip(out["records"], out["scales"])]
    return out


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("job\tkind\tseconds\tok\tdigest\n")
        for r in records:
            fh.write(f"{r.index}\t{r.kind}\t{r.seconds:.9f}\t{int(r.ok)}\t{r.digest}\n")


def environment():
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return (f"python {platform.python_version()}, sympy {sympy.__version__} "
            f"(ground types {GROUND_TYPES}), nproc {os.cpu_count()}, "
            f"src lines {src_lines}")


def untraced_run(args, deadline):
    from workloads import WORKLOADS

    workers = WORKLOADS[args.workload].workers
    setup_only, outs = [], []
    for k in range(SETUP_SAMPLES):
        # workers at odd positions, set-up-only processes around them
        if k % 2 and len(outs) < workers or len(setup_only) == SETUP_SAMPLES - workers:
            n = len(outs)
            outs.append(spawn(args, n, workers, False, hash_seed(args.seed, n), deadline))
        else:
            n = workers + len(setup_only)
            setup_only.append(spawn(args, n, workers, False, hash_seed(args.seed, n),
                                    deadline, True))
    records = [r for out in outs for r in out["records"]]
    write_records(out_dir() / f"jobs-{args.workload}.tsv", records)
    s = summary(records)
    wall = summary([r for out in outs for r in out["wall_records"]])
    setup_wall = [out["setup_s"] for out in setup_only + outs]
    speed = REFERENCE_S / statistics.median(t for out in outs for t in out["references"])
    setup = [t * speed for t in setup_wall]
    head = outs[0]["records"][:DIGEST_JOBS]
    digest = hashlib.sha256("\n".join(r.digest for r in head).encode()).hexdigest()
    print(f"# {environment()}")
    print(f"# workload {args.workload} seed {args.seed}: {s['attempted']} jobs over "
          f"{workers} workers, {s['failed']} failed, fail_ratio {s['fail_ratio']:.4f}")
    print(f"# job_tail_s is p{s['tail_percentile']:.1f} of {s['attempted']} jobs "
          f"({s['tail_beyond']} beyond)")
    scales = ", ".join(f"{statistics.median(out['scales']):.4f}" for out in outs)
    print(f"# setup samples, wall clock (s): {', '.join(f'{t:.4f}' for t in setup_wall)}")
    print(f"# median speed scale per worker: {scales}; over the run: {speed:.4f}")
    print(f"# wall clock, unscaled: jobs_per_s {wall['jobs_per_s']:.6g}, job_p50_s "
          f"{wall['job_p50_s']:.6g}, job_tail_s {wall['job_tail_s']:.6g}, "
          f"setup_s {statistics.median(setup_wall):.6g}")
    print(f"# digest of the first {len(head)} jobs: {digest}")
    metrics = {
        "jobs_per_s": metric(s["jobs_per_s"], "jobs/s"),
        "job_p50_s": metric(s["job_p50_s"], "s"),
        "job_tail_s": metric(s["job_tail_s"], "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(max(out["maxrss_kb"] for out in outs) / 1024, "MiB"),
    }
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    # the unscaled figures next to the scaled ones, for checking that the two agree
    with open(out_dir() / f"result-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "metrics": metrics,
                   "wall": {k: wall[k] for k in ("jobs_per_s", "job_p50_s", "job_tail_s")},
                   "references": [out["references"] for out in outs],
                   "wall_seconds": [[r.seconds for r in out["wall_records"]] for out in outs],
                   "setup_samples": setup, "setup_wall_samples": setup_wall,
                   "fail_ratio": s["fail_ratio"], "tail_percentile": s["tail_percentile"],
                   "tail_beyond": s["tail_beyond"], "digest": digest}, fh, indent=1)
    return s, metrics


def overhead_ratio(plain_records, traced_records):
    """Traced over untraced time of the same jobs."""
    plain = {r.index: r.seconds for r in plain_records}
    return (sum(r.seconds for r in traced_records)
            / sum(plain[r.index] for r in traced_records))


def traced_run(args, deadline):
    from tracing import LAYERS

    # Two processes with the same hash seed run the same rounds (including
    # the first, which holds the golden scenarios), one traced and one not.
    hseed = hash_seed(args.seed, 0)
    traced = spawn(args, 0, 2, True, hseed, deadline)
    plain = spawn(args, 0, 2, False, hseed, deadline)
    p, s = summary(plain["records"]), summary(traced["records"])
    write_records(out_dir() / f"jobs-traced-{args.workload}.tsv", traced["records"])
    metrics = traced["layers"]
    metrics["trace.overhead_ratio"] = metric(
        overhead_ratio(plain["records"], traced["records"]), "ratio")
    print(f"# {environment()}")
    print(f"# workload {args.workload} seed {args.seed}: traced worker {s['attempted']} "
          f"jobs, {s['failed']} failed; untraced worker {p['attempted']} jobs, "
          f"{p['failed']} failed")
    print(f"# jobs_per_s untraced {p['jobs_per_s']:.4f}, traced {s['jobs_per_s']:.4f}")
    print(f"# spans stored {traced['spans_stored']}, dropped {traced['spans_dropped']}")
    print(f"# observers (outside every span's self time): {traced['observer_s']:.4f} s")
    for layer in LAYERS:
        print(f"# {layer}.self_s = {metrics[f'{layer}.self_s']['value']:.4f} s")
    return {"attempted": p["attempted"] + s["attempted"],
            "failed": p["failed"] + s["failed"]}, metrics


def main(argv=None):
    from workloads import WORKLOADS

    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # worker-process arguments, set by the parent
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.worker is not None:
        return worker_main(args)

    # turn a termination request into SystemExit, so the running worker is
    # killed and waited for before the parent exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = started + RUN_DEADLINE_S
    s, metrics = (traced_run if args.trace else untraced_run)(args, deadline)
    print(json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
