#!/usr/bin/env python3
"""End-to-end benchmark of the biquandles engine, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each exists): validate, symmetry,
coloring, cli.  Each is a closed loop with one client: one process and one
thread issue the jobs one after another.  The job list of a workload is one
round; rounds repeat for about --seconds, with at least MIN_JOBS jobs, and
every job's output is checked after its round.

--trace 0 reports the end-to-end metrics with nothing wrapped:
  solve_s      time for the whole job list: the sum of each job's median time
  job_p50_ms   the median over the jobs of their median times
  job_tail_ms  the p90 of all job times of the run (at least ten lie beyond)
  setup_s      import plus input generation, the median of SETUP_SAMPLES
               set-ups, each in a fresh interpreter but the first
  peak_rss_mb  peak resident memory of this process (cli: of its children)
Every time is scaled for the machine's speed while it was taken (speed.py).
The result's `failed` over `attempted` is the fail ratio: jobs whose output
was wrong or that raised.

--trace 1 is a separate run that wraps each layer's public functions
(spans.py) and reports per-layer figures for set-up plus one round, after
checking that the work counters of every traced round agree exactly.
--smoke runs the workload at reduced size.

Seed 1 is the default.  Seed 7 is held out: leave it unused while working on
a change and confirm a claimed gain on it.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it give the environment, the metrics with
their units, and the job count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import spans
from speed import SpeedClock

SETUP_SAMPLES = 3
STARTUP_PROBES = 5  # interpreter start-ups timed for the cli layer
WORKLOADS = ("validate", "symmetry", "coloring", "cli")
TAIL_PERCENTILE = 90
MIN_JOBS = 100  # so that at least ten jobs lie beyond the tail percentile

END_TO_END = {
    "solve_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for name in [*spans.COUNT_METRICS, "kernels.sweep_triples"]:
        units[name] = "count"
    units["kernels.sweep_bytes_computed"] = "bytes"
    units["cli.stdout_bytes"] = "bytes"
    for name in ("kernels.closure_ok_ratio", "search.closures_per_call", "enumeration.iso_true_ratio"):
        units[name] = "ratio"
    for name in [*spans.TIME_METRICS, "cli.interpreter_s", "cli.import_s", "cli.self_s", "trace.overhead_s"]:
        units[name] = "s"
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced input sizes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "biquandles" / "__init__.py").is_file():
        print(f"error: no biquandles source tree at {root / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir, SpeedClock() as clock:
        if args.setup_probe:
            print(setup(args, root, workdir, clock)[0])
            return 0
        return (traced if args.trace else untraced)(args, root, workdir, clock)


def setup(args, root, workdir, clock, tracer=None):
    """Import the library and build the workload's inputs.

    Returns the scaled set-up time, the workloads module, the library and
    the workload.
    """

    def build():
        import workloads

        lib = workloads.load_library(root)
        if tracer is not None:
            install(tracer, workloads)
        return workloads, lib, workloads.build(args.workload, lib, args.seed, args.smoke, root, workdir)

    (workloads, lib, workload), seconds, _ = clock.time(build)
    return seconds, workloads, lib, workload


def install(tracer, workloads):
    note = lambda a, out: {"stdout_bytes": len(out.stdout.encode())}  # noqa: E731
    tracer.install(extra=[(workloads, "cli_process", "cli.process", note)])


def setup_probe(args, root):
    """Set-up time in a fresh interpreter, as a user starting the workload pays it."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(argv + (["--smoke"] if args.smoke else []), cwd=root, capture_output=True, text=True,
                         timeout=170, check=True)
    return float(out.stdout.split()[-1])


def run_rounds(workload, clock, seconds, min_rounds, tracer=None):
    """Repeat the job list for about `seconds`; rounds of checked rows.

    A further round starts while it would end nearer to `seconds` than
    stopping now does, so a run measures whole rounds.
    """
    rounds = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds
        if tracer is not None:
            tracer.phase = len(rounds)
        results = []
        for job in workload.jobs:
            try:
                out, latency, wall = clock.time(job.run)
                error = None
            except Exception as e:  # a job that raises is a failed job
                out, latency, wall, error = None, 0.0, 0.0, e
            results.append((job, latency, wall, out, error))
        if tracer is not None:
            with tracer.paused():
                rounds.append(check(results))
        else:
            rounds.append(check(results))


def check(results):
    """One row (name, scaled latency, wall latency, ok) per job."""
    rows = []
    for job, latency, wall, out, error in results:
        ok = False
        if error is not None:
            print(f"job {job.name} raised {error!r}", file=sys.stderr)
        else:
            try:
                ok = bool(job.check(out))
            except Exception:
                traceback.print_exc()
            if not ok:
                print(f"job {job.name}: wrong output", file=sys.stderr)
        rows.append((job.name, latency, wall, ok))
    return rows


def percentile(values, p):
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_rounds(args, workload):
    """Enough rounds for MIN_JOBS jobs, except in a smoke run."""
    return 1 if args.smoke else -(-MIN_JOBS // len(workload.jobs))


def job_medians(rounds, column=1):
    """Each job's median time across rounds (column 2: unscaled)."""
    return [statistics.median(r[i][column] for r in rounds) for i in range(len(rounds[0]))]


def tally(rounds):
    rows = [row for r in rounds for row in r]
    return len(rows), sum(not ok for *_, ok in rows)


def env_stamp(root, lib):
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "biquandles").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "HAVE_NUMBA": lib.kernels.HAVE_NUMBA,
        "BIQUANDLES_NO_NUMBA": os.environ.get("BIQUANDLES_NO_NUMBA"),
    }


def report(args, root, lib, rounds, metrics, units, correct=True):
    attempted, failed = tally(rounds)
    print("# env " + json.dumps(env_stamp(root, lib), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, 1 client, "
          f"{len(rounds)} rounds of {len(rounds[0])} jobs")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6f} {units[name]}")
    print(f"{'fail_ratio':34s} {failed / attempted:14.6f} ratio ({failed} of {attempted} jobs)")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def untraced(args, root, workdir, clock):
    first, _, lib, workload = setup(args, root, workdir, clock)
    setups = [first] + [setup_probe(args, root) for _ in range(SETUP_SAMPLES - 1)]
    rounds = run_rounds(workload, clock, args.seconds, min_rounds(args, workload))
    latencies = [row[1] for r in rounds for row in r]
    if workload.child_rss_kb:
        rss_kb = max(workload.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    medians = job_medians(rounds)
    metrics = {
        "solve_s": sum(medians),
        "job_p50_ms": statistics.median(medians) * 1e3,
        "job_tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    print(f"# job_tail_ms is p{TAIL_PERCENTILE} of {len(latencies)} jobs; unscaled wall-clock solve "
          f"{sum(job_medians(rounds, column=2)):.4f} s")
    return report(args, root, lib, rounds, metrics, END_TO_END)


def traced(args, root, workdir, clock):
    tracer = spans.Tracer()
    _, workloads, lib, workload = setup(args, root, workdir, clock, tracer)
    tracer.uninstall()
    plain = run_rounds(workload, clock, args.seconds / 2, 1)
    install(tracer, workloads)
    rounds = run_rounds(workload, clock, args.seconds / 2, 2, tracer)
    tracer.uninstall()

    per_round = [spans.summarize(tracer.spans, i) for i in range(len(rounds))]
    metrics = spans.layer_metrics(spans.summarize(tracer.spans, "setup"), per_round)
    repeated = all(spans.repeat_counts(r) == spans.repeat_counts(per_round[0]) for r in per_round)
    if not repeated:
        print("REPEAT CHECK FAILED: work counters differ between traced rounds:", file=sys.stderr)
        for r in per_round:
            print(json.dumps(spans.repeat_counts(r), sort_keys=True), file=sys.stderr)

    interpreter = import_ = 0.0
    if args.workload == "cli":
        interpreter = startup_seconds(workloads, root, workdir, "pass")
        import_ = startup_seconds(workloads, root, workdir, "import biquandles") - interpreter
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = import_
    metrics["cli.self_s"] = metrics["cli.process_s"] - metrics["cli.invocations"] * (interpreter + import_)
    metrics["trace.overhead_s"] = sum(job_medians(rounds)) - sum(job_medians(plain))
    print(f"# per-layer figures: set-up plus one round; times are unscaled, the median of {len(rounds)} "
          f"traced rounds; trace.overhead_s is scaled")
    return report(args, root, lib, plain + rounds, dict(sorted(metrics.items())), per_layer_units(),
                  correct=repeated)


def startup_seconds(workloads, root, workdir, code):
    times = []
    for _ in range(STARTUP_PROBES):
        start = perf_counter()
        workloads.python_process(root, workdir, ["-c", code])
        times.append(perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
