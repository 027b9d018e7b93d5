#!/usr/bin/env python3
"""Benchmark of the hombeat chain: one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline|sweep|fit --seed N \\
        --seconds S --trace 0|1

The workload's inputs are made from the seed during set-up. The run then
repeats whole passes over them until S seconds have gone by (and, without
tracing, until at least 40 ops have run, so that the tail latency has ten
samples beyond it). Every op's outputs are checked after its timer stops.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans`` with ``--trace 1``. Result
and span files go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: a single client on a single core, steadier on a shared
# machine. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_TAIL_OPS = 40
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "sweep", "fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times set-up)")
    return parser.parse_args(argv)


def _measure(workload, inputs, seconds, min_ops, tracer):
    """Whole passes over the inputs; returns latencies and op outcomes."""
    latencies, failures, problems = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        for inp in inputs:
            if tracer:
                tracer.op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = (tracer.wrap("op", workload.op)(inp) if tracer
                       else workload.op(inp))
            except Exception:  # an op that raises counts as failed
                failures.append(traceback.format_exc(limit=3))
                continue
            latency = time.perf_counter() - t0
            why = workload.failure(inp, out)
            if why:
                failures.append(why)
                continue
            latencies.append(latency)
            try:
                problems += workload.check(inp, out)
            except Exception:  # unreadable outputs are wrong outputs
                problems.append(traceback.format_exc(limit=3))
        if time.perf_counter() - start >= seconds and attempted >= min_ops:
            if not latencies:
                raise RuntimeError(f"every op failed; the first: {failures[0]}")
            return latencies, attempted, failures, problems


def _setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to their 'ready' line.

    Each child imports the package and makes and writes the inputs exactly
    as a run does, then exits; the children run one after another.
    """
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            rc = child.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up process failed with exit code {rc}")
        times.append(elapsed)
    return times


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it, and which."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "hombeat", "__init__.py")):
        print(f"perfbench: no package source under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload]()
        inputs = workload.setup(args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        result, latencies = (_traced_run if args.trace else _timed_run)(
            args, workload, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, latencies_s=latencies), fh, indent=1)
    for key, metric in result["metrics"].items():
        print(f"{key:>22} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


def _outcome(attempted, failures, problems, metrics):
    for text in (failures + problems)[:10]:
        print(text, file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def _timed_run(args, workload, inputs):
    latencies, attempted, failures, problems = _measure(
        workload, inputs, args.seconds, MIN_TAIL_OPS, None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = _setup_seconds(args)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
    }
    if len(latencies) >= MIN_TAIL_OPS:
        tail, pct = _tail(latencies)
        metrics["op_tail_s"] = (tail, "s")
        print(f"op_tail_s is p{pct:.2f} of {len(latencies)} ops",
              file=sys.stderr)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return _outcome(attempted, failures, problems, metrics), latencies


def _traced_run(args, workload, inputs):
    """Four ops tracing memory, then passes tracing time for the run.

    Under tracemalloc a map takes ten times as long, so memory is traced on
    four inputs spread over the list, not on a whole pass.
    """
    from spans import Tracer, layer_metrics

    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        _measure_with_spans(memory, workload, inputs[::-(-len(inputs) // 4)], 0)
    finally:
        tracemalloc.stop()
    timing = Tracer()
    latencies, attempted, failures, problems = _measure_with_spans(
        timing, workload, inputs, args.seconds)
    timing.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    print(f"traced op p50 {statistics.median(latencies):.6g} s over "
          f"{len(latencies)} ops", file=sys.stderr)
    return _outcome(attempted, failures, problems,
                    layer_metrics(timing, memory, attempted)), latencies


def _measure_with_spans(tracer, workload, inputs, seconds):
    from spans import install_package_spans

    install_package_spans(tracer)
    try:
        return _measure(workload, inputs, seconds, 1, tracer)
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main())
