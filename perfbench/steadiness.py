#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/steadiness.py [--first-seed N] [--workloads fit sweep]

It makes ten runs per workload, seeds N to N + 9, each as long as
BENCHMARK.json's run_seconds. For every workload and end-to-end metric it
prints the median over the runs, the quartile spread (q3 - q1) / median as
statistics.quantiles gives it, and the metric's bound from BENCHMARK.json;
a spread above a third of the bound is flagged. It also prints the share
of failed ops, which must be the same on every seed.
Runs go one after another; raw results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {RUNS} runs, correct "
              f"{all(r['correct'] for r in results)}, failed shares {shares}")
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 else "  WIDE"
            print(f"  {name:>12} median {median:.6g}  spread {spread:.2%}  "
                  f"bound {bound:.0%}{flag}")
            summary[workload][name] = {"median": median, "spread": spread,
                                       "values": values}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steadiness-{'-'.join(args.workloads)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
