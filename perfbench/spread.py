#!/usr/bin/env python3
"""Run one workload over several seeds; print medians and spreads.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10]
        [--seconds N] [--trace 0|1] [--verbose]

Run from the repository root. Each seed is one run of perfbench/run.py
(run one after another, never in parallel: the workloads use every
core). For each metric it prints the median over the runs, the
interquartile range as a share of the median (statistics.quantiles,
n=4) and, for end-to-end metrics, the bound from BENCHMARK.json. A
spread above a third of its bound is flagged. --seconds defaults to
BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, shares = {}, set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%s: %d runs of %d s, seeds %s, failed share %s" %
          (args.workload, len(args.seeds), seconds,
           ",".join(map(str, args.seeds)), sorted(shares)))
    print("%-38s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [0, 0, 0]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = "  > bound/3" if bound and spread > bound / 3 else ""
        print("%-38s %14.6g %8.4f %6s%s" %
              (name, med, spread, bound if bound else "-", flag))
        if args.verbose:
            print("    " + " ".join("%.4g" % v for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
