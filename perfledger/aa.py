#!/usr/bin/env python3
"""Same-commit A/A check: two interleaved sets of runs of one build.

    python3 perfledger/aa.py [--runs 5] [--workloads hit_direct,...] [--first-seed 1]

Run from the repository root.  For every workload it makes `--runs` rounds;
each round runs set A and set B once (A first in even rounds, B first in odd
ones), every run with its own seed, at BENCHMARK.json's run_seconds.  It then
prints, per workload and end-to-end metric, each set's median and quartiles
(statistics.quantiles, n=4), the spread (quartile distance over the
median) of each set and of both together against the metric's bound, and
how much worse B's median is than A's.  Exit status 1 when any spread except
setup_s's, or any shift, exceeds its bound; run it before claiming a change
moved a number.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}, "
                           f"last line {lines[-1] if lines else '(none)'}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload (>= 2)")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    seed = args.first_seed
    failures = 0
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for r in range(args.runs):
            for side in ("AB" if r % 2 == 0 else "BA"):
                sets[side].append(run_once(workload, seed,
                                           spec["run_seconds"]))
                seed += 1
        print(f"\n{workload} ({args.runs} runs per set)")
        print(f"  {'metric':16s} {'A median [q1, q3]':>32s} {'spread':>7s} "
              f"{'B median [q1, q3]':>32s} {'spread':>7s} {'A+B':>6s} "
              f"{'B worse':>8s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([run[name] for run in sets["A"]])
            b = summary([run[name] for run in sets["B"]])
            both = summary([run[name] for run in sets["A"] + sets["B"]])
            worse = (b[1] - a[1]) / a[1]
            if metric["better"] == "higher":
                worse = -worse
            bad = worse > bound or (name != "setup_s" and
                                    max(a[3], b[3], both[3]) > bound)
            failures += bad
            print(f"  {name:16s} {a[1]:12.6g} [{a[0]:.6g}, {a[2]:.6g}]"
                  f" {a[3]:7.3f} {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                  f" {b[3]:7.3f} {both[3]:6.3f} {worse:8.3f} {bound:6.2f}"
                  f"{'  OVER BOUND' if bad else ''}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
