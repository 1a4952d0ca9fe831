#!/usr/bin/env python3
"""Runs alternated perfbench pairs of two dwqa checkouts and compares them.

Usage:
  scripts/perf_pairs.py --parent DIR --change DIR --workload W
      [--seed 1] [--pairs 5] [--seconds S]

DIR is the root of a dwqa checkout, for example a `git worktree` of the
parent commit and one of the change. Each pair runs

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0

in both checkouts, one after the other, and the side that runs first
alternates from pair to pair. perfbench/run.py builds its benchmark under
the checkout's .bench_build/ on the first call; the build writes to stderr
before the timed run starts. --seconds defaults to BENCHMARK.json's
run_seconds.

For every end-to-end metric that the change checkout's BENCHMARK.json
declares, the script prints the parent's and the change's medians, the
parent's interquartile range, the change's wins (pairs where it reads
better; ties count for neither side) and whether the change's median is
worse than the parent's by more than the metric's bound, taken relative
to the parent's median. It also prints each side's failed share of
attempted operations. A run that exits non-zero or reports correct=false
stops the script. Nothing under perfbench/ is edited.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run in `checkout`: its parsed JSON result."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run failed in {checkout} "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit(f"perf_pairs: {checkout} reported correct=false")
    return result


def quartiles(values):
    """(q1, q3) of `values`; both equal the value for a single run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("perf_pairs: --pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if float(seconds).is_integer():
        seconds = int(seconds)
    metrics = bench["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(
                run_once(sides[side], args.workload, args.seed, seconds))
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {seconds} s per run, "
          f"{args.pairs} alternated pairs")
    print(f"{'metric':<18} {'parent':>12} {'parent IQR':>12} {'change':>12} "
          f"{'ratio':>7} {'wins':>6}  verdict")
    for metric in metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p_med = statistics.median(parent)
        c_med = statistics.median(change)
        q1, q3 = quartiles(parent)
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        ratio = c_med / p_med if p_med else float("nan")
        if lower:
            worse = c_med > p_med * (1 + metric["bound"])
        else:
            worse = c_med < p_med * (1 - metric["bound"])
        verdict = (f"WORSE beyond bound {metric['bound']}" if worse
                   else "within bound")
        print(f"{name:<18} {p_med:>12.4g} {q3 - q1:>12.4g} {c_med:>12.4g} "
              f"{ratio:>7.3f} {wins:>3}/{args.pairs}  {verdict}")
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        share = failed / attempted if attempted else 0.0
        print(f"{side}: {failed} of {attempted} operations failed "
              f"({share:.4%})")


if __name__ == "__main__":
    main()
