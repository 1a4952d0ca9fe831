#!/usr/bin/env python3
"""Runs alternated perfbench pairs of two dwqa checkouts and compares them.

Usage:
  scripts/perf_pairs.py --parent DIR --change DIR --workload W
      [--seed 1] [--pairs 5] [--seconds S] [--workdir DIR]

DIR is the root of a dwqa checkout, for example a `git archive` of the
parent commit and one of the change. Each pair runs

  python3 LINK/perfbench/run.py --workload W --seed N --seconds S --trace 0

once for each side, one after the other, and the side that runs first
alternates from pair to pair. perfbench/run.py builds its benchmark under
the checkout's .bench_build/ on the first call; the build writes to stderr
before the timed run starts. --seconds defaults to BENCHMARK.json's
run_seconds.

Memory layout moves perfbench's numbers by several percent without any
change of code: the length of the checkout's path and the size of the
environment both shift where the stack and the heap land (Mytkowicz et
al., ASPLOS 2009). So the script holds the one and samples the other:

- Fixed path. LINK is WORKDIR/dwqa, a symbolic link that the script
  points at the side about to run. run.py takes its paths from abspath,
  which keeps the link, so both sides build, embed and run under the same
  path strings, and both run from WORKDIR as their working directory.
  A checkout's .bench_build/ must therefore be configured through LINK:
  the script stops when one was configured at another path.
- Sampled layout. Each pair draws one environment pad, a variable
  PERF_PAIRS_PAD of 0 to 4095 bytes seeded by PAD_SEED and the pair's
  number, and both sides of the pair run with it. Nothing reads it.

For every end-to-end metric that the change checkout's BENCHMARK.json
declares, the script prints the parent's and the change's medians, the
parent's interquartile range, the ratio of the medians, the change's wins
(pairs where it reads better; ties count for neither side) and whether the
change's median is worse than the parent's by more than the metric's
bound, taken relative to the parent's median. Beside them it prints the
pair ratios (change over parent, one per pad): their median and the range
between their quartiles. It also prints each side's failed share of
attempted operations. A run that exits non-zero or reports correct=false
stops the script. Nothing under perfbench/ is edited.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

PAD_VARIABLE = "PERF_PAIRS_PAD"
MAX_PAD_BYTES = 4096
PAD_SEED = 1


def point_link(link, checkout):
    """Atomically points the symbolic link `link` at `checkout`."""
    staged = link + ".next"
    if os.path.lexists(staged):
        os.remove(staged)
    os.symlink(os.path.abspath(checkout), staged)
    os.replace(staged, link)


def check_build_path(checkout, link):
    """Stops when the checkout's benchmark build was configured elsewhere."""
    cache = os.path.join(checkout, ".bench_build", "perfbench",
                         "CMakeCache.txt")
    if not os.path.isfile(cache):
        return
    want = os.path.join(link, ".bench_build", "perfbench")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CACHEFILE_DIR:INTERNAL="):
                if line.split("=", 1)[1].strip() != want:
                    sys.exit(f"perf_pairs: {cache} was configured at another "
                             f"path; remove {checkout}/.bench_build so that "
                             f"it is built again under {link}")
                return


def run_once(link, workdir, workload, seed, seconds, pad):
    """One untraced perfbench run through `link`: its parsed JSON result."""
    cmd = [sys.executable, os.path.join(link, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PWD=workdir)
    env[PAD_VARIABLE] = "x" * pad
    proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    target = os.path.realpath(link)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run failed in {target} "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit(f"perf_pairs: {target} reported correct=false")
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
    parser.add_argument("--workdir", default=os.path.join(
        tempfile.gettempdir(), "dwqa-perf-pairs"),
        help="directory holding the fixed link; the runs' working directory")
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("perf_pairs: --pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if float(seconds).is_integer():
        seconds = int(seconds)
    metrics = bench["end_to_end"]

    workdir = os.path.abspath(args.workdir)
    os.makedirs(workdir, exist_ok=True)
    link = os.path.join(workdir, "dwqa")
    sides = {"parent": args.parent, "change": args.change}
    for checkout in sides.values():
        check_build_path(checkout, link)

    runs = {"parent": [], "change": []}
    pads = []
    for pair in range(args.pairs):
        pad = random.Random(PAD_SEED * 1000003 + pair).randrange(
            MAX_PAD_BYTES)
        pads.append(pad)
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            point_link(link, sides[side])
            runs[side].append(run_once(link, workdir, args.workload,
                                       args.seed, seconds, pad))
        print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first, "
              f"pad {pad} B)", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {seconds} s per run, "
          f"{args.pairs} alternated pairs from {link}, pads {pads} B "
          f"(pad seed {PAD_SEED})")
    print(f"{'metric':<18} {'parent':>11} {'parent IQR':>11} "
          f"{'change':>11} {'ratio':>7} {'pair ratio':>10} "
          f"{'ratio IQR':>15} {'wins':>6}  verdict")
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
        pair_ratios = [c / p for p, c in zip(parent, change) if p]
        if pair_ratios:
            r_med = statistics.median(pair_ratios)
            r_q1, r_q3 = quartiles(pair_ratios)
            spread = f"{r_q1:.3f}-{r_q3:.3f}"
        else:
            r_med = float("nan")
            spread = "n/a"
        if lower:
            worse = c_med > p_med * (1 + metric["bound"])
        else:
            worse = c_med < p_med * (1 - metric["bound"])
        verdict = (f"WORSE beyond bound {metric['bound']}" if worse
                   else "within bound")
        print(f"{name:<18} {p_med:>11.4g} {q3 - q1:>11.4g} {c_med:>11.4g} "
              f"{ratio:>7.3f} {r_med:>10.3f} {spread:>15} "
              f"{wins:>3}/{args.pairs}  {verdict}")
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        share = failed / attempted if attempted else 0.0
        print(f"{side}: {failed} of {attempted} operations failed "
              f"({share:.4%})")


if __name__ == "__main__":
    main()
