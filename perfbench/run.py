#!/usr/bin/env python3
"""Builds the dwqa end-to-end benchmark from source and runs it.

Run from the root of a dwqa checkout:

    python3 perfbench/run.py --workload ask_live --seed 1 --seconds 20 --trace 0

The first call configures and builds the dwqa libraries and the benchmark binary
under .bench_build/perfbench (Release); later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Arguments are passed to the binary unchanged (see
perfbench/README.md for the workloads and metrics).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dwqa_perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench-run")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no dwqa sources next to " + HERE)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dwqa_perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    build()
    # Write back what the build (or an earlier run) left dirty, so that the
    # feed_bi WAL's fsyncs do not wait for it.
    os.sync()
    os.makedirs(WORKDIR, exist_ok=True)
    sys.stdout.flush()
    result = subprocess.run([BINARY] + sys.argv[1:] + ["--workdir", WORKDIR])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
