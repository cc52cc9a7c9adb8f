#!/usr/bin/env python3
"""Build and run the ciflow perfbench harness.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The first run configures and builds the library from src/ plus the
harness into .bench_build/perfbench (CMake, Release); later runs only
rebuild what changed. The harness output is passed through; its last
line is the JSON result. Exits nonzero without a result when the
library sources are missing or the build fails, and with the harness
exit code otherwise.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep", "tune", "serve_light", "serve_faults")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = "perfbench"
    if not os.path.isfile(os.path.join(root, "src", "rpu", "runner.h")):
        sys.stderr.write("perfbench: library sources (src/) not found; "
                         "run from the repository root\n")
        return 2
    build_dir = os.path.join(".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 3

    spans_dir = os.path.join(".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--digests", os.path.join(bench_dir, "digests",
                                     args.workload + ".txt"),
           "--spans-out", os.path.join(spans_dir, args.workload + ".tsv")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
