#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs one workload untraced N times with seeds 1..N, each for
BENCHMARK.json's run_seconds, and prints, per metric, the median and
the interquartile range as a share of the median — the figure
BENCHMARK.json's bounds are set against. Run from the repository root:

    python3 perfbench/spread.py --workload sweep --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not res.get("correct"):
            sys.exit("seed %d failed (exit %d): %s" %
                     (seed, out.returncode, res))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in res["metrics"].items())),
            flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        print("%-16s median %-12.6g iqr/median %.4f bound %s" %
              (name, med, spread, bounds.get(name)))


if __name__ == "__main__":
    main()
