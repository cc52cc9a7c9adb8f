#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, both modes, checked.

Run from the repository root (about two minutes):

    python3 perfbench/selftest.py

For each workload it makes a short untraced run at the pinned default
seed and a short traced run at a second seed, echoes their metric
lines (name, value, unit, sample count) and failed_frac, and checks
that each run passes its output checks, prints exactly the metrics
BENCHMARK.json names with their units, and reports finite values:
every end-to-end metric above 0, and every per-layer metric live on
the workload (see README.md) above 0. Last, it checks that the
benchmark fails without printing a result when the library sources
are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics each workload must drive above 0.
LIVE = {
    "sweep": [
        "hksflow.build_graph_ms", "rpu.compile_ms", "rpu.experiment_ms",
        "runner.cache_misses", "rpu.sweep_runtimes_ns_per_point",
        "sim.replay_many_ns_per_lane_op", "rpu.bisect_us", "rpu.simulate_us",
        "sim.replay_ns_per_op", "obs.replay_traced_ns_per_op",
        "obs.critical_path_us", "obs.trace_overhead", "sim.share",
        "rpu.share", "obs.share", "trace.qps_overhead"],
    "tune": [
        "hksflow.build_graph_ms", "rpu.compile_ms", "rpu.experiment_ms",
        "runner.cache_hits", "runner.cache_misses", "tune.cd_ms",
        "tune.hc_ms", "tune.evaluations", "tune.cache_hit_rate",
        "tune.patched_frac", "tune.lane_occupancy", "tune.shard_points",
        "shard.place_us", "tune.share", "shard.share", "trace.qps_overhead"],
    "serve_light": [
        "serve.ctor_ms", "serve.estimator_evals", "serve.run_ns_per_job",
        "serve.batches_per_job", "serve.max_queue_depth", "serve.share",
        "trace.qps_overhead"],
    "serve_faults": [
        "serve.ctor_ms", "serve.fault_ctor_ms", "serve.estimator_evals",
        "serve.max_queue_depth", "serve.fault_run_ns_per_job",
        "sim.replay_piecewise_ns_per_op", "serve_fault.retries",
        "serve_fault.failovers", "serve_fault.degraded_frac", "serve.share",
        "trace.qps_overhead"],
}


def run(cwd, workload, seed, seconds, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)


def check(workload, trace, specs, live):
    # Untraced runs need >= 100 queries for p90; tune makes 10-20 a
    # second between its spread-out set-ups.
    out = run(ROOT, workload, 1 + trace, 4 if trace else 12, trace)
    errors = []
    for line in out.stdout.splitlines():
        if line.startswith(("workload ", "metric ")):
            print("    " + line)
    try:
        res = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return ["no JSON result line; stderr: " + out.stderr[-500:]]
    if out.returncode != 0 or res.get("correct") is not True:
        errors.append("run failed (exit %d): %s" %
                      (out.returncode, out.stderr[-500:]))
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(res))
    if res.get("failed") != 0 or res.get("attempted", 0) < 1:
        errors.append("attempted %s failed %s" %
                      (res.get("attempted"), res.get("failed")))
    got = res.get("metrics", {})
    if sorted(got) != sorted(specs):
        errors.append("metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s" % (sorted(set(specs) - set(got)),
                                    sorted(set(got) - set(specs))))
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            errors.append("%s = %r" % (name, v))
        elif name in specs and m.get("unit") != specs[name]:
            errors.append("%s unit %s, expected %s" %
                          (name, m.get("unit"), specs[name]))
        elif name in live and v <= 0:
            errors.append("%s = %r, expected > 0" % (name, v))
    return errors


def check_missing_sources():
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    out = run(bare, "sweep", 1, 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return ["bare checkout: exit %d, stdout %r" %
                (out.returncode, out.stdout[-200:])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = 0
    for w in (x["name"] for x in bench["workloads"]):
        for trace, specs, live in ((0, e2e, list(e2e)),
                                   (1, layers, LIVE[w])):
            print("%s --trace %d" % (w, trace), flush=True)
            errors = check(w, trace, specs, live)
            print("    %s" % ("ok" if not errors else "FAIL"), flush=True)
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    errors = check_missing_sources()
    print("missing sources %s" % ("ok" if not errors else "FAIL"))
    for e in errors:
        print("    " + e)
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
