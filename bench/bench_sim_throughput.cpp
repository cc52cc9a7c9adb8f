/**
 * @file
 * Simulator-throughput benchmark: rebuild-per-simulate vs the compiled
 * replay path, on a bandwidthToMatch-style repeated-simulate loop (61
 * points, the worst-case bisection budget).
 *
 * For each benchmark the same 61 sweep points are evaluated four
 * ways — rebuilding the EventQueue and re-lowering every task per
 * point (the pre-CompiledSchedule engine), replaying the compiled
 * schedule with SimStats packaging, the makespan-only replay used by
 * the bisection helpers, and the batched replayMany fast path that
 * walks the compiled arrays once per kBatchLanes-point block — after
 * asserting that rebuild and compiled SimStats are bit-identical at
 * every point and that the batched runtimes equal the scalar ones to
 * the bit. Also reports the one-off compile cost the replay paths
 * amortize. Emits BENCH_sim.json so CI can track simulates/sec across
 * PRs; CI gates compiled/rebuild >= 10x and batched/scalar >= 2x
 * (target >= 3x). lane_isa names the replayMany clone the host ran
 * (x86-64-v4, avx2 or default), so batched readings from different
 * hosts can be told apart. Exits nonzero on any equivalence mismatch.
 *
 * The patch_vs_recompile section measures the incremental-compile
 * path against the fresh compile it replaces: rebinding a 4-shard
 * schedule after a one-task partition move (recompilePartition) vs a
 * from-scratch ShardedEngine::compile — after asserting the patched
 * schedule replays bit-identically to a fresh compile of the same
 * partition. It also times the bind a placement search or tuner pays
 * per point: binding the experiment's compiled schedule into a reused
 * output (shard_bind_ms), after asserting it replays exactly like
 * compile(g, p); CI gates shard_bind_identical == true.
 *
 * The traced-replay section measures the opt-in observer
 * (obs::replayTraced) against the plain replay over the same
 * precomputed rate points — after asserting the traced path leaves
 * bit-identical makespan and scratch state at every point. CI gates
 * trace_overhead (plain/traced throughput ratio) <= 2x and
 * traced_identical == true.
 *
 * The bisection section runs bandwidthToMatch, which resolves three
 * bisection steps per batched replay block, and a copy of the
 * one-replay-per-step loop it replaced on each row's experiment
 * against the Table IV baseline runtime. CI gates bisect_identical ==
 * true; the two per-call times (bisect_us, bisect_scalar_us) are
 * reported only.
 *
 * The set-up scaling section times graph build (buildHksGraph) and
 * compile (RpuEngine::compile) per task on synthetic shapes (logN 16,
 * dnum 3, kp = kl/3) from kl 6 to kl 96, for MP and OC: the
 * setup_scaling rows. build_task_scaling is the larger of the two
 * dataflows' ns/task at kl 96 over ns/task at kl 6; CI gates it at
 * 2.2, above which graph build grows with the task count the way it
 * did when every spill rescanned every object built so far.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/traced_replay.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"

using namespace ciflow;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The 61 bandwidths a worst-case bandwidthToMatch bisection visits. */
std::vector<double>
bisectionPoints()
{
    std::vector<double> bws;
    bws.push_back(2000.0); // feasibility probe at hi_gbps
    double lo = 1.0, hi = 2000.0;
    for (int iter = 0; iter < 60; ++iter) {
        double mid = 0.5 * (lo + hi);
        bws.push_back(mid);
        // Walk the interval as a real bisection would; the exact
        // branch pattern is irrelevant to cost, so alternate.
        if (iter % 2 == 0)
            hi = mid;
        else
            lo = mid;
    }
    return bws;
}

/**
 * The bisection bandwidthToMatch ran before it resolved three steps
 * per batched replay block: one scalar replay per step. The batched
 * walk must return the same double.
 */
double
scalarBandwidthToMatch(const HksExperiment &exp, double target_runtime,
                       double lo_gbps = 1.0, double hi_gbps = 2000.0,
                       double modops_mult = 1.0, double tol = 1e-3)
{
    if (exp.simulateRuntime(hi_gbps, modops_mult) >
        target_runtime * (1 + tol)) {
        return std::numeric_limits<double>::infinity();
    }
    double lo = lo_gbps, hi = hi_gbps;
    for (int iter = 0; iter < 60 && (hi - lo) > 1e-6 * hi; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (exp.simulateRuntime(mid, modops_mult) <=
            target_runtime * (1 + tol)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    return hi;
}

struct PathTiming
{
    double simsPerSec = 0.0;
    std::size_t sims = 0;
};

/** Repeat `loop` over the points until ~`budget` seconds elapse. */
template <typename F>
PathTiming
timeLoop(const std::vector<double> &bws, double budget, F &&loop)
{
    PathTiming t;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
        for (double bw : bws)
            loop(bw);
        t.sims += bws.size();
        elapsed = secondsSince(t0);
    } while (elapsed < budget);
    t.simsPerSec = static_cast<double>(t.sims) / elapsed;
    return t;
}

/** Repeat `batch` (which simulates `n` points per call) for ~budget. */
template <typename F>
PathTiming
timeBatchLoop(std::size_t n, double budget, F &&batch)
{
    PathTiming t;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
        batch();
        t.sims += n;
        elapsed = secondsSince(t0);
    } while (elapsed < budget);
    t.simsPerSec = static_cast<double>(t.sims) / elapsed;
    return t;
}

bool
bitIdentical(const SimStats &a, const SimStats &b)
{
    return a.runtime == b.runtime && a.memBusy == b.memBusy &&
           a.compBusy == b.compBusy &&
           a.trafficBytes == b.trafficBytes && a.modOps == b.modOps;
}

/** Equal sharded replays: makespan, transfers, every resource. */
bool
bitIdentical(const shard::ShardedStats &a, const shard::ShardedStats &b)
{
    if (a.runtime != b.runtime || a.transferTasks != b.transferTasks ||
        a.transferBytes != b.transferBytes ||
        a.resources.size() != b.resources.size())
        return false;
    for (std::size_t r = 0; r < a.resources.size(); ++r)
        if (a.resources[r].name != b.resources[r].name ||
            a.resources[r].busySeconds != b.resources[r].busySeconds ||
            a.resources[r].jobs != b.resources[r].jobs)
            return false;
    return true;
}

/** Set-up cost per task of one synthetic shape under one dataflow. */
struct SetupRow
{
    Dataflow dataflow = Dataflow::MP;
    std::size_t kl = 0;
    std::size_t tasks = 0;
    double buildNsPerTask = 0.0;
    double compileNsPerTask = 0.0;
};

/**
 * Graph build and compile ns/task for logN 16, dnum 3, kp = kl/3 at
 * kl 6..96, MP and OC, streamed keys, capacity a third of the shape's
 * temporary data (never below the dataflow minimum). Each time is the
 * best single call over `rounds` rounds that visit every shape in turn
 * for ~slice seconds each, so host drift over the run reaches every
 * shape alike instead of skewing the largest/smallest ratio.
 */
std::vector<SetupRow>
setupScaling(int rounds, double slice)
{
    struct Shape
    {
        HksParams par;
        MemoryConfig mem;
        RpuEngine eng;
        TaskGraph g;
    };
    std::vector<Shape> shapes;
    std::vector<SetupRow> rows;
    for (Dataflow d : {Dataflow::MP, Dataflow::OC}) {
        for (std::size_t kl : {6, 12, 24, 48, 96}) {
            const HksParams par{"SYN", 16, kl, kl / 3, 3, kl / 3};
            const MemoryConfig mem{
                std::max(par.tempBytes() / 3, minDataCapacity(par, d)),
                false};
            RpuConfig cfg;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            shapes.push_back({par, mem, RpuEngine(cfg),
                              buildHksGraph(par, d, mem)});
            SetupRow r;
            r.dataflow = d;
            r.kl = kl;
            r.tasks = shapes.back().g.size();
            r.buildNsPerTask = std::numeric_limits<double>::infinity();
            r.compileNsPerTask = r.buildNsPerTask;
            rows.push_back(r);
        }
    }
    // The best single call of `f` over ~slice seconds, in ns per task.
    const auto best = [slice](std::size_t tasks, auto &&f) {
        double s = std::numeric_limits<double>::infinity();
        const Clock::time_point t0 = Clock::now();
        do {
            const Clock::time_point t = Clock::now();
            f();
            s = std::min(s, secondsSince(t));
        } while (secondsSince(t0) < slice);
        return s * 1e9 / static_cast<double>(tasks);
    };
    for (int round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            const Shape &sh = shapes[i];
            SetupRow &r = rows[i];
            r.buildNsPerTask = std::min(r.buildNsPerTask, best(r.tasks, [&] {
                TaskGraph g = buildHksGraph(sh.par, r.dataflow, sh.mem);
                (void)g;
            }));
            r.compileNsPerTask =
                std::min(r.compileNsPerTask, best(r.tasks, [&] {
                    sim::CompiledSchedule cs = sh.eng.compile(sh.g);
                    (void)cs;
                }));
        }
    }
    return rows;
}

/**
 * Per dataflow, the last (largest) row's ns/task over the first's;
 * the worst dataflow's ratio.
 */
template <typename Get>
double
worstScaling(const std::vector<SetupRow> &rows, Get &&get)
{
    double worst = 0.0;
    for (Dataflow d : {Dataflow::MP, Dataflow::OC}) {
        const SetupRow *lo = nullptr, *hi = nullptr;
        for (const SetupRow &r : rows) {
            if (r.dataflow != d)
                continue;
            lo = lo ? lo : &r;
            hi = &r;
        }
        worst = std::max(worst, get(*hi) / get(*lo));
    }
    return worst;
}

struct Row
{
    std::string name;
    std::size_t tasks = 0;
    PathTiming rebuild, compiled, replayOnly, batched;
    /** Plain replay and traced replay over precomputed rate points. */
    PathTiming tracedPlain, traced;
    /** bandwidthToMatch and the scalar bisection, calls per second. */
    PathTiming bisect, bisectScalar;
    /** The bandwidth both bisections matched (GB/s). */
    double bisectGbps = 0.0;
    double compileMs = 0.0;
    double shardCompileMs = 0.0;
    double shardBindMs = 0.0;
    double shardMoveRepatchMs = 0.0;
    /** Per-op records one traced replay of this schedule appends. */
    std::size_t traceOps = 0;
    bool identical = true;
    bool tracedIdentical = true;
    bool shardBindIdentical = true;
    bool bisectIdentical = true;

    double
    speedup() const
    {
        return compiled.simsPerSec / rebuild.simsPerSec;
    }

    double
    batchedSpeedup() const
    {
        return batched.simsPerSec / replayOnly.simsPerSec;
    }

    double
    shardMoveSpeedup() const
    {
        return shardCompileMs / shardMoveRepatchMs;
    }

    /** How much slower a traced replay is than a plain one. */
    double
    traceOverhead() const
    {
        return traced.simsPerSec > 0.0
                   ? tracedPlain.simsPerSec / traced.simsPerSec
                   : 0.0;
    }
};

/**
 * The replayMany lane clone this host runs: the blockBodyFull
 * target_clones entry (sim/compiled_schedule.cpp) the ifunc resolver
 * picks, widest first. Builds without the clones (ThreadSanitizer,
 * other architectures) run the default body. Labels batchedSpeedup,
 * which an AVX-512 host reads from the x86-64-v4 clone only.
 */
const char *
laneIsa()
{
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
    if (__builtin_cpu_supports("x86-64-v4"))
        return "x86-64-v4";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

} // namespace

int
main()
{
    benchutil::header(std::string("Simulator throughput: rebuild-per-"
                                  "simulate vs compiled replay vs "
                                  "batched replay (61-point bisection "
                                  "loop; lane_isa ") +
                      laneIsa() + ")");

    const std::vector<double> bws = bisectionPoints();
    const MemoryConfig mem{32ull << 20, false};
    const double kBudget = 0.5; // seconds per timed path

    std::vector<Row> rows;
    for (const char *name : {"BTS1", "BTS3", "ARK"}) {
        const HksParams &b = benchmarkByName(name);
        HksExperiment exp(b, Dataflow::OC, mem);

        Row row;
        row.name = name;
        row.tasks = exp.graph().size();

        // Correctness gate 1: rebuild and compiled SimStats
        // bit-identical at every point.
        for (double bw : bws) {
            RpuConfig cfg;
            cfg.bandwidthGBps = bw;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            SimStats rebuilt = RpuEngine(cfg).runRebuild(exp.graph());
            SimStats compiled = exp.simulate(bw);
            if (!bitIdentical(rebuilt, compiled)) {
                std::fprintf(stderr,
                             "FAIL: %s at %.6f GB/s: rebuild and "
                             "compiled SimStats differ\n",
                             name, bw);
                row.identical = false;
            }
        }

        // Correctness gate 2: the batched replay is bit-identical to
        // the scalar replay at every point of the loop.
        const std::vector<double> batched_rt =
            exp.simulateRuntimeMany(bws);
        for (std::size_t i = 0; i < bws.size(); ++i) {
            if (batched_rt[i] != exp.simulateRuntime(bws[i])) {
                std::fprintf(stderr,
                             "FAIL: %s at %.6f GB/s: batched and "
                             "scalar replay runtimes differ\n",
                             name, bws[i]);
                row.identical = false;
            }
        }

        // One-off compile cost the replay paths amortize (also the
        // payoff of CompiledSchedule::reserve's bulk build).
        {
            RpuConfig cfg;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            const RpuEngine eng(cfg);
            const int reps = 20;
            const Clock::time_point t0 = Clock::now();
            for (int i = 0; i < reps; ++i) {
                sim::CompiledSchedule cs = eng.compile(exp.graph());
                (void)cs;
            }
            row.compileMs = secondsSince(t0) * 1e3 / reps;
        }

        row.rebuild = timeLoop(bws, kBudget, [&](double bw) {
            RpuConfig cfg;
            cfg.bandwidthGBps = bw;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            SimStats s = RpuEngine(cfg).runRebuild(exp.graph());
            (void)s;
        });
        row.compiled = timeLoop(bws, kBudget, [&](double bw) {
            SimStats s = exp.simulate(bw);
            (void)s;
        });
        row.replayOnly = timeLoop(bws, kBudget, [&](double bw) {
            volatile double rt = exp.simulateRuntime(bw);
            (void)rt;
        });
        {
            std::vector<double> mults(bws.size(), 1.0);
            std::vector<double> out(bws.size());
            row.batched = timeBatchLoop(bws.size(), kBudget, [&] {
                exp.simulateRuntimeMany(bws.data(), mults.data(),
                                        bws.size(), out.data());
            });
        }

        // Traced replay (obs observer): bit-identity at every point —
        // makespan and the full scratch state — then throughput of the
        // plain and traced paths over the same precomputed rates.
        {
            RpuConfig cfg;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            const RpuEngine eng(cfg);
            const sim::CompiledSchedule cs = eng.compile(exp.graph());
            std::vector<sim::ReplayRates> pts(bws.size());
            for (std::size_t i = 0; i < bws.size(); ++i) {
                RpuConfig c = cfg;
                c.bandwidthGBps = bws[i];
                RpuEngine(c).rates(cs, pts[i]);
            }

            sim::ReplayScratch plainS, tracedS;
            obs::TraceBuffer buf;
            for (std::size_t i = 0; i < pts.size(); ++i) {
                const double mp = cs.replay(pts[i], plainS);
                const double mt =
                    obs::replayTraced(cs, pts[i], tracedS, buf);
                if (mp != mt || plainS.finish != tracedS.finish ||
                    plainS.freeAt != tracedS.freeAt ||
                    plainS.busy != tracedS.busy ||
                    plainS.jobs != tracedS.jobs) {
                    std::fprintf(stderr,
                                 "FAIL: %s at %.6f GB/s: traced and "
                                 "plain replay state differ\n",
                                 name, bws[i]);
                    row.identical = false;
                    row.tracedIdentical = false;
                }
            }
            row.traceOps = buf.ops.size();

            row.tracedPlain = timeBatchLoop(pts.size(), kBudget, [&] {
                for (const sim::ReplayRates &r : pts) {
                    volatile double m = cs.replay(r, plainS);
                    (void)m;
                }
            });
            row.traced = timeBatchLoop(pts.size(), kBudget, [&] {
                for (const sim::ReplayRates &r : pts) {
                    volatile double m =
                        obs::replayTraced(cs, r, tracedS, buf);
                    (void)m;
                }
            });
        }

        // Bisection: the batched walk must return the scalar loop's
        // double on the Table IV target; then the cost of each.
        {
            const double target = baselineRuntime(b);
            row.bisectGbps = bandwidthToMatch(exp, target);
            if (row.bisectGbps != scalarBandwidthToMatch(exp, target)) {
                std::fprintf(stderr,
                             "FAIL: %s: bandwidthToMatch and the scalar "
                             "bisection differ\n",
                             name);
                row.identical = false;
                row.bisectIdentical = false;
            }
            row.bisect = timeBatchLoop(1, kBudget, [&] {
                volatile double bw = bandwidthToMatch(exp, target);
                (void)bw;
            });
            row.bisectScalar = timeBatchLoop(1, kBudget, [&] {
                volatile double bw = scalarBandwidthToMatch(exp, target);
                (void)bw;
            });
        }

        // patch_vs_recompile: rebind a 4-shard schedule after a
        // one-task partition move vs a from-scratch sharded compile,
        // asserting bit-identity first.
        {
            RpuConfig chip;
            chip.dataMemBytes = mem.dataCapacityBytes;
            chip.evkOnChip = mem.evkOnChip;
            const shard::InterconnectConfig net;
            const std::size_t k = 4;
            const shard::ShardSpec spec = shard::placementShardSpec(
                b, k, shard::PartitionStrategy::MinCutGreedy, 0.10);
            const std::vector<double> w =
                shard::taskWeights(exp.graph(), chip);
            const shard::Partition p0 =
                shard::partitionGraph(exp.graph(), spec, w);
            std::vector<std::uint32_t> moved = p0.shardOf;
            moved[moved.size() / 2] =
                (moved[moved.size() / 2] + 1) % k;
            const shard::Partition p1 = shard::assignmentPartition(
                exp.graph(), spec, std::move(moved), w);

            const shard::ShardedEngine seng(chip, net);
            shard::ShardedPatchable sps =
                seng.compilePatchable(exp.graph(), p0);
            seng.recompilePartition(sps, p1);
            const shard::ShardedCompiled fresh =
                seng.compile(exp.graph(), p1);
            if (seng.replayRuntime(sps.compiled) !=
                seng.replayRuntime(fresh)) {
                std::fprintf(stderr,
                             "FAIL: %s: move-repatched shard schedule "
                             "and fresh compile replay differently\n",
                             name);
                row.identical = false;
            }
            // The bind identity: the experiment's compiled schedule,
            // bound to p1, replays exactly like compile(g, p1).
            shard::ShardedCompiled bound;
            seng.bind(exp, p1, bound);
            if (!bitIdentical(seng.replay(bound), seng.replay(fresh))) {
                std::fprintf(stderr,
                             "FAIL: %s: shard schedule bound from the "
                             "experiment and compile(g, p) replay "
                             "differently\n",
                             name);
                row.identical = false;
                row.shardBindIdentical = false;
            }

            {
                const int reps = 10;
                const Clock::time_point t0 = Clock::now();
                for (int i = 0; i < reps; ++i) {
                    shard::ShardedCompiled sc =
                        seng.compile(exp.graph(), p1);
                    (void)sc;
                }
                row.shardCompileMs = secondsSince(t0) * 1e3 / reps;
            }
            {
                const int reps = 100;
                const Clock::time_point t0 = Clock::now();
                for (int i = 0; i < reps; ++i)
                    seng.bind(exp, i % 2 == 0 ? p0 : p1, bound);
                row.shardBindMs = secondsSince(t0) * 1e3 / reps;
            }
            {
                const int reps = 40;
                const Clock::time_point t0 = Clock::now();
                for (int i = 0; i < reps; ++i)
                    seng.recompilePartition(sps,
                                            i % 2 == 0 ? p0 : p1);
                row.shardMoveRepatchMs = secondsSince(t0) * 1e3 / reps;
            }
        }
        rows.push_back(std::move(row));
    }

    std::printf("%-9s | %8s %8s | %11s %11s %11s %11s | %7s %7s | %s\n",
                "Benchmark", "tasks", "compile", "rebuild/s",
                "compiled/s", "replay/s", "batched/s", "speedup",
                "batchup", "identical");
    benchutil::rule();
    bool all_identical = true;
    bool meets_target = true;
    bool meets_batch_target = true;
    for (const Row &r : rows) {
        std::printf("%-9s | %8zu %6.1fms | %11.0f %11.0f %11.0f %11.0f "
                    "| %6.1fx %6.2fx | %s\n",
                    r.name.c_str(), r.tasks, r.compileMs,
                    r.rebuild.simsPerSec, r.compiled.simsPerSec,
                    r.replayOnly.simsPerSec, r.batched.simsPerSec,
                    r.speedup(), r.batchedSpeedup(),
                    r.identical ? "yes" : "NO");
        all_identical = all_identical && r.identical;
        meets_target = meets_target && r.speedup() >= 10.0;
        meets_batch_target =
            meets_batch_target && r.batchedSpeedup() >= 3.0;
    }
    benchutil::rule();
    std::printf("compile  = RpuEngine::compile (one-off cost the "
                "replay paths amortize)\n");
    std::printf("rebuild  = RpuEngine::runRebuild per point (EventQueue "
                "+ CodeGen re-lowered each simulate)\n");
    std::printf("compiled = HksExperiment::simulate (compile-once "
                "replay, SimStats packaging)\n");
    std::printf("replay   = HksExperiment::simulateRuntime "
                "(makespan-only, allocation-free)\n");
    std::printf("batched  = HksExperiment::simulateRuntimeMany "
                "(replayMany, %zu point-lanes per walk)\n",
                sim::kBatchLanes);
    std::printf("batchup  = batched / replay simulates per second\n");

    std::printf("\n");
    benchutil::header("patch_vs_recompile: in-place rebinding vs "
                      "fresh compiles");
    std::printf("%-9s | %9s %9s %9s %8s\n", "Benchmark", "shardcomp",
                "shardbind", "moverepatch", "speedup");
    benchutil::rule();
    bool all_shard_bind_identical = true;
    for (const Row &r : rows) {
        std::printf("%-9s | %7.2fms %7.3fms %9.3fms %7.1fx\n",
                    r.name.c_str(), r.shardCompileMs, r.shardBindMs,
                    r.shardMoveRepatchMs, r.shardMoveSpeedup());
        all_shard_bind_identical =
            all_shard_bind_identical && r.shardBindIdentical;
    }
    benchutil::rule();
    std::printf("shardcomp   = ShardedEngine::compile at K=4 (the cost "
                "a partition move used to pay)\n");
    std::printf("shardbind   = ShardedEngine::bind from the experiment's "
                "compiled schedule into a reused output (a tuner point)\n");
    std::printf("moverepatch = ShardedEngine::recompilePartition after "
                "a one-task move (dirty shards only re-place)\n");

    std::printf("\n");
    benchutil::header("Traced replay: opt-in observer vs plain replay "
                      "(same precomputed rates)");
    std::printf("%-9s | %8s | %11s %11s | %8s | %s\n", "Benchmark",
                "ops/sim", "plain/s", "traced/s", "overhead",
                "identical");
    benchutil::rule();
    bool all_traced_identical = true;
    bool meets_trace_target = true;
    for (const Row &r : rows) {
        std::printf("%-9s | %8zu | %11.0f %11.0f | %7.2fx | %s\n",
                    r.name.c_str(), r.traceOps,
                    r.tracedPlain.simsPerSec, r.traced.simsPerSec,
                    r.traceOverhead(),
                    r.tracedIdentical ? "yes" : "NO");
        all_traced_identical =
            all_traced_identical && r.tracedIdentical;
        meets_trace_target =
            meets_trace_target && r.traceOverhead() <= 2.0;
    }
    benchutil::rule();
    std::printf("traced = obs::replayTraced (one TraceOp per op into a "
                "reused TraceBuffer)\n");

    std::printf("\n");
    benchutil::header("Bisection: bandwidthToMatch vs the one-step "
                      "scalar loop (Table IV baseline target)");
    std::printf("%-9s | %10s | %10s %10s | %s\n", "Benchmark",
                "GB/s", "batched", "scalar", "identical");
    benchutil::rule();
    bool all_bisect_identical = true;
    for (const Row &r : rows) {
        std::printf("%-9s | %10.4f | %8.1fus %8.1fus | %s\n",
                    r.name.c_str(), r.bisectGbps,
                    1e6 / r.bisect.simsPerSec,
                    1e6 / r.bisectScalar.simsPerSec,
                    r.bisectIdentical ? "yes" : "NO");
        all_bisect_identical = all_bisect_identical && r.bisectIdentical;
    }
    benchutil::rule();
    std::printf("batched = bandwidthToMatch (three bisection steps per "
                "%zu-lane replayMany block)\n",
                sim::kBatchLanes);
    std::printf("scalar  = one simulateRuntime per bisection step\n");

    std::printf("\n");
    benchutil::header("Set-up scaling: graph build and compile per task "
                      "(logN 16, dnum 3, kp = kl/3)");
    const std::vector<SetupRow> setup = setupScaling(10, 0.01);
    std::printf("%-9s | %4s | %8s | %12s %12s\n", "Dataflow", "kl",
                "tasks", "build ns/t", "compile ns/t");
    benchutil::rule();
    for (const SetupRow &r : setup)
        std::printf("%-9s | %4zu | %8zu | %12.1f %12.1f\n",
                    dataflowName(r.dataflow), r.kl, r.tasks,
                    r.buildNsPerTask, r.compileNsPerTask);
    benchutil::rule();
    const double build_scaling = worstScaling(
        setup, [](const SetupRow &r) { return r.buildNsPerTask; });
    const double compile_scaling = worstScaling(
        setup, [](const SetupRow &r) { return r.compileNsPerTask; });
    std::printf("build_task_scaling   = %.2fx (worst dataflow, kl 96 "
                "ns/task over kl 6; CI gate)\n",
                build_scaling);
    std::printf("compile_task_scaling = %.2fx (reported only)\n",
                compile_scaling);

    // Metrics block for the artifact: what the traced loops actually
    // recorded, plus the worst observer overhead seen.
    obs::MetricsRegistry metrics;
    double overhead_max = 0.0;
    for (const Row &r : rows) {
        metrics.count("trace.sims", r.traced.sims);
        metrics.count("trace.ops_recorded", r.traced.sims * r.traceOps);
        overhead_max = std::max(overhead_max, r.traceOverhead());
    }
    metrics.gauge("trace.overhead_max", overhead_max);

    std::ofstream jf("BENCH_sim.json");
    if (jf) {
        benchutil::JsonWriter w(jf);
        w.field("bench", "sim_throughput");
        w.field("points_per_loop", bws.size());
        w.field("batch_lanes", sim::kBatchLanes);
        w.field("lane_isa", laneIsa());
        w.field("traced_identical", all_traced_identical);
        w.field("shard_bind_identical", all_shard_bind_identical);
        w.field("bisect_identical", all_bisect_identical);
        w.beginArray("rows");
        for (const Row &r : rows) {
            w.beginObject();
            w.field("benchmark", r.name);
            w.field("tasks", r.tasks);
            w.field("compile_ms", r.compileMs);
            w.field("rebuild_sims_per_sec", r.rebuild.simsPerSec);
            w.field("compiled_sims_per_sec", r.compiled.simsPerSec);
            w.field("replay_sims_per_sec", r.replayOnly.simsPerSec);
            w.field("batched_sims_per_sec", r.batched.simsPerSec);
            w.field("speedup", r.speedup());
            w.field("batchedSpeedup", r.batchedSpeedup());
            w.field("shard_compile_ms", r.shardCompileMs);
            w.field("shard_bind_ms", r.shardBindMs);
            w.field("shard_bind_identical", r.shardBindIdentical);
            w.field("shard_move_repatch_ms", r.shardMoveRepatchMs);
            w.field("shardMoveSpeedup", r.shardMoveSpeedup());
            w.field("traced_sims_per_sec", r.traced.simsPerSec);
            w.field("trace_overhead", r.traceOverhead());
            w.field("traced_identical", r.tracedIdentical);
            w.field("bisect_us", 1e6 / r.bisect.simsPerSec);
            w.field("bisect_scalar_us", 1e6 / r.bisectScalar.simsPerSec);
            w.field("bisect_identical", r.bisectIdentical);
            w.field("bit_identical", r.identical);
            w.endObject();
        }
        w.endArray();
        w.beginArray("setup_scaling");
        for (const SetupRow &r : setup) {
            w.beginObject();
            w.field("dataflow", dataflowName(r.dataflow));
            w.field("logN", 16);
            w.field("kl", r.kl);
            w.field("kp", r.kl / 3);
            w.field("dnum", 3);
            w.field("tasks", r.tasks);
            w.field("build_ns_per_task", r.buildNsPerTask);
            w.field("compile_ns_per_task", r.compileNsPerTask);
            w.endObject();
        }
        w.endArray();
        w.field("build_task_scaling", build_scaling);
        w.field("compile_task_scaling", compile_scaling);
        w.metrics("metrics", metrics);
        w.finish();
        jf.close();
        std::printf("wrote BENCH_sim.json\n");
    }

    if (!all_identical) {
        std::fprintf(stderr, "equivalence check failed\n");
        return 1;
    }
    if (!meets_target)
        std::fprintf(stderr, "warning: compiled-path speedup below the "
                             "10x target on this machine\n");
    if (!meets_batch_target)
        std::fprintf(stderr, "warning: batched-replay speedup below "
                             "the 3x target on this machine (CI gates "
                             "at 2x)\n");
    if (!meets_trace_target)
        std::fprintf(stderr, "warning: traced-replay overhead above "
                             "the 2x CI gate on this machine\n");
    return 0;
}
