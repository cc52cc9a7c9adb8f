/**
 * @file
 * Fault-injection and graceful-degradation study.
 *
 * Three sections, all deterministic (seeded scenario streams, pure
 * replay), emitted to BENCH_fault.json for the CI artifact trail:
 *
 *  1. Zero-fault identity: a FaultTrace with no events must replay
 *     bit-identically to the plain compiled replay — asserted here
 *     before anything is timed, and gated in CI
 *     (.zero_fault_identical == true).
 *
 *  2. Failover cost: re-placing a dead chip's work with planFailover
 *     plus one ShardedEngine::bind of a kept single-chip compile into
 *     the reused sharded output, versus the full recompile-and-replace
 *     procedure (taskWeights + partitionGraph with refinement +
 *     ShardedEngine::compile). CI gates .failover_speedup >= 3.
 *
 *  3. Monte Carlo survivability: N seeded scenarios per
 *     (K, topology) point under an MTBF model scaled to the healthy
 *     makespan — expected makespan, p50/p99 degradation and
 *     survivability per point, plus the batched replayMany path for
 *     the degrade-only static sweep.
 *
 * Exits nonzero when a gate fails: fault handling that silently
 * changes the healthy path or costs a full recompile is a
 * regression, not a warning.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/monte_carlo.h"
#include "shard/placement_search.h"

using namespace ciflow;
using namespace ciflow::fault;
using namespace ciflow::shard;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kBudget = 0.3; // seconds per timed loop

/** One compiled fault-evaluation setup. */
struct Setup
{
    const HksParams &par;
    MemoryConfig mem{32ull << 20, false};
    TaskGraph g;
    RpuConfig chip;
    ShardSpec spec;
    std::vector<double> w;
    Partition part;
    InterconnectConfig net;

    Setup(const char *bench, std::size_t k, Topology topo)
        : par(benchmarkByName(bench))
    {
        chip.bandwidthGBps = 16.0;
        chip.dataMemBytes = mem.dataCapacityBytes;
        chip.evkOnChip = mem.evkOnChip;
        g = buildHksGraph(par, Dataflow::OC, mem);
        spec = placementShardSpec(
            par, k, PartitionStrategy::MinCutGreedy, 0.10);
        w = taskWeights(g, chip);
        part = partitionGraph(g, spec, w);
        net.topology = topo;
        net.linkGBps = 256.0;
        net.latencySec = 2e-6;
    }
};

/** One Monte Carlo row of the survivability table. */
struct Row
{
    std::string benchmark;
    std::size_t shards = 0;
    Topology topology = Topology::PointToPoint;
    McStats st;
};

/**
 * Failover procedure cost: plan + rebind in place vs
 * recompile-and-replace (re-weigh, re-partition, compile).
 */
struct FailoverCost
{
    double rebindPerSec = 0.0;
    double fullPerSec = 0.0;

    double
    speedup() const
    {
        return fullPerSec > 0.0 ? rebindPerSec / fullPerSec : 0.0;
    }
};

FailoverCost
measureFailoverCost(const Setup &s)
{
    FailoverCost out;
    ShardedEngine eng(s.chip, s.net);
    const sim::CompiledSchedule source = RpuEngine(s.chip).compile(s.g);
    ShardedCompiled sc;
    eng.bind(s.g, source, s.part, sc);
    const std::vector<std::uint8_t> done(s.g.size(), 0);
    const std::size_t k = s.part.shards;

    // Rebind: one failover per iteration — plan the re-placement
    // of a (cycling) dead chip's tasks and bind the kept single-chip
    // compile into the sharded output in place. Cycling the dead shard
    // makes successive bindings genuinely differ.
    {
        std::vector<char> alive(k, 1);
        FailoverPlan plan;
        std::size_t evals = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            const std::uint32_t dead =
                static_cast<std::uint32_t>(evals % k);
            alive.assign(k, 1);
            alive[dead] = 0;
            const sim::Error e =
                planFailover(s.g, s.spec, s.part, dead, alive,
                             done.data(), s.w, plan);
            if (!e.ok()) {
                std::fprintf(stderr, "FAIL: %s\n",
                             e.message().c_str());
                std::exit(1);
            }
            eng.bind(s.g, source, plan.part, sc);
            ++evals;
            elapsed = secondsSince(t0);
        } while (elapsed < kBudget);
        out.rebindPerSec = static_cast<double>(evals) / elapsed;
    }

    // Full recompile-and-replace: what a failover would cost without
    // the kept source and output — weights, partition (with
    // refinement) and a fresh compile of the surviving placement.
    {
        std::size_t evals = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            const std::vector<double> w2 = taskWeights(s.g, s.chip);
            const Partition p2 = partitionGraph(s.g, s.spec, w2);
            const ShardedCompiled fresh = eng.compile(s.g, p2);
            ++evals;
            elapsed = secondsSince(t0);
        } while (elapsed < kBudget);
        out.fullPerSec = static_cast<double>(evals) / elapsed;
    }
    return out;
}

/**
 * Throughput of the degrade-only static sweep: scenarios through
 * replayMany lanes vs one piecewise run per scenario.
 */
double
measureStaticBatchSpeedup(FaultSim &fs, const std::vector<FaultTrace> &ts)
{
    std::vector<double> out(ts.size());
    double batchedPerSec = 0.0, scalarPerSec = 0.0;
    {
        std::size_t evals = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            fs.staticDegradedMakespans(ts.data(), ts.size(),
                                       out.data());
            evals += ts.size();
            elapsed = secondsSince(t0);
        } while (elapsed < kBudget);
        batchedPerSec = static_cast<double>(evals) / elapsed;
    }
    {
        std::size_t evals = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            for (const FaultTrace &t : ts)
                (void)fs.run(t);
            evals += ts.size();
            elapsed = secondsSince(t0);
        } while (elapsed < kBudget);
        scalarPerSec = static_cast<double>(evals) / elapsed;
    }
    return scalarPerSec > 0.0 ? batchedPerSec / scalarPerSec : 0.0;
}

} // namespace

int
main()
{
    benchutil::header("Fault injection: degraded-mode replay, "
                      "failover cost, Monte Carlo survivability");

    // Scenario-outcome counters for the artifact's metrics block,
    // accumulated from every FaultSim the sections below run.
    obs::MetricsRegistry metrics;

    // 1. Zero-fault identity, asserted before any timing.
    bool zero_fault_identical = true;
    for (std::size_t k : {2, 4}) {
        Setup s("BTS3", k, Topology::PointToPoint);
        FaultSim fs(s.g, s.spec, s.w, s.part, s.chip, s.net);
        ShardedEngine fresh(s.chip, s.net);
        const double plain =
            fresh.replayRuntime(fresh.compile(s.g, s.part));
        const DegradedOutcome o = fs.run(FaultTrace{});
        if (o.makespan != plain || fs.healthyMakespan() != plain) {
            std::fprintf(stderr,
                         "FAIL: zero-fault trace diverges from the "
                         "plain compiled replay at K=%zu\n",
                         k);
            zero_fault_identical = false;
        }
        fs.exportMetrics(metrics);
    }
    std::printf("zero-fault identity: %s\n\n",
                zero_fault_identical ? "bit-identical" : "BROKEN");

    // 2. Failover procedure cost.
    Setup fo("BTS3", 4, Topology::PointToPoint);
    const FailoverCost cost = measureFailoverCost(fo);
    std::printf("failover (BTS3, K=4): plan + rebind %.0f/s, full "
                "recompile-and-replace %.0f/s -> %s cheaper\n\n",
                cost.rebindPerSec, cost.fullPerSec,
                benchutil::times(cost.speedup()).c_str());

    // 3. Monte Carlo survivability per (K, topology).
    std::vector<Row> rows;
    McSpec mc;
    mc.scenarios = 64;
    mc.seed = 1;
    mc.threads = 4;
    std::printf("Monte Carlo (%zu seeded scenarios/point, MTBF model "
                "scaled to the healthy makespan):\n",
                mc.scenarios);
    std::printf("  %-5s %3s %-4s | %9s %9s | %6s %6s | %7s %5s\n",
                "bench", "K", "topo", "healthy", "E[mk]", "p50x",
                "p99x", "surv", "fails");
    benchutil::rule();
    double static_batch_speedup = 0.0;
    for (const char *bench : {"BTS3", "ARK"}) {
        for (std::size_t k : {2, 4, 8}) {
            for (Topology topo :
                 {Topology::SharedBus, Topology::PointToPoint}) {
                Setup s(bench, k, topo);
                FaultSim fs(s.g, s.spec, s.w, s.part, s.chip, s.net);
                const double h = fs.healthyMakespan();
                FaultModel model;
                model.chipFailMtbfSec = 4.0 * h;
                model.channelDegradeMtbfSec = 2.0 * h;
                model.linkDegradeMtbfSec = 3.0 * h;
                model.stallMtbfSec = 2.0 * h;
                model.stallDurSec = h / 10.0;
                model.horizonSec = h;
                mc.model = model;
                Row r;
                r.benchmark = bench;
                r.shards = k;
                r.topology = topo;
                r.st = monteCarlo(fs, mc);
                std::printf("  %-5s %3zu %-4s | %7.3fms %7.3fms | "
                            "%5.2fx %5.2fx | %6.1f%% %5zu\n",
                            bench, k, topologyName(topo),
                            r.st.healthyMakespan * 1e3,
                            r.st.expectedMakespan * 1e3,
                            r.st.p50Degradation, r.st.p99Degradation,
                            r.st.survivability * 100.0,
                            r.st.totalFailovers);
                rows.push_back(std::move(r));
            }
        }
    }
    benchutil::rule();

    // Degrade-only static sweep through replayMany lanes.
    {
        Setup s("BTS3", 4, Topology::PointToPoint);
        FaultSim fs(s.g, s.spec, s.w, s.part, s.chip, s.net);
        const MachineShape shape = fs.shape();
        FaultModel degr;
        degr.channelDegradeMtbfSec = 2.0 * fs.healthyMakespan();
        degr.horizonSec = fs.healthyMakespan();
        std::vector<FaultTrace> traces;
        traces.reserve(64);
        for (std::uint64_t i = 0; i < 64; ++i)
            traces.push_back(
                sampleTrace(degr, shape, deriveSeed(7, i)));
        static_batch_speedup = measureStaticBatchSpeedup(fs, traces);
        std::printf("\ndegrade-only sweep (64 scenarios): batched "
                    "replayMany lanes are %s the per-scenario "
                    "piecewise path\n",
                    benchutil::times(static_batch_speedup).c_str());
        fs.exportMetrics(metrics);
    }

    // Monte Carlo totals (the per-point sims run on monteCarlo's own
    // worker clones, so they fold in here from the aggregate stats).
    metrics.count("mc.scenarios", mc.scenarios * rows.size());
    for (const Row &r : rows)
        metrics.count("mc.failovers", r.st.totalFailovers);

    std::ofstream jf("BENCH_fault.json");
    if (jf) {
        benchutil::JsonWriter w(jf);
        w.field("bench", "faults");
        w.field("zero_fault_identical", zero_fault_identical);
        w.field("failover_speedup", cost.speedup());
        w.field("failover_patch_per_sec", cost.rebindPerSec);
        w.field("failover_full_per_sec", cost.fullPerSec);
        w.field("static_batch_speedup", static_batch_speedup);
        w.field("scenarios_per_point", mc.scenarios);
        w.beginArray("rows");
        for (const Row &r : rows) {
            w.beginObject();
            w.field("benchmark", r.benchmark);
            w.field("shards", r.shards);
            w.field("topology", topologyName(r.topology));
            w.field("healthy_ms", r.st.healthyMakespan * 1e3);
            w.field("expected_ms", r.st.expectedMakespan * 1e3);
            w.field("p50_degradation", r.st.p50Degradation);
            w.field("p99_degradation", r.st.p99Degradation);
            w.field("survivability", r.st.survivability);
            w.field("failovers", r.st.totalFailovers);
            w.field("expected_migrated_bytes",
                    r.st.expectedMigratedBytes);
            w.endObject();
        }
        w.endArray();
        w.metrics("metrics", metrics);
        w.finish();
        jf.close();
        std::printf("wrote BENCH_fault.json\n");
    }

    bool pass = zero_fault_identical;
    if (cost.speedup() < 3.0) {
        std::fprintf(stderr,
                     "FAIL: failover via plan + rebind is only "
                     "%.2fx cheaper than recompile-and-replace "
                     "(floor: 3x)\n",
                     cost.speedup());
        pass = false;
    }
    for (const Row &r : rows)
        if (r.st.completedRuns == 0) {
            std::fprintf(stderr,
                         "FAIL: %s K=%zu %s survived no scenario\n",
                         r.benchmark.c_str(), r.shards,
                         topologyName(r.topology));
            pass = false;
        }
    return pass ? 0 : 1;
}
