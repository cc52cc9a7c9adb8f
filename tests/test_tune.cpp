/**
 * @file
 * Auto-tuner tests: space indexing, strategy convergence to the
 * exhaustive-grid optimum (bit-identical runtimes), evaluation-cache
 * hit accounting, Pareto-frontier correctness on a hand-built
 * 3-point space, shard-axis delegation to the placement helpers (bit
 * for bit against the graph-lowering evaluatePlacement), the K>1
 * partition memo against fresh partitions at two runner widths, one
 * partition prep per graph with shard points,
 * OCbase bit-identity with the rpu-layer grid scan, and layout-crossing
 * batches against one-point-at-a-time evaluation.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <tuple>

#include "shard/placement_search.h"
#include "tune/tuner.h"

using namespace ciflow;
using namespace ciflow::tune;

namespace
{

/** 3 dataflows x 3 bandwidths x 2 channel counts = 18 points. */
TuneSpace
smallSpace()
{
    TuneSpace sp;
    sp.dataflows = {Dataflow::MP, Dataflow::DC, Dataflow::OC};
    sp.bandwidths = {16.0, 32.0, 64.0};
    sp.channelCounts = {1, 2};
    return sp;
}

/** Axes where every +-1 climb reaches the global optimum. */
TuneSpace
monotoneSpace()
{
    TuneSpace sp;
    sp.dataflows = {Dataflow::OC};
    sp.bandwidths = {16.0, 32.0, 64.0};
    sp.channelCounts = {1, 2};
    sp.modopsMults = {1.0, 2.0};
    return sp;
}

TunedPoint
handPoint(double runtime, double gbps, double cap)
{
    TunedPoint p;
    p.m.runtime = runtime;
    p.m.aggregateGBps = gbps;
    p.m.capacityBytes = cap;
    return p;
}

} // namespace

TEST(TuneSpace, IndexingIsABijection)
{
    const TuneSpace sp = smallSpace();
    EXPECT_EQ(sp.pointCount(), 18u);
    std::set<std::vector<std::size_t>> seen;
    for (std::size_t f = 0; f < sp.pointCount(); ++f) {
        const std::vector<std::size_t> idx = sp.unflatten(f);
        ASSERT_EQ(idx.size(), kAxisCount);
        EXPECT_TRUE(seen.insert(idx).second);
        (void)sp.at(idx); // in-range by construction
    }
}

TEST(TuneSpace, ChannelSkewMaterializesAsymmetricBandwidths)
{
    TuneSpace sp = smallSpace();
    sp.channelSkews = {2.0};
    std::vector<std::size_t> idx(kAxisCount, 0);
    idx[std::size_t(Axis::Bandwidth)] = 2; // 64 GB/s
    idx[std::size_t(Axis::Channels)] = 1;  // 2 channels
    const RpuConfig cfg = sp.chipConfig(sp.at(idx));
    ASSERT_EQ(cfg.channelGBps.size(), 2u);
    // Shares 1:2 of 64 GB/s.
    EXPECT_NEAR(cfg.channelGBps[0], 64.0 / 3.0, 1e-12);
    EXPECT_NEAR(cfg.channelGBps[1], 128.0 / 3.0, 1e-12);
    // Skew 1.0 keeps the symmetric replay path (empty vector).
    sp.channelSkews = {1.0};
    EXPECT_TRUE(sp.chipConfig(sp.at(idx)).channelGBps.empty());
}

TEST(Tuner, ExhaustiveMatchesDirectSimulation)
{
    ExperimentRunner runner(4);
    const HksParams &par = benchmarkByName("BTS1");
    const TuneSpace sp = smallSpace();
    Tuner t(runner, par, sp);
    const TuneResult r = t.tune({.strategy = Strategy::ExhaustiveGrid});
    EXPECT_EQ(r.spaceSize, 18u);
    EXPECT_EQ(r.evaluated.size(), 18u);
    EXPECT_EQ(r.evaluations, 18u);

    // Independent nested loop over the same grid.
    double best = 0.0;
    bool first = true;
    for (Dataflow d : sp.dataflows)
        for (double bw : sp.bandwidths)
            for (std::size_t ch : sp.channelCounts) {
                RpuConfig cfg = sp.chip;
                cfg.bandwidthGBps = bw;
                cfg.memChannels = ch;
                MemoryConfig mem{32ull << 20, false};
                const double rt =
                    runner.experiment(par, d, mem)->simulate(cfg).runtime;
                if (first || rt < best) {
                    best = rt;
                    first = false;
                }
            }
    EXPECT_EQ(r.best.m.runtime, best);
    // The frontier contains the best point and only evaluated points.
    ASSERT_FALSE(r.frontier.empty());
    EXPECT_EQ(r.frontier.front().m.runtime, best);
}

TEST(Tuner, CoordinateDescentFindsGridOptimumUnderHalfTheEvals)
{
    ExperimentRunner runner(4);
    const HksParams &par = benchmarkByName("BTS1");
    Tuner exhaustive(runner, par, smallSpace());
    const TuneResult ex =
        exhaustive.tune({.strategy = Strategy::ExhaustiveGrid});

    Tuner cd(runner, par, smallSpace());
    const TuneResult r =
        cd.tune({.strategy = Strategy::CoordinateDescent});
    // Bit-identical optimum: both strategies replay the same compiled
    // schedules, and the shared runner graph cache feeds both tuners.
    EXPECT_EQ(r.best.m.runtime, ex.best.m.runtime);
    EXPECT_LT(r.evaluations * 2, ex.spaceSize);
    EXPECT_GE(r.rounds, 1u);
}

TEST(Tuner, HillClimbFindsGridOptimumAndIsSeedDeterministic)
{
    ExperimentRunner runner(4);
    const HksParams &par = benchmarkByName("BTS1");
    Tuner exhaustive(runner, par, monotoneSpace());
    const TuneResult ex =
        exhaustive.tune({.strategy = Strategy::ExhaustiveGrid});

    Tuner hc(runner, par, monotoneSpace());
    TuneOptions opts;
    opts.strategy = Strategy::RandomRestartHillClimb;
    opts.restarts = 2;
    const TuneResult r1 = hc.tune(opts);
    EXPECT_EQ(r1.best.m.runtime, ex.best.m.runtime);

    // Same seed on a fresh tuner: identical walk, point for point.
    Tuner hc2(runner, par, monotoneSpace());
    const TuneResult r2 = hc2.tune(opts);
    ASSERT_EQ(r2.evaluated.size(), r1.evaluated.size());
    for (std::size_t i = 0; i < r1.evaluated.size(); ++i) {
        EXPECT_EQ(r2.evaluated[i].idx, r1.evaluated[i].idx);
        EXPECT_EQ(r2.evaluated[i].m.runtime, r1.evaluated[i].m.runtime);
    }
}

TEST(Tuner, EvaluationCacheCountsHitsAndRepeatedTunesAreFree)
{
    ExperimentRunner runner(4);
    const HksParams &par = benchmarkByName("BTS1");
    Tuner t(runner, par, smallSpace());

    const std::vector<std::size_t> zero(kAxisCount, 0);
    const Measurement m1 = t.evaluate(zero);
    EXPECT_EQ(t.evaluations(), 1u);
    EXPECT_EQ(t.cacheHits(), 0u);
    const Measurement m2 = t.evaluate(zero);
    EXPECT_EQ(t.evaluations(), 1u);
    EXPECT_EQ(t.cacheHits(), 1u);
    EXPECT_EQ(m1.runtime, m2.runtime);

    const TuneResult ex = t.tune({.strategy = Strategy::ExhaustiveGrid});
    // The pre-evaluated origin point hits; the other 17 are fresh.
    EXPECT_EQ(ex.evaluations, 17u);
    EXPECT_EQ(ex.cacheHits, 1u);

    // A second exhaustive pass on the same tuner evaluates nothing.
    const TuneResult ex2 =
        t.tune({.strategy = Strategy::ExhaustiveGrid});
    EXPECT_EQ(ex2.evaluations, 0u);
    EXPECT_EQ(ex2.cacheHits, 18u);
    EXPECT_EQ(ex2.best.m.runtime, ex.best.m.runtime);
}

TEST(Tuner, RunnerGraphCacheCountersTrackExperimentReuse)
{
    ExperimentRunner runner(2);
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    EXPECT_EQ(runner.cacheMisses(), 0u);
    EXPECT_EQ(runner.cacheHits(), 0u);
    runner.experiment(par, Dataflow::OC, mem);
    EXPECT_EQ(runner.cacheMisses(), 1u);
    EXPECT_EQ(runner.cacheHits(), 0u);
    runner.experiment(par, Dataflow::OC, mem);
    EXPECT_EQ(runner.cacheMisses(), 1u);
    EXPECT_EQ(runner.cacheHits(), 1u);
    EXPECT_EQ(runner.cachedExperiments(), 1u);
}

TEST(Pareto, DominanceAndHandBuiltThreePointFrontier)
{
    // a: fastest; b: slower but cheaper bandwidth; c: dominated by a
    // (slower, same bandwidth, more capacity).
    const TunedPoint a = handPoint(1e-3, 64.0, 32.0);
    const TunedPoint b = handPoint(2e-3, 32.0, 32.0);
    const TunedPoint c = handPoint(2.5e-3, 64.0, 64.0);

    EXPECT_TRUE(a.m.dominates(c.m));
    EXPECT_FALSE(a.m.dominates(b.m));
    EXPECT_FALSE(b.m.dominates(a.m));
    EXPECT_FALSE(c.m.dominates(a.m));
    // Equal measurements do not dominate each other.
    EXPECT_FALSE(a.m.dominates(a.m));

    const std::vector<TunedPoint> f = paretoFrontier({a, b, c});
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f[0].m.runtime, a.m.runtime);
    EXPECT_EQ(f[1].m.runtime, b.m.runtime);
}

TEST(Tuner, ShardAxisDelegatesToPlacementHelpers)
{
    ExperimentRunner runner(4);
    const HksParams &par = benchmarkByName("BTS1");
    TuneSpace sp;
    sp.dataflows = {Dataflow::OC};
    sp.bandwidths = {16.0};
    sp.shardCounts = {1, 2};
    sp.strategies = {shard::PartitionStrategy::ContiguousByLevel};
    Tuner t(runner, par, sp);

    std::vector<std::size_t> idx(kAxisCount, 0);
    idx[std::size_t(Axis::Shards)] = 1; // K = 2
    const Measurement m = t.evaluate(idx);
    EXPECT_EQ(m.aggregateGBps, 32.0);
    EXPECT_GT(m.transferTasks, 0u);

    // The same point evaluated directly through the shard helpers.
    const MemoryConfig mem{32ull << 20, false};
    auto exp = runner.experiment(par, Dataflow::OC, mem);
    RpuConfig chip = sp.chip;
    chip.bandwidthGBps = 16.0;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;
    const shard::Partition p = shard::partitionGraph(
        exp->graph(),
        shard::placementShardSpec(
            par, 2, shard::PartitionStrategy::ContiguousByLevel,
            sp.imbalanceTol),
        shard::taskWeights(exp->graph(), chip));
    const shard::PlacementEval e = shard::evaluatePlacement(
        exp->graph(), p, chip, sp.interconnect);
    EXPECT_EQ(m.runtime, e.runtime);
    EXPECT_EQ(m.cutBytes, e.cutBytes);
    EXPECT_EQ(m.transferTasks, e.transferTasks);

    // And the K=1 point is the plain single-RPU replay.
    idx[std::size_t(Axis::Shards)] = 0;
    EXPECT_EQ(t.evaluate(idx).runtime,
              exp->simulate(chip).runtime);
}

// K>1 tuner points bind from the experiment's compiled schedule; they
// must equal the 4-argument (graph-lowering) evaluatePlacement bit for
// bit across both topologies and both strategies, every channel
// layout and policy, a skew and both MODOPS values — with each
// canonical point evaluated exactly once and every repeat a hit.
TEST(Tuner, ShardAxisPointsMatchGraphLoweringPlacement)
{
    ExperimentRunner runner(2);
    const HksParams &par = benchmarkByName("BTS1");
    TuneSpace sp;
    sp.dataflows = {Dataflow::OC};
    sp.bandwidths = {16.0};
    sp.shardCounts = {1, 2, 4};
    sp.topologies = {shard::Topology::SharedBus,
                     shard::Topology::PointToPoint};
    sp.strategies = shard::allStrategies();
    sp.channelCounts = {1, 2, 4};
    sp.channelPolicies = {ChannelPolicy::Interleave,
                          ChannelPolicy::EvkDedicated,
                          ChannelPolicy::LeastLoaded};
    sp.channelSkews = {1.5};
    sp.modopsMults = {1.0, 2.0};
    Tuner t(runner, par, sp);
    const TuneResult ex = t.tune({.strategy = Strategy::ExhaustiveGrid});

    // Canonical points per MODOPS value: one single-channel layout
    // (policy and skew are vacuous there) plus 2 channel counts x 3
    // policies; K=1 has one of those sets, each of the 2 x 2 x 2
    // (K, topology, strategy) shard points another.
    const std::size_t layouts = 1 + 2 * 3;
    const std::size_t canonical = 2 * layouts * (1 + 2 * 2 * 2);
    EXPECT_EQ(ex.spaceSize, 3u * 2 * 2 * 3 * 3 * 2);
    EXPECT_EQ(ex.evaluations, canonical);
    EXPECT_EQ(t.evaluations(), canonical);
    EXPECT_EQ(ex.evaluated.size(), ex.spaceSize);

    std::size_t shardPoints = 0;
    for (const TunedPoint &tp : ex.evaluated) {
        if (tp.point.shards < 2)
            continue;
        ++shardPoints;
        const RpuConfig chip = sp.chipConfig(tp.point);
        const auto exp =
            runner.experiment(par, tp.point.dataflow, sp.memoryConfig(tp.point));
        const shard::Partition part = shard::partitionGraph(
            exp->graph(),
            shard::placementShardSpec(par, tp.point.shards, tp.point.strategy,
                                      sp.imbalanceTol),
            shard::taskWeights(exp->graph(), chip));
        shard::InterconnectConfig net = sp.interconnect;
        net.topology = tp.point.topology;
        const shard::PlacementEval e =
            shard::evaluatePlacement(exp->graph(), part, chip, net);
        EXPECT_EQ(tp.m.runtime, e.runtime) << tp.point.describe();
        EXPECT_EQ(tp.m.cutBytes, e.cutBytes) << tp.point.describe();
        EXPECT_EQ(tp.m.transferTasks, e.transferTasks)
            << tp.point.describe();
    }
    EXPECT_EQ(shardPoints, ex.spaceSize / 3 * 2);

    // A second walk over the whole space is served from the cache.
    const std::size_t hits0 = t.cacheHits();
    for (const TunedPoint &tp : ex.evaluated)
        EXPECT_EQ(t.evaluate(tp.idx).runtime, tp.m.runtime);
    EXPECT_EQ(t.evaluations(), canonical);
    EXPECT_EQ(t.cacheHits(), hits0 + ex.spaceSize);
}

// The partition memo hands K>1 points a cut computed for an earlier
// point with the same (graph, K, strategy, weight key). Every K>1 point
// must still equal a memo-free taskWeights -> partitionGraph ->
// evaluatePlacement bit for bit; policy moves and equal per-channel
// shares must hit; every K>1 evaluation is a partition or a hit; and
// runner widths 1 and 4 must agree on every result and counter.
TEST(Tuner, PartitionMemoMatchesFreshPartitions)
{
    const HksParams &par = benchmarkByName("BTS1");
    TuneSpace sp;
    sp.dataflows = {Dataflow::OC};
    sp.bandwidths = {8.0, 16.0, 32.0};
    sp.shardCounts = {1, 2, 4};
    sp.topologies = {shard::Topology::SharedBus,
                     shard::Topology::PointToPoint};
    sp.strategies = shard::allStrategies();
    sp.channelCounts = {1, 2, 4};
    sp.channelPolicies = {ChannelPolicy::Interleave,
                          ChannelPolicy::EvkDedicated,
                          ChannelPolicy::LeastLoaded};
    sp.modopsMults = {1.0, 2.0};

    struct Run
    {
        TuneResult r;
        std::size_t partitions = 0;
        std::size_t hits = 0;
    };
    std::vector<Run> runs;
    for (std::size_t width : {1, 4}) {
        ExperimentRunner runner(width);
        Tuner t(runner, par, sp);
        Run run;
        run.r = t.tune({.strategy = Strategy::ExhaustiveGrid});
        run.partitions = t.partitions();
        run.hits = t.partitionHits();
        obs::MetricsRegistry reg;
        t.exportMetrics(reg);
        std::size_t exported = 0;
        for (const obs::Metric &m : reg.snapshot()) {
            if (m.name == "tuner.partitions") {
                EXPECT_EQ(m.count, run.partitions);
                ++exported;
            }
            if (m.name == "tuner.partition_hits") {
                EXPECT_EQ(m.count, run.hits);
                ++exported;
            }
        }
        EXPECT_EQ(exported, 2u);

        // Canonical K>1 points: per (bandwidth, MODOPS), 2 K x 2
        // topologies x 2 strategies x 7 channel layouts. Their cuts
        // depend only on (K, strategy, per-channel share, MODOPS):
        // shares {2, 4, 8, 16, 32} GB/s give 2 x 2 x 5 x 2 distinct
        // cuts.
        const std::size_t shardEvals = 3 * 2 * 2 * 2 * 2 * 7;
        EXPECT_EQ(run.r.evaluations, 3 * 2 * 7 + shardEvals);
        EXPECT_EQ(run.partitions + run.hits, shardEvals);
        EXPECT_EQ(run.partitions, 2u * 2 * 5 * 2);
        EXPECT_GT(run.hits, 0u);

        for (const TunedPoint &tp : run.r.evaluated) {
            if (tp.point.shards < 2)
                continue;
            const RpuConfig chip = sp.chipConfig(tp.point);
            const auto exp = runner.experiment(par, tp.point.dataflow,
                                               sp.memoryConfig(tp.point));
            const shard::Partition part = shard::partitionGraph(
                exp->graph(),
                shard::placementShardSpec(par, tp.point.shards,
                                          tp.point.strategy,
                                          sp.imbalanceTol),
                shard::taskWeights(exp->graph(), chip));
            shard::InterconnectConfig net = sp.interconnect;
            net.topology = tp.point.topology;
            const shard::PlacementEval e =
                shard::evaluatePlacement(*exp, part, chip, net);
            EXPECT_EQ(tp.m.runtime, e.runtime) << tp.point.describe();
            EXPECT_EQ(tp.m.cutBytes, e.cutBytes) << tp.point.describe();
            EXPECT_EQ(tp.m.transferTasks, e.transferTasks)
                << tp.point.describe();
        }
        runs.push_back(std::move(run));
    }

    const Run &a = runs[0];
    const Run &b = runs[1];
    EXPECT_EQ(a.partitions, b.partitions);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.r.evaluations, b.r.evaluations);
    ASSERT_EQ(a.r.evaluated.size(), b.r.evaluated.size());
    for (std::size_t i = 0; i < a.r.evaluated.size(); ++i) {
        const TunedPoint &x = a.r.evaluated[i];
        const TunedPoint &y = b.r.evaluated[i];
        EXPECT_EQ(x.idx, y.idx);
        EXPECT_EQ(x.m.runtime, y.m.runtime) << x.point.describe();
        EXPECT_EQ(x.m.aggregateGBps, y.m.aggregateGBps);
        EXPECT_EQ(x.m.capacityBytes, y.m.capacityBytes);
        EXPECT_EQ(x.m.cutBytes, y.m.cutBytes) << x.point.describe();
        EXPECT_EQ(x.m.transferTasks, y.m.transferTasks);
    }
}

// Every cut of one graph shares the graph's PartitionPrep: joint-space
// searches with a shard axis build exactly one prep per graph that had
// a K>1 point, and still compute one cut per distinct (graph, K,
// strategy, weight key) — the memo's count, which the prep leaves
// alone. graph_preps is exported next to partitions.
TEST(Tuner, GraphPrepsAreOnePerGraphWithShardPoints)
{
    ExperimentRunner runner(4);
    for (const HksParams &par : paperBenchmarks()) {
        TuneSpace sp = paperJointSpace(par);
        sp.shardCounts = {1, 2};
        Tuner t(runner, par, sp);
        const TuneResult cd =
            t.tune({.strategy = Strategy::CoordinateDescent});
        const TuneResult hc =
            t.tune({.strategy = Strategy::RandomRestartHillClimb});

        using Graph = std::pair<Dataflow, std::uint64_t>;
        std::set<Graph> graphs;
        std::set<std::tuple<Graph, std::size_t, shard::PartitionStrategy,
                            std::uint64_t, std::uint64_t, std::uint64_t>>
            cuts;
        for (const TuneResult *r : {&cd, &hc})
            for (const TunedPoint &tp : r->evaluated) {
                if (tp.point.shards < 2)
                    continue;
                const Graph g{tp.point.dataflow, tp.point.dataMemBytes};
                const shard::WeightKey wk =
                    shard::weightKey(sp.chipConfig(tp.point));
                graphs.insert(g);
                cuts.emplace(g, tp.point.shards, tp.point.strategy,
                             std::bit_cast<std::uint64_t>(
                                 wk.channelBytesPerSec),
                             std::bit_cast<std::uint64_t>(wk.modopsPerSec),
                             std::bit_cast<std::uint64_t>(
                                 wk.shuffleElemsPerSec));
            }
        EXPECT_FALSE(graphs.empty()) << par.name;
        EXPECT_EQ(t.graphPreps(), graphs.size()) << par.name;
        EXPECT_EQ(t.partitions(), cuts.size()) << par.name;

        obs::MetricsRegistry reg;
        t.exportMetrics(reg);
        std::size_t exported = 0;
        for (const obs::Metric &m : reg.snapshot())
            if (m.name == "tuner.graph_preps") {
                EXPECT_EQ(m.count, t.graphPreps());
                ++exported;
            }
        EXPECT_EQ(exported, 1u);
    }
}

TEST(Tuner, OcBaseGridIsBitIdenticalToRpuHelper)
{
    ExperimentRunner runner;
    for (const char *bench : {"BTS1", "BTS2", "ARK"}) {
        const HksParams &par = benchmarkByName(bench);
        const double ref = ciflow::ocBaseBandwidth(runner, par);
        Tuner t(runner, par, ocBaseSpace());
        const double target = baselineRuntime(runner, par);
        EXPECT_EQ(tune::ocBaseBandwidth(t, target), ref) << bench;
        // The scan cached the whole grid.
        EXPECT_EQ(t.evaluations(), ocBaseSpace().bandwidths.size());
    }
}

TEST(Tuner, NestedTuneInsideRunnerJobsDoesNotDeadlock)
{
    // Tuners fanning out their own sweeps from inside runAll jobs is
    // the bench_tuner shape; the pool's help-drain must absorb it.
    ExperimentRunner runner(2);
    std::vector<double> best(2, 0.0);
    std::vector<std::function<void()>> jobs;
    const char *benches[] = {"BTS1", "BTS2"};
    for (std::size_t i = 0; i < 2; ++i)
        jobs.push_back([&runner, &best, benches, i] {
            Tuner t(runner, benchmarkByName(benches[i]), smallSpace());
            best[i] =
                t.tune({.strategy = Strategy::CoordinateDescent})
                    .best.m.runtime;
        });
    runner.runAll(jobs);
    EXPECT_GT(best[0], 0.0);
    EXPECT_GT(best[1], 0.0);
}

// The tuner's layout-adjacent grouping must be invisible in results:
// every exhaustive-grid point, evaluated in batches that cross channel
// layouts (and, on one channel, policies that share a layout), equals
// one-point-at-a-time evaluation by a fresh tuner on its own runner.
TEST(Tuner, LayoutCrossingBatchesMatchOnePointEvaluation)
{
    const HksParams &par = benchmarkByName("BTS1");
    TuneSpace policies;
    policies.dataflows = {Dataflow::MP, Dataflow::OC};
    policies.bandwidths = {16.0, 64.0, 256.0};
    policies.channelCounts = {1, 2, 4};
    policies.channelPolicies = {ChannelPolicy::Interleave,
                                ChannelPolicy::EvkDedicated,
                                ChannelPolicy::LeastLoaded};
    policies.modopsMults = {1.0, 2.0};
    for (const TuneSpace &space : {paperJointSpace(par), policies}) {
        ExperimentRunner runner;
        Tuner batched(runner, par, space);
        const TuneResult ex =
            batched.tune({.strategy = Strategy::ExhaustiveGrid});
        ASSERT_EQ(ex.evaluated.size(), space.pointCount());

        ExperimentRunner scalar_runner;
        Tuner scalar(scalar_runner, par, space);
        for (const TunedPoint &p : ex.evaluated) {
            const Measurement m = scalar.evaluate(p.idx);
            EXPECT_EQ(m.runtime, p.m.runtime) << p.point.describe();
            EXPECT_EQ(m.cutBytes, p.m.cutBytes) << p.point.describe();
        }
    }
}
