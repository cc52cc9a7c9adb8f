/**
 * @file
 * Tests for the multi-RPU sharding subsystem: partition invariants and
 * hand-computed assignments, the flat partition pass and the
 * per-graph partition prep against the per-Task reference
 * (legacy_partition.h) and the engine's task seconds, the weight key,
 * cut-edge deduplication, degenerate-case
 * equivalences (K=1 bit-identity, free interconnect), interconnect
 * queueing (bus vs point-to-point, pipelined latency) and its
 * validation, and the placement search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "legacy_partition.h"
#include "rpu/experiment.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"
#include "tune/tuner.h"

using namespace ciflow;
using namespace ciflow::shard;

namespace
{

Task
load(std::uint64_t bytes, std::vector<std::uint32_t> deps = {})
{
    Task t;
    t.kind = TaskKind::MemLoad;
    t.bytes = bytes;
    t.deps = std::move(deps);
    return t;
}

Task
comp(std::uint64_t ops, std::vector<std::uint32_t> deps = {})
{
    Task t;
    t.kind = TaskKind::Compute;
    t.stage = StageId::ModUpKeyMul; // pointwise cost model
    t.modOps = ops;
    t.deps = std::move(deps);
    return t;
}

RpuConfig
unitConfig()
{
    // 1 GB/s, 1e9 modops/s: 1 byte = 1 op = 1 ns.
    RpuConfig cfg;
    cfg.bandwidthGBps = 1.0;
    cfg.hples = 1;
    cfg.freqGHz = 1.0;
    cfg.cyclesPerModOp = 1.0;
    return cfg;
}

/** load -> comp -> load -> comp -> load -> comp serial chain. */
TaskGraph
serialChain()
{
    TaskGraph g;
    std::uint32_t prev = g.push(load(1000));
    prev = g.push(comp(500, {prev}));
    prev = g.push(load(1000, {prev}));
    prev = g.push(comp(500, {prev}));
    prev = g.push(load(1000, {prev}));
    g.push(comp(500, {prev}));
    return g;
}

InterconnectConfig
freeInterconnect(Topology topo = Topology::PointToPoint)
{
    InterconnectConfig net;
    net.topology = topo;
    net.linkGBps = std::numeric_limits<double>::infinity();
    net.latencySec = 0.0;
    return net;
}

/** Every Partition field equal, doubles by ==, edges in order. */
testing::AssertionResult
samePartition(const Partition &a, const Partition &b)
{
    if (a.shards != b.shards || a.strategy != b.strategy)
        return testing::AssertionFailure() << "shards/strategy differ";
    if (a.shardOf != b.shardOf)
        return testing::AssertionFailure() << "shardOf differs";
    if (a.shardWork.size() != b.shardWork.size())
        return testing::AssertionFailure() << "shardWork size differs";
    for (std::size_t s = 0; s < a.shardWork.size(); ++s)
        if (!(a.shardWork[s] == b.shardWork[s]))
            return testing::AssertionFailure()
                   << "shardWork[" << s << "] " << a.shardWork[s]
                   << " vs " << b.shardWork[s];
    if (a.cutEdges.size() != b.cutEdges.size())
        return testing::AssertionFailure()
               << "cut edges " << a.cutEdges.size() << " vs "
               << b.cutEdges.size();
    for (std::size_t i = 0; i < a.cutEdges.size(); ++i) {
        const CutEdge &x = a.cutEdges[i];
        const CutEdge &y = b.cutEdges[i];
        if (x.src != y.src || x.fromShard != y.fromShard ||
            x.toShard != y.toShard || x.bytes != y.bytes)
            return testing::AssertionFailure() << "cut edge " << i;
    }
    if (a.cutBytes != b.cutBytes)
        return testing::AssertionFailure() << "cutBytes differs";
    return testing::AssertionSuccess();
}

/**
 * A seeded random DAG: memory and compute tasks with random payloads,
 * up to five deps each drawn from earlier tasks with repeats (a
 * quarter of the tasks list one dep twice on purpose).
 */
TaskGraph
randomDag(Rng &rng, std::size_t n)
{
    TaskGraph g;
    for (std::size_t t = 0; t < n; ++t) {
        Task task;
        switch (rng.uniform(3)) {
        case 0:
            task.kind = TaskKind::MemLoad;
            break;
        case 1:
            task.kind = TaskKind::MemStore;
            break;
        default:
            task.kind = TaskKind::Compute;
            break;
        }
        task.bytes = 1 + rng.uniform(1u << 20);
        if (t > 0) {
            const std::size_t nd = rng.uniform(6);
            for (std::size_t i = 0; i < nd; ++i)
                task.deps.push_back(
                    static_cast<std::uint32_t>(rng.uniform(t)));
            if (!task.deps.empty() && rng.uniform(4) == 0)
                task.deps.push_back(task.deps.front());
        }
        g.push(std::move(task));
    }
    return g;
}

/** Random weights, about one in five exactly zero. */
std::vector<double>
randomWeights(Rng &rng, std::size_t n)
{
    std::vector<double> w(n);
    for (double &x : w)
        x = rng.uniform(5) == 0
                ? 0.0
                : static_cast<double>(1 + rng.uniform(1u << 20)) / 7e9;
    return w;
}

} // namespace

TEST(Partitioner, TaskWeightsAreEngineSeconds)
{
    TaskGraph g = serialChain();
    std::vector<double> w = taskWeights(g, unitConfig());
    ASSERT_EQ(w.size(), 6u);
    for (std::size_t t = 0; t < w.size(); ++t)
        EXPECT_NEAR(w[t], t % 2 == 0 ? 1e-6 : 0.5e-6, 1e-15) << t;
}

// The flat-array pass must reproduce the per-Task reference
// partitioner bit for bit: every shardOf, every shardWork double, every
// cut edge in order and the cut bytes — on random DAGs with repeated
// deps and zero weights across shard counts, strategies, refinement
// depths and load caps; on the HKS graphs of perfbench's tune space
// under each of its chip weight vectors; and for explicit assignments.
TEST(Partitioner, FlatPassMatchesLegacyPartitioner)
{
    Rng rng(0xc0ffee);
    for (std::size_t trial = 0; trial < 24; ++trial) {
        const std::size_t n = 1 + rng.uniform(160);
        const TaskGraph g = randomDag(rng, n);
        const std::vector<double> w = randomWeights(rng, n);
        for (std::size_t k : {2, 3, 4, 8})
            for (PartitionStrategy st : allStrategies())
                for (std::size_t passes : {0, 1, 2, 4})
                    for (double tol : {0.0, 0.1, 0.5}) {
                        ShardSpec spec;
                        spec.shards = k;
                        spec.strategy = st;
                        spec.refinePasses = passes;
                        spec.imbalanceTol = tol;
                        spec.computeOutputBytes = 1 + rng.uniform(1u << 19);
                        EXPECT_TRUE(
                            samePartition(partitionGraph(g, spec, w),
                                          legacy::partitionGraph(g, spec, w)))
                            << "trial " << trial << " n=" << n << " K=" << k
                            << " " << strategyName(st) << " passes="
                            << passes << " tol=" << tol;
                    }
        for (std::size_t k : {1, 2, 5}) {
            ShardSpec spec;
            spec.shards = k;
            std::vector<std::uint32_t> assign(n);
            for (std::uint32_t &s : assign)
                s = static_cast<std::uint32_t>(rng.uniform(k));
            EXPECT_TRUE(samePartition(
                assignmentPartition(g, spec, assign, w),
                legacy::assignmentPartition(g, spec, assign, w)))
                << "trial " << trial << " K=" << k;
        }
    }

    std::size_t graphs = 0;
    for (const HksParams &par : paperBenchmarks()) {
        const tune::TuneSpace sp = tune::paperJointSpace(par);
        for (Dataflow df : sp.dataflows)
            for (std::uint64_t cap : sp.capacities) {
                const MemoryConfig mem{cap, sp.evkOnChip};
                const TaskGraph g = buildHksGraph(par, df, mem);
                ++graphs;
                std::vector<std::vector<double>> seen;
                for (double bw : {8.0, 16.0, 32.0, 64.0})
                    for (std::size_t ch : sp.channelCounts)
                        for (double mult : sp.modopsMults) {
                            RpuConfig chip;
                            chip.dataMemBytes = cap;
                            chip.evkOnChip = sp.evkOnChip;
                            chip.bandwidthGBps = bw;
                            chip.memChannels = ch;
                            chip.modopsMult = mult;
                            const std::vector<double> w =
                                taskWeights(g, chip);
                            // Equal per-channel shares repeat a weight
                            // vector; each distinct one is checked once.
                            if (std::find(seen.begin(), seen.end(), w) !=
                                seen.end())
                                continue;
                            seen.push_back(w);
                            for (PartitionStrategy st : allStrategies()) {
                                const ShardSpec spec = placementShardSpec(
                                    par, 2, st, sp.imbalanceTol);
                                EXPECT_TRUE(samePartition(
                                    partitionGraph(g, spec, w),
                                    legacy::partitionGraph(g, spec, w)))
                                    << par.name << " " << dataflowName(df)
                                    << " " << (cap >> 20) << " MiB " << bw
                                    << " GB/s x" << ch << " MODOPS x"
                                    << mult << " " << strategyName(st);
                            }
                        }
            }
    }
    EXPECT_EQ(graphs, 36u);
}

// taskWeights may depend on the chip only through weightKey(): chips
// spanning every knob TuneSpace::chipConfig sets, grouped by key, must
// price two HKS graphs bit-identically within each group. The chip set
// holds equal-key pairs that differ in bandwidth and channel count,
// and pairs that differ in channel policy, so the check is not vacuous.
TEST(Partitioner, WeightKeyDeterminesTaskWeights)
{
    const HksParams &par = benchmarkByName("ARK");
    std::vector<TaskGraph> graphs;
    for (Dataflow df : {Dataflow::MP, Dataflow::OC})
        graphs.push_back(
            buildHksGraph(par, df, MemoryConfig{32ull << 20, false}));

    std::vector<RpuConfig> chips;
    for (double bw : {8.0, 16.0, 32.0})
        for (std::size_t ch : {1, 2, 4})
            for (ChannelPolicy pol :
                 {ChannelPolicy::Interleave, ChannelPolicy::EvkDedicated,
                  ChannelPolicy::LeastLoaded})
                for (double skew : {1.0, 1.5})
                    for (double mult : {1.0, 2.0})
                        for (bool split : {false, true})
                            for (std::uint64_t cap :
                                 {32ull << 20, 64ull << 20})
                                for (bool evk : {false, true}) {
                                    tune::TuneSpace sp;
                                    sp.chip.splitComputePipes = split;
                                    sp.evkOnChip = evk;
                                    tune::TunePoint p;
                                    p.bandwidthGBps = bw;
                                    p.memChannels = ch;
                                    p.channelPolicy = pol;
                                    p.channelSkew = skew;
                                    p.modopsMult = mult;
                                    p.dataMemBytes = cap;
                                    chips.push_back(sp.chipConfig(p));
                                }

    // The first chip seen with each key, and its weights per graph;
    // every later chip with that key must price bit-identically.
    struct Priced
    {
        RpuConfig chip;
        WeightKey key;
        std::vector<std::vector<double>> w;
    };
    std::vector<Priced> reps;
    std::size_t same = 0, bwAndChannels = 0, policy = 0;
    for (const RpuConfig &chip : chips) {
        Priced e{chip, weightKey(chip), {}};
        for (const TaskGraph &g : graphs)
            e.w.push_back(taskWeights(g, chip));
        const auto rep =
            std::find_if(reps.begin(), reps.end(),
                         [&](const Priced &r) { return r.key == e.key; });
        if (rep == reps.end()) {
            reps.push_back(std::move(e));
            continue;
        }
        ++same;
        for (std::size_t gi = 0; gi < graphs.size(); ++gi)
            ASSERT_EQ(std::memcmp(e.w[gi].data(), rep->w[gi].data(),
                                  e.w[gi].size() * sizeof(double)),
                      0)
                << "graph " << gi;
        if (chip.bandwidthGBps != rep->chip.bandwidthGBps &&
            chip.memChannels != rep->chip.memChannels)
            ++bwAndChannels;
        if (chip.channelPolicy != rep->chip.channelPolicy)
            ++policy;
    }
    EXPECT_GT(same, 0u);
    EXPECT_GT(bwAndChannels, 0u);
    EXPECT_GT(policy, 0u);

    // The doubles compare bitwise: signed zeros divide to opposite
    // infinities and must not share a key.
    WeightKey pos, neg;
    neg.channelBytesPerSec = -0.0;
    EXPECT_FALSE(pos == neg);
    EXPECT_TRUE(pos == WeightKey{});
}

// A prep's weights are one division loop over rate-free numerators;
// they must equal the graph form and the engine's own per-task seconds
// (RpuEngine::computeTaskSeconds / memTaskSeconds) bit for bit, for
// every paper benchmark and dataflow at both vector lengths, both pipe
// splits, 1/2/4 channels and both MODOPS multipliers. At the default
// 4 cycles per modop the arithmetic half wins every fused max, so each
// chip also runs at 0.5 cycles per modop, where the shuffle half wins
// on many tasks: both numerators are checked.
TEST(Partitioner, PrepWeightsMatchGraphWeightsAndEngineSeconds)
{
    std::size_t checked = 0, shuffleBound = 0;
    for (const HksParams &par : paperBenchmarks()) {
        const tune::TuneSpace sp = tune::paperJointSpace(par);
        const MemoryConfig mem{sp.capacities.front(), sp.evkOnChip};
        std::vector<RpuConfig> chips;
        for (bool split : {false, true})
            for (std::size_t ch : {1, 2, 4})
                for (double mult : {1.0, 2.0})
                    for (double cpm : {4.0, 0.5}) {
                        RpuConfig chip;
                        chip.dataMemBytes = mem.dataCapacityBytes;
                        chip.evkOnChip = mem.evkOnChip;
                        chip.splitComputePipes = split;
                        chip.memChannels = ch;
                        chip.modopsMult = mult;
                        chip.cyclesPerModOp = cpm;
                        chips.push_back(chip);
                    }
        for (Dataflow df : sp.dataflows) {
            const TaskGraph g = buildHksGraph(par, df, mem);
            for (std::size_t vlen : {512, 1024}) {
                const PartitionPrep prep(g, par.towerBytes(), vlen);
                const CodeGen cg(vlen);
                for (RpuConfig chip : chips) {
                    chip.vectorLen = vlen;
                    const std::vector<double> w = taskWeights(prep, chip);
                    const std::vector<double> wg = taskWeights(g, chip);
                    ASSERT_EQ(w.size(), g.size());
                    ASSERT_EQ(wg.size(), g.size());
                    const RpuEngine eng(chip);
                    for (const Task &t : g.tasks()) {
                        const bool compute = t.kind == TaskKind::Compute;
                        const double want =
                            compute ? eng.computeTaskSeconds(t, cg)
                                    : eng.memTaskSeconds(t);
                        if (compute && eng.shuffleTaskSeconds(t, cg) >
                                           eng.arithTaskSeconds(t))
                            ++shuffleBound;
                        ASSERT_EQ(std::memcmp(&w[t.id], &want,
                                              sizeof(double)),
                                  0)
                            << par.name << " " << dataflowName(df)
                            << " vlen " << vlen << " split "
                            << chip.splitComputePipes << " ch "
                            << chip.memChannels << " x" << chip.modopsMult
                            << " cpm " << chip.cyclesPerModOp << " task "
                            << t.id;
                        ASSERT_EQ(std::memcmp(&wg[t.id], &want,
                                              sizeof(double)),
                                  0)
                            << par.name << " task " << t.id;
                    }
                    ++checked;
                }
            }
        }
    }
    EXPECT_EQ(checked, paperBenchmarks().size() * 3 * 2 * 24);
    EXPECT_GT(shuffleBound, 0u);
}

// One prep serves every cut of its graph: partitionGraph over it must
// equal the per-Task reference partitioner bit for bit for both
// strategies, K in {2, 3, 4, 8} and 0 or 2 refinement passes — on
// random DAGs with repeated deps and zero weights, and on the HKS
// graphs of every paper benchmark at the prep's own weights.
TEST(Partitioner, PrepPartitionsMatchLegacyPartitioner)
{
    const auto sweep = [](const TaskGraph &g, const PartitionPrep &prep,
                          const std::vector<double> &w,
                          const std::string &what) {
        for (std::size_t k : {2, 3, 4, 8})
            for (PartitionStrategy st : allStrategies())
                for (std::size_t passes : {0, 2}) {
                    ShardSpec spec;
                    spec.shards = k;
                    spec.strategy = st;
                    spec.refinePasses = passes;
                    spec.computeOutputBytes = prep.deps.computeOutputBytes;
                    EXPECT_TRUE(
                        samePartition(partitionGraph(prep, spec, w),
                                      legacy::partitionGraph(g, spec, w)))
                        << what << " K=" << k << " " << strategyName(st)
                        << " passes=" << passes;
                }
    };
    Rng rng(0x9e9);
    for (std::size_t trial = 0; trial < 12; ++trial) {
        const std::size_t n = 1 + rng.uniform(160);
        const TaskGraph g = randomDag(rng, n);
        const PartitionPrep prep(g, 1 + rng.uniform(1u << 19), 1024);
        sweep(g, prep, randomWeights(rng, n),
              "trial " + std::to_string(trial));
    }
    for (const HksParams &par : paperBenchmarks()) {
        const MemoryConfig mem{64ull << 20, false};
        const TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);
        RpuConfig chip;
        chip.dataMemBytes = mem.dataCapacityBytes;
        const PartitionPrep prep(g, par.towerBytes(), chip.vectorLen);
        sweep(g, prep, taskWeights(prep, chip), par.name);
    }
}

// A prep is built for one vector length and one cut payload; using it
// with another of either would price or cut a different problem.
TEST(PartitionerDeathTest, PrepRejectsAnotherVectorLengthOrCutPayload)
{
    const TaskGraph g = serialChain();
    const PartitionPrep prep(g, 1ull << 19, 1024);
    RpuConfig chip = unitConfig();
    chip.vectorLen = 512;
    EXPECT_DEATH(taskWeights(prep, chip), "another vector length");
    chip.vectorLen = 1024;
    const std::vector<double> w = taskWeights(prep, chip);
    ShardSpec spec;
    spec.computeOutputBytes = 1ull << 18;
    EXPECT_DEATH(partitionGraph(prep, spec, w), "another cut payload");
}

TEST(Partitioner, ContiguousSplitsScheduleOrderByWork)
{
    TaskGraph g = serialChain();
    ShardSpec spec;
    spec.shards = 3;
    spec.strategy = PartitionStrategy::ContiguousByLevel;
    // Exactly representable weights so the chunk quotas are exact.
    Partition p = partitionGraph(g, spec, {1, 0.5, 1, 0.5, 1, 0.5});

    ASSERT_EQ(p.shardOf.size(), 6u);
    EXPECT_EQ(p.shardOf,
              (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2}));
    // Shard indices never decrease along the schedule order.
    for (std::size_t t = 1; t < p.shardOf.size(); ++t)
        EXPECT_GE(p.shardOf[t], p.shardOf[t - 1]);
    // Each chunk holds one load + one compute.
    for (double w : p.shardWork)
        EXPECT_NEAR(w, 1.5, 1e-12);
    // A serial chain cut twice: compute -> load boundaries.
    ASSERT_EQ(p.cutEdges.size(), 2u);
    EXPECT_EQ(p.cutEdges[0].src, 1u);
    EXPECT_EQ(p.cutEdges[0].toShard, 1u);
    EXPECT_EQ(p.cutEdges[0].bytes, spec.computeOutputBytes);
    EXPECT_EQ(p.cutEdges[1].src, 3u);
    EXPECT_EQ(p.cutEdges[1].toShard, 2u);
}

TEST(Partitioner, MinCutKeepsIndependentChainsApart)
{
    // Two equal-work independent chains: greedy placement should give
    // each chain its own shard and cut nothing.
    TaskGraph g;
    std::uint32_t a = g.push(load(1000));
    a = g.push(comp(1000, {a}));
    a = g.push(comp(1000, {a}));
    std::uint32_t b = g.push(load(1000));
    b = g.push(comp(1000, {b}));
    g.push(comp(1000, {b}));

    ShardSpec spec;
    spec.shards = 2;
    spec.strategy = PartitionStrategy::MinCutGreedy;
    Partition p =
        partitionGraph(g, spec, taskWeights(g, unitConfig()));

    EXPECT_EQ(p.shardOf[0], p.shardOf[1]);
    EXPECT_EQ(p.shardOf[1], p.shardOf[2]);
    EXPECT_EQ(p.shardOf[3], p.shardOf[4]);
    EXPECT_EQ(p.shardOf[4], p.shardOf[5]);
    EXPECT_NE(p.shardOf[0], p.shardOf[3]);
    EXPECT_TRUE(p.cutEdges.empty());
    EXPECT_EQ(p.cutBytes, 0u);
    EXPECT_NEAR(p.imbalance(), 0.0, 1e-9);
}

TEST(Partitioner, MinCutRespectsLoadCap)
{
    // Ten equal independent tasks, K=2: byte locality never justifies
    // exceeding the (1 + tol) cap, so both shards end up with five.
    TaskGraph g;
    for (int i = 0; i < 10; ++i)
        g.push(load(1000));
    ShardSpec spec;
    spec.shards = 2;
    spec.strategy = PartitionStrategy::MinCutGreedy;
    spec.imbalanceTol = 0.05;
    Partition p =
        partitionGraph(g, spec, taskWeights(g, unitConfig()));
    EXPECT_NEAR(p.shardWork[0], p.shardWork[1], 1e-12);
    EXPECT_LE(p.imbalance(), 0.05 + 1e-9);
}

TEST(Partitioner, BoundaryRefinementNeverIncreasesCutOnRealGraphs)
{
    // The KL-style boundary-swap pass is seeded by the greedy cut and
    // takes strictly improving moves only, so the refined cut can
    // never be worse (partitionGraph panics otherwise; this pins the
    // behavior across real HKS graphs and shard counts).
    for (const char *bench : {"BTS3", "ARK"}) {
        const HksParams &par = benchmarkByName(bench);
        const MemoryConfig mem{32ull << 20, false};
        const TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);
        RpuConfig chip;
        chip.bandwidthGBps = 16.0;
        chip.dataMemBytes = mem.dataCapacityBytes;
        const std::vector<double> w = taskWeights(g, chip);
        for (std::size_t k : {2, 4, 8}) {
            ShardSpec spec = placementShardSpec(
                par, k, PartitionStrategy::MinCutGreedy, 0.10);
            spec.refinePasses = 0;
            const Partition greedy = partitionGraph(g, spec, w);
            spec.refinePasses = 2;
            const Partition refined = partitionGraph(g, spec, w);

            EXPECT_LE(refined.cutBytes, greedy.cutBytes)
                << bench << " K=" << k;
            // On these graphs the greedy cut is genuinely improvable
            // (ROADMAP: it pays ~2x contiguous's bytes).
            EXPECT_LT(refined.cutBytes, greedy.cutBytes)
                << bench << " K=" << k;
            // Every task still has a shard and the work totals agree.
            double total_g = 0.0, total_r = 0.0;
            for (double x : greedy.shardWork)
                total_g += x;
            for (double x : refined.shardWork)
                total_r += x;
            EXPECT_NEAR(total_r, total_g, 1e-9);

            // Deterministic: same inputs, same refined assignment.
            const Partition again = partitionGraph(g, spec, w);
            EXPECT_EQ(again.shardOf, refined.shardOf);
            EXPECT_EQ(again.cutBytes, refined.cutBytes);
        }
    }
}

TEST(Partitioner, BoundaryRefinementIsNoOpOnCleanCuts)
{
    // Two independent chains already cut nothing; refinement must
    // leave the zero-cut assignment alone.
    TaskGraph g;
    std::uint32_t a = g.push(load(1000));
    a = g.push(comp(1000, {a}));
    std::uint32_t b = g.push(load(1000));
    b = g.push(comp(1000, {b}));
    ShardSpec spec;
    spec.shards = 2;
    spec.strategy = PartitionStrategy::MinCutGreedy;
    spec.refinePasses = 4;
    const Partition p =
        partitionGraph(g, spec, taskWeights(g, unitConfig()));
    EXPECT_EQ(p.cutBytes, 0u);
    EXPECT_NEAR(p.imbalance(), 0.0, 1e-9);
}

TEST(Partitioner, CutEdgesDedupePerDestinationShard)
{
    // One producer feeding three consumers on one remote shard ships
    // once to that shard; a fourth consumer on another shard ships a
    // second copy.
    TaskGraph g;
    std::uint32_t src = g.push(load(4000));
    g.push(comp(100, {src}));
    g.push(comp(100, {src}));
    g.push(comp(100, {src}));
    g.push(comp(100, {src}));

    // Weights chosen so the contiguous split lands {0 | 1,2,3 | 4}.
    ShardSpec spec;
    spec.shards = 3;
    spec.strategy = PartitionStrategy::ContiguousByLevel;
    Partition p = partitionGraph(g, spec, {3, 1, 1, 1, 3});
    ASSERT_EQ(p.shardOf,
              (std::vector<std::uint32_t>{0, 1, 1, 1, 2}));

    ASSERT_EQ(p.cutEdges.size(), 2u);
    EXPECT_EQ(p.cutEdges[0].src, 0u);
    EXPECT_EQ(p.cutEdges[0].toShard, 1u);
    EXPECT_EQ(p.cutEdges[1].src, 0u);
    EXPECT_EQ(p.cutEdges[1].toShard, 2u);
    // Memory-task producers ship the bytes they loaded.
    EXPECT_EQ(p.cutEdges[0].bytes, 4000u);
    EXPECT_EQ(p.cutBytes, 8000u);

    // The compiler materializes exactly one transfer per cut edge.
    ShardedEngine eng(unitConfig(), freeInterconnect());
    ShardedCompiled sc = eng.compile(g, p);
    EXPECT_EQ(sc.transferTasks, 2u);
    EXPECT_EQ(sc.transferBytes, 8000u);
    EXPECT_EQ(sc.schedule.taskCount(), 7u);
}

TEST(ShardDegenerate, K1IsBitIdenticalToSingleRpuReplay)
{
    for (const char *bench : {"BTS1", "ARK"}) {
        for (Dataflow d : {Dataflow::MP, Dataflow::OC}) {
            const HksParams &par = benchmarkByName(bench);
            MemoryConfig mem{32ull << 20, false};
            TaskGraph g = buildHksGraph(par, d, mem);

            RpuConfig chip;
            chip.bandwidthGBps = 32.0;
            chip.memChannels = 2;
            chip.dataMemBytes = mem.dataCapacityBytes;
            chip.evkOnChip = mem.evkOnChip;

            RpuEngine single(chip);
            SimStats ref = single.replay(single.compile(g), g);

            ShardSpec spec;
            spec.shards = 1;
            spec.computeOutputBytes = par.towerBytes();
            Partition p =
                partitionGraph(g, spec, taskWeights(g, chip));
            InterconnectConfig net; // finite links; K=1 has none
            ShardedEngine eng(chip, net);
            ShardedStats s = eng.run(g, p);

            EXPECT_EQ(s.runtime, ref.runtime) << bench;
            EXPECT_EQ(s.memBusy, ref.memBusy) << bench;
            EXPECT_EQ(s.compBusy, ref.compBusy) << bench;
            EXPECT_EQ(s.transferTasks, 0u);
            EXPECT_EQ(s.linkBusy, 0.0);
        }
    }
}

TEST(ShardDegenerate, FreeInterconnectOnSerialChainMatchesK1)
{
    TaskGraph g = serialChain();
    const RpuConfig chip = unitConfig();
    const std::vector<double> w = taskWeights(g, chip);

    RpuEngine single(chip);
    const double rt1 = single.replay(single.compile(g), g).runtime;
    // 3 loads of 1 us + 3 computes of 0.5 us, fully serial.
    EXPECT_NEAR(rt1, 4.5e-6, 1e-12);

    ShardSpec spec;
    spec.shards = 3;
    Partition p = partitionGraph(g, spec, w);
    for (Topology topo : {Topology::SharedBus, Topology::PointToPoint}) {
        ShardedEngine eng(chip, freeInterconnect(topo));
        ShardedStats s = eng.run(g, p);
        // Zero-duration transfers: the chain's finish times are the
        // exact sums the single chip produces.
        EXPECT_EQ(s.runtime, rt1) << topologyName(topo);
        EXPECT_EQ(s.transferTasks, 2u);
    }
}

TEST(ShardDegenerate, FreeInterconnectNeverSlowerThanK1OnHksGraph)
{
    const HksParams &par = benchmarkByName("ARK");
    MemoryConfig mem{32ull << 20, false};
    TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);
    RpuConfig chip;
    chip.bandwidthGBps = 16.0;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;

    RpuEngine single(chip);
    const double rt1 = single.replay(single.compile(g), g).runtime;

    for (PartitionStrategy strat : allStrategies()) {
        ShardSpec spec;
        spec.shards = 4;
        spec.strategy = strat;
        spec.computeOutputBytes = par.towerBytes();
        Partition p = partitionGraph(g, spec, taskWeights(g, chip));
        ShardedEngine eng(chip, freeInterconnect());
        // Dropping tasks from an in-order queue never delays the
        // rest, so free transfers can only help.
        EXPECT_LE(eng.run(g, p).runtime, rt1 * (1 + 1e-12))
            << strategyName(strat);
    }
}

TEST(Interconnect, LatencyIsPipelinedNotOccupancy)
{
    TaskGraph g = serialChain();
    const RpuConfig chip = unitConfig();
    ShardSpec spec;
    spec.shards = 3;
    Partition p = partitionGraph(g, spec, taskWeights(g, chip));

    InterconnectConfig net = freeInterconnect();
    net.latencySec = 1e-6;
    ShardedEngine eng(chip, net);
    ShardedStats s = eng.run(g, p);
    // Two cross-chip hops on the critical path, 1 us propagation
    // each, zero occupancy: 4.5 us + 2 us.
    EXPECT_NEAR(s.runtime, 6.5e-6, 1e-12);
    EXPECT_NEAR(s.linkBusy, 0.0, 1e-15);
}

TEST(Interconnect, SharedBusSerializesWhatPointToPointOverlaps)
{
    // Two 1000-byte transfers become ready at the same instant from
    // different source chips toward a third.
    TaskGraph g;
    std::uint32_t a = g.push(load(1000));
    std::uint32_t b = g.push(load(1000));
    g.push(comp(1, {a, b}));

    Partition p;
    p.shards = 3;
    p.strategy = PartitionStrategy::MinCutGreedy;
    p.shardOf = {0, 1, 2};
    p.shardWork = {1.0, 1.0, 0.0};
    for (std::uint32_t src : {0u, 1u}) {
        CutEdge e;
        e.src = src;
        e.fromShard = src;
        e.toShard = 2;
        e.bytes = 1000;
        p.cutEdges.push_back(e);
        p.cutBytes += e.bytes;
    }

    InterconnectConfig bus;
    bus.topology = Topology::SharedBus;
    bus.linkGBps = 1.0;
    bus.latencySec = 0.0;
    ShardedStats sb = ShardedEngine(unitConfig(), bus).run(g, p);
    // Loads [0,1us); bus serializes: [1,2) then [2,3); comp 1 ns.
    EXPECT_NEAR(sb.runtime, 3.001e-6, 1e-12);
    EXPECT_NEAR(sb.linkBusy, 2e-6, 1e-15);

    InterconnectConfig p2p = bus;
    p2p.topology = Topology::PointToPoint;
    ShardedStats sp = ShardedEngine(unitConfig(), p2p).run(g, p);
    // Distinct links overlap: both transfers in [1,2us).
    EXPECT_NEAR(sp.runtime, 2.001e-6, 1e-12);
    EXPECT_NEAR(sp.linkBusy, 2e-6, 1e-15);
    EXPECT_LT(sp.runtime, sb.runtime);
}

// checkInterconnect is the one validation of latency and link rate:
// latency finite and >= 0, link bandwidth > 0 (+inf is the free link
// of the freeInterconnect() fixture).
TEST(Interconnect, CheckRejectsOutOfRangeLatencyAndLinkRates)
{
    EXPECT_TRUE(checkInterconnect(InterconnectConfig{}).ok());
    EXPECT_TRUE(checkInterconnect(freeInterconnect()).ok());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double lat : {nan, -1e-3, inf, -inf}) {
        InterconnectConfig net;
        net.latencySec = lat;
        EXPECT_EQ(checkInterconnect(net).code,
                  sim::ErrorCode::BadInterconnect)
            << lat;
    }
    for (double bw : {nan, 0.0, -64.0, -inf}) {
        InterconnectConfig net;
        net.linkGBps = bw;
        EXPECT_EQ(checkInterconnect(net).code,
                  sim::ErrorCode::BadInterconnect)
            << bw;
    }
}

// A patchable compiled on a cut-free partition hands no transfer to
// a validated append, so rebinding it onto a real cut used to append
// transfers carrying any latency unchecked: at NaN they dropped out of
// replay's max (BTS1 OC K=2 replayed 14.25 ms), at -1 ms they became
// visible before they were sent (20.00 ms), against 22.01 ms for a
// free-latency compile. The engine now refuses such an interconnect
// at construction; the zero-latency rebind is the healthy baseline.
TEST(InterconnectDeathTest, RebindOntoACutRejectsBadLatency)
{
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    const TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);
    RpuConfig chip;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;
    const ShardSpec spec = placementShardSpec(
        par, 2, PartitionStrategy::MinCutGreedy, 0.10);
    const std::vector<double> w = taskWeights(g, chip);
    const Partition allOn0 = assignmentPartition(
        g, spec, std::vector<std::uint32_t>(g.size(), 0), w);
    const Partition mincut = partitionGraph(g, spec, w);
    ASSERT_TRUE(allOn0.cutEdges.empty());
    ASSERT_FALSE(mincut.cutEdges.empty());

    InterconnectConfig net;
    net.latencySec = 0.0;
    {
        const ShardedEngine eng(chip, net);
        ShardedPatchable ps = eng.compilePatchable(g, allOn0);
        eng.recompilePartition(ps, mincut);
        EXPECT_EQ(eng.replayRuntime(ps.compiled),
                  eng.replayRuntime(eng.compile(g, mincut)));
    }
    for (double lat : {std::numeric_limits<double>::quiet_NaN(), -1e-3}) {
        net.latencySec = lat;
        EXPECT_EXIT(
            {
                const ShardedEngine eng(chip, net);
                ShardedPatchable ps = eng.compilePatchable(g, allOn0);
                eng.recompilePartition(ps, mincut);
                std::printf("%a\n", eng.replayRuntime(ps.compiled));
            },
            ::testing::ExitedWithCode(1),
            "link latency must be finite")
            << lat;
    }
    // A placement search refuses the network before partitioning.
    PlacementSpec spec2;
    spec2.shardCounts = {2};
    spec2.interconnect.latencySec = -1e-3;
    EXPECT_EXIT(
        {
            ExperimentRunner runner(1);
            searchPlacements(runner, par, mem, spec2);
        },
        ::testing::ExitedWithCode(1), "placement search interconnect");
}

TEST(ShardedEngine, ReplayMatchesRunAndIsReusable)
{
    const HksParams &par = benchmarkByName("BTS1");
    MemoryConfig mem{32ull << 20, false};
    TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);
    RpuConfig chip;
    chip.bandwidthGBps = 16.0;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;

    ShardSpec spec;
    spec.shards = 4;
    spec.strategy = PartitionStrategy::MinCutGreedy;
    spec.computeOutputBytes = par.towerBytes();
    Partition p = partitionGraph(g, spec, taskWeights(g, chip));

    InterconnectConfig net;
    net.linkGBps = 64.0;
    ShardedEngine eng(chip, net);
    ShardedCompiled sc = eng.compile(g, p);
    const double r1 = eng.replayRuntime(sc);
    const double r2 = eng.replayRuntime(sc);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(eng.replay(sc).runtime, r1);
    EXPECT_EQ(eng.run(g, p).runtime, r1);
    EXPECT_EQ(sc.transferTasks, p.cutEdges.size());
}

TEST(ShardedEngine, ReplayingUnderDifferentTopologyPanics)
{
    // The layout tag must distinguish topologies even for the default
    // fused-pipe chip: replaying a bus-compiled schedule through a
    // p2p engine is a silent-wrong-answer bug the tag exists to stop.
    TaskGraph g = serialChain();
    const RpuConfig chip = unitConfig();
    ShardSpec spec;
    spec.shards = 2;
    Partition p = partitionGraph(g, spec, taskWeights(g, chip));

    InterconnectConfig bus;
    bus.topology = Topology::SharedBus;
    ShardedCompiled sc = ShardedEngine(chip, bus).compile(g, p);

    InterconnectConfig p2p = bus;
    p2p.topology = Topology::PointToPoint;
    ShardedEngine wrong(chip, p2p);
    EXPECT_DEATH(wrong.replayRuntime(sc), "layout does not match");
}

TEST(PlacementSearch, AsymmetricChannelChipsStillSearch)
{
    // Chips with per-channel bandwidths (channelGBps) have no
    // aggregate-bandwidth knob to sweep, but the default single-point
    // axis must still evaluate them — through the same batched path —
    // exactly as a scalar replay does.
    ExperimentRunner runner(2);
    const HksParams &par = benchmarkByName("BTS1");
    MemoryConfig mem{32ull << 20, false};

    PlacementSpec spec;
    spec.shardCounts = {1, 2};
    spec.dataflows = {Dataflow::OC};
    spec.topologies = {Topology::PointToPoint};
    spec.strategies = {PartitionStrategy::MinCutGreedy};
    spec.chip.memChannels = 2;
    spec.chip.channelGBps = {48.0, 16.0};

    std::vector<PlacementResult> res =
        searchPlacements(runner, par, mem, spec);
    ASSERT_EQ(res.size(), 2u); // K=1 + K=2

    RpuConfig chip = spec.chip;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;
    auto exp = runner.experiment(par, Dataflow::OC, mem);
    for (const PlacementResult &r : res) {
        EXPECT_EQ(r.baseline, exp->simulateRuntime(chip));
        if (r.shards == 1)
            continue;
        // Scalar reference: the pre-batching evaluatePlacement path.
        ShardSpec ss = placementShardSpec(par, r.shards, r.strategy,
                                          spec.imbalanceTol);
        Partition p = partitionGraph(exp->graph(), ss,
                                     taskWeights(exp->graph(), chip));
        const PlacementEval e = evaluatePlacement(
            exp->graph(), p, chip, spec.interconnect);
        EXPECT_EQ(r.runtime, e.runtime);
    }
}

TEST(PlacementSearch, GridIsEvaluatedAndSorted)
{
    ExperimentRunner runner(4);
    const HksParams &par = benchmarkByName("BTS1");
    MemoryConfig mem{32ull << 20, false};

    PlacementSpec spec;
    spec.shardCounts = {1, 2, 4};
    spec.dataflows = {Dataflow::OC};
    spec.chip.bandwidthGBps = 16.0;
    spec.interconnect.linkGBps = 128.0;
    spec.interconnect.latencySec = 1e-6;

    std::vector<PlacementResult> res =
        searchPlacements(runner, par, mem, spec);
    // 1 K=1 row + 2 K>1 counts x 2 topologies x 2 strategies.
    ASSERT_EQ(res.size(), 1u + 2u * 2u * 2u);
    for (std::size_t i = 1; i < res.size(); ++i)
        EXPECT_LE(res[i - 1].runtime, res[i].runtime);
    for (const PlacementResult &r : res) {
        EXPECT_GT(r.runtime, 0.0);
        EXPECT_GT(r.baseline, 0.0);
        if (r.shards == 1) {
            EXPECT_EQ(r.cutBytes, 0u);
            // K=1 sharded replay is the single-RPU replay.
            EXPECT_EQ(r.runtime, r.baseline);
        }
    }

    // Determinism: a serial re-run returns the same table.
    ExperimentRunner serial(1);
    std::vector<PlacementResult> res2 =
        searchPlacements(serial, par, mem, spec);
    ASSERT_EQ(res2.size(), res.size());
    for (std::size_t i = 0; i < res.size(); ++i)
        EXPECT_EQ(res[i].runtime, res2[i].runtime);
}

TEST(PlacementSearch, ShardingBeatsSingleRpuWhenBandwidthBound)
{
    // A bandwidth-starved chip (8 GB/s, evk streamed) with a fast
    // interconnect: some K>1 placement must win.
    ExperimentRunner runner(4);
    const HksParams &par = benchmarkByName("ARK");
    MemoryConfig mem{32ull << 20, false};

    PlacementSpec spec;
    spec.shardCounts = {2, 4, 8};
    spec.dataflows = {Dataflow::MP, Dataflow::OC};
    spec.chip.bandwidthGBps = 8.0;
    spec.interconnect.linkGBps = 256.0;
    spec.interconnect.latencySec = 2e-6;

    std::vector<PlacementResult> res =
        searchPlacements(runner, par, mem, spec);
    ASSERT_FALSE(res.empty());
    EXPECT_GT(res.front().speedup(), 1.0)
        << "best: K=" << res.front().shards << " "
        << topologyName(res.front().topology) << " "
        << strategyName(res.front().strategy);
}
