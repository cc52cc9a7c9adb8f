/**
 * @file
 * Tests for incremental compile: sharded schedules rebound in place
 * (one more ShardedEngine::bind into a reused output) instead of
 * compiled again.
 *
 * The contract under test is bit-identity: a rebound schedule must be
 * indistinguishable from a fresh compile of the same target — same
 * CSR arrays, id maps, runtime, per-resource busy seconds and job
 * counts, and resource names — across randomized DAGs, channel
 * layouts, pipe splits and multi-shard partition-move sequences.
 *
 * Sharded schedules are bindings of a single-chip compile; every
 * entry point of that bind pass (compile, the experiment overloads,
 * bind into a fresh or a reused output) is pinned against the legacy
 * graph lowering in legacy_shard_lowering.h, CSR array by CSR array
 * and id map by id map — also for hand-built cuts with duplicated or
 * unused edges and for one output rebound across shard counts — and
 * malformed cuts are refused.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "legacy_shard_lowering.h"
#include "rpu/experiment.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"

using namespace ciflow;

namespace
{

/**
 * Random HKS-shaped DAG: loads (some evk streams), stores, and
 * compute tasks (some shuffle-free, so split-pipe op counts vary),
 * with backward-only dependencies.
 */
TaskGraph
randomGraph(std::mt19937 &rng, std::size_t n)
{
    TaskGraph g;
    std::uniform_int_distribution<int> kind(0, 3);
    std::uniform_int_distribution<std::uint64_t> bytes(1 << 10,
                                                       1 << 20);
    std::uniform_int_distribution<std::uint64_t> ops(100, 10000);
    for (std::size_t i = 0; i < n; ++i) {
        Task t;
        if (i > 0) {
            std::uniform_int_distribution<std::size_t> ndep(0, 3);
            std::uniform_int_distribution<std::uint32_t> dep(
                0, static_cast<std::uint32_t>(i - 1));
            const std::size_t d = ndep(rng);
            for (std::size_t k = 0; k < d; ++k)
                t.deps.push_back(dep(rng));
        }
        switch (kind(rng)) {
        case 0:
            t.kind = TaskKind::MemLoad;
            t.bytes = bytes(rng);
            break;
        case 1:
            t.kind = TaskKind::MemLoad;
            t.bytes = bytes(rng);
            t.isEvk = true;
            break;
        case 2:
            t.kind = TaskKind::MemStore;
            t.bytes = bytes(rng);
            break;
        default:
            t.kind = TaskKind::Compute;
            t.stage = StageId::ModUpKeyMul; // pointwise cost model
            t.modOps = ops(rng);
            t.shuffleOps = (i % 3 == 0) ? 0 : ops(rng);
            break;
        }
        g.push(t);
    }
    return g;
}

void
expectShardStatsEqual(const shard::ShardedStats &a,
                      const shard::ShardedStats &b)
{
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.memBusy, b.memBusy);
    EXPECT_EQ(a.compBusy, b.compBusy);
    EXPECT_EQ(a.linkBusy, b.linkBusy);
    EXPECT_EQ(a.transferTasks, b.transferTasks);
    EXPECT_EQ(a.transferBytes, b.transferBytes);
    ASSERT_EQ(a.resources.size(), b.resources.size());
    for (std::size_t r = 0; r < a.resources.size(); ++r) {
        EXPECT_EQ(a.resources[r].name, b.resources[r].name);
        EXPECT_EQ(a.resources[r].busySeconds,
                  b.resources[r].busySeconds);
        EXPECT_EQ(a.resources[r].jobs, b.resources[r].jobs);
    }
}

/** Element-wise equality of `n` entries of two CSR arrays. */
template <typename T>
bool
sameArray(const T *a, const T *b, std::size_t n)
{
    return std::equal(a, a + n, b);
}

/**
 * `got` is the legacy lowering `want`, exactly: the same CSR arrays
 * (deps, op resources and every cost numerator), the same layout
 * stamp and graph -> schedule id maps, and — replayed through `eng` —
 * the same makespan, per-resource names, busy seconds and job counts,
 * and transfer count and bytes.
 */
void
expectMatchesLegacy(const shard::ShardedEngine &eng,
                    const shard::ShardedCompiled &got,
                    const shard::ShardedCompiled &want)
{
    const sim::ScheduleView a = got.schedule.view();
    const sim::ScheduleView b = want.schedule.view();
    ASSERT_EQ(a.taskCount, b.taskCount);
    ASSERT_EQ(a.opCount, b.opCount);
    ASSERT_EQ(a.resourceCount, b.resourceCount);
    ASSERT_EQ(got.schedule.depCount(), want.schedule.depCount());
    EXPECT_TRUE(sameArray(a.depOff, b.depOff, a.taskCount + 1));
    EXPECT_TRUE(sameArray(a.depIds, b.depIds, got.schedule.depCount()));
    EXPECT_TRUE(sameArray(a.opOff, b.opOff, a.taskCount + 1));
    EXPECT_TRUE(sameArray(a.opRes, b.opRes, a.opCount));
    EXPECT_TRUE(sameArray(a.opBytes, b.opBytes, a.opCount));
    EXPECT_TRUE(sameArray(a.opWork0, b.opWork0, a.opCount));
    EXPECT_TRUE(sameArray(a.opWork1, b.opWork1, a.opCount));
    EXPECT_TRUE(sameArray(a.opSec, b.opSec, a.opCount));
    EXPECT_TRUE(sameArray(a.opPost, b.opPost, a.opCount));
    EXPECT_EQ(got.schedule.layoutTag(), want.schedule.layoutTag());
    EXPECT_EQ(got.shards, want.shards);
    EXPECT_EQ(got.perChip, want.perChip);
    EXPECT_EQ(got.links, want.links);
    EXPECT_EQ(got.newId, want.newId);
    EXPECT_EQ(got.transferId, want.transferId);
    expectShardStatsEqual(eng.replay(got), eng.replay(want));
}

/** A chip of `channels` DRAM channels under `pol`, fused or split. */
RpuConfig
chipOf(std::size_t channels, ChannelPolicy pol, bool split)
{
    RpuConfig c;
    c.memChannels = channels;
    c.channelPolicy = pol;
    c.splitComputePipes = split;
    return c;
}

const std::vector<ChannelPolicy> &
allPolicies()
{
    static const std::vector<ChannelPolicy> pols = {
        ChannelPolicy::Interleave, ChannelPolicy::EvkDedicated,
        ChannelPolicy::LeastLoaded};
    return pols;
}

} // namespace

// A sequence of single-task partition moves, each bound into the same
// output, must equal a from-scratch lowering of the partition — CSR
// arrays, id maps, runtime, per-resource busy/jobs and transfers.
TEST(Patch, ShardMoveSequenceMatchesFromScratchCompile)
{
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    const TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);

    RpuConfig chip;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;
    const shard::InterconnectConfig net;
    const std::size_t k = 4;
    const shard::ShardSpec spec = shard::placementShardSpec(
        par, k, shard::PartitionStrategy::MinCutGreedy, 0.10);
    const std::vector<double> w = shard::taskWeights(g, chip);

    const shard::ShardedEngine seng(chip, net);
    const sim::CompiledSchedule src = RpuEngine(chip).compile(g);
    shard::Partition cur = shard::partitionGraph(g, spec, w);
    shard::ShardedCompiled sc;
    seng.bind(g, src, cur, sc);
    expectMatchesLegacy(seng, sc, legacy::lowerSharded(chip, net, g, cur));

    std::mt19937 rng(7);
    std::uniform_int_distribution<std::size_t> pick(0, g.size() - 1);
    std::uniform_int_distribution<std::uint32_t> to(
        0, static_cast<std::uint32_t>(k - 1));
    for (int move = 0; move < 6; ++move) {
        std::vector<std::uint32_t> assign = cur.shardOf;
        assign[pick(rng)] = to(rng);
        cur = shard::assignmentPartition(g, spec, std::move(assign),
                                         w);
        seng.bind(g, src, cur, sc);
        expectMatchesLegacy(seng, sc,
                            legacy::lowerSharded(chip, net, g, cur));
    }
}

// Every entry point of the bind pass reproduces the legacy graph
// lowering on random DAGs, id maps included: compile, and bind from
// single-chip sources compiled at 1, 2 and 4 channels under every
// policy — one reused output carried through the whole walk — across
// fused and split pipes, engine chips of every channel layout, K in
// {1, 2, 4}, both topologies and both strategies.
TEST(ShardBind, EntryPointsMatchLegacyLoweringOnRandomDags)
{
    std::mt19937 rng(20261017);
    shard::ShardedCompiled reused;
    for (int iter = 0; iter < 2; ++iter) {
        const TaskGraph g = randomGraph(rng, 90);
        for (bool split : {false, true})
            for (std::size_t ch : {1, 2, 4})
                for (ChannelPolicy pol : allPolicies()) {
                    const RpuConfig chip = chipOf(ch, pol, split);
                    const std::vector<double> w =
                        shard::taskWeights(g, chip);
                    std::vector<sim::CompiledSchedule> sources;
                    for (std::size_t sch : {1, 2, 4})
                        for (ChannelPolicy spol : allPolicies())
                            sources.push_back(
                                RpuEngine(chipOf(sch, spol, split))
                                    .compile(g));
                    for (std::size_t k : {1, 2, 4})
                        for (shard::Topology topo :
                             {shard::Topology::SharedBus,
                              shard::Topology::PointToPoint})
                            for (shard::PartitionStrategy strat :
                                 shard::allStrategies()) {
                                SCOPED_TRACE(
                                    "iter " + std::to_string(iter) +
                                    " split " + std::to_string(split) +
                                    " ch " + std::to_string(ch) +
                                    " pol " +
                                    std::to_string(static_cast<int>(pol)) + " K " +
                                    std::to_string(k) + " " +
                                    shard::topologyName(topo) + " " +
                                    shard::strategyName(strat));
                                const shard::Partition p =
                                    shard::partitionGraph(
                                        g,
                                        {k, strat, 0.10, 1ull << 12, 2},
                                        w);
                                shard::InterconnectConfig net;
                                net.topology = topo;
                                const shard::ShardedEngine eng(chip, net);
                                const shard::ShardedCompiled want =
                                    legacy::lowerSharded(chip, net, g, p);
                                expectMatchesLegacy(eng, eng.compile(g, p),
                                                    want);
                                for (const sim::CompiledSchedule &src :
                                     sources) {
                                    eng.bind(g, src, p, reused);
                                    expectMatchesLegacy(eng, reused, want);
                                }
                            }
                }
    }
}

// The same pin on real HKS graphs, through the experiment overloads
// too: fused chips bind straight from HksExperiment::compiled(),
// split chips from the experiment's layout cache, and both equal the
// legacy lowering.
TEST(ShardBind, EntryPointsMatchLegacyLoweringOnHksGraphs)
{
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    const HksExperiment exp(par, Dataflow::OC, mem);
    const TaskGraph &g = exp.graph();
    shard::ShardedCompiled reused;
    for (bool split : {false, true})
        for (const RpuConfig &base :
             {chipOf(1, ChannelPolicy::Interleave, split),
              chipOf(2, ChannelPolicy::LeastLoaded, split),
              chipOf(4, ChannelPolicy::EvkDedicated, split)}) {
            RpuConfig chip = base;
            chip.dataMemBytes = mem.dataCapacityBytes;
            chip.evkOnChip = mem.evkOnChip;
            const std::vector<double> w = shard::taskWeights(g, chip);
            for (std::size_t k : {1, 2, 4})
                for (shard::Topology topo : {shard::Topology::SharedBus,
                                             shard::Topology::PointToPoint})
                    for (shard::PartitionStrategy strat :
                         shard::allStrategies()) {
                        SCOPED_TRACE("split " + std::to_string(split) +
                                     " ch " +
                                     std::to_string(chip.memChannels) +
                                     " K " + std::to_string(k) + " " +
                                     shard::topologyName(topo) + " " +
                                     shard::strategyName(strat));
                        const shard::Partition p = shard::partitionGraph(
                            g, shard::placementShardSpec(par, k, strat, 0.10),
                            w);
                        shard::InterconnectConfig net;
                        net.topology = topo;
                        const shard::ShardedEngine eng(chip, net);
                        const shard::ShardedCompiled want =
                            legacy::lowerSharded(chip, net, g, p);
                        expectMatchesLegacy(eng, eng.compile(g, p), want);
                        expectMatchesLegacy(eng, eng.compile(exp, p), want);
                        eng.bind(exp, p, reused);
                        expectMatchesLegacy(eng, reused, want);
                        for (std::size_t sch : {1, 2, 4})
                            for (ChannelPolicy spol : allPolicies()) {
                                eng.bind(g,
                                         RpuEngine(chipOf(sch, spol, split))
                                             .compile(g),
                                         p, reused);
                                expectMatchesLegacy(eng, reused, want);
                            }
                    }
        }
}

// A partition move is one more bind into the same output: walks of
// random moves and whole-strategy switches on random DAGs keep
// matching the legacy lowering of the current partition, id maps
// included, under every policy and both pipe splits.
TEST(ShardBind, PartitionMovesMatchLegacyLowering)
{
    std::mt19937 rng(77);
    const TaskGraph g = randomGraph(rng, 120);
    std::uniform_int_distribution<std::size_t> pick(0, g.size() - 1);
    for (bool split : {false, true})
        for (ChannelPolicy pol : allPolicies())
            for (std::size_t k : {2, 4})
                for (shard::Topology topo : {shard::Topology::SharedBus,
                                             shard::Topology::PointToPoint}) {
                    SCOPED_TRACE("split " + std::to_string(split) +
                                 " pol " + std::to_string(static_cast<int>(pol)) +
                                 " K " + std::to_string(k) + " " +
                                 shard::topologyName(topo));
                    const RpuConfig chip = chipOf(4, pol, split);
                    shard::InterconnectConfig net;
                    net.topology = topo;
                    const shard::ShardedEngine eng(chip, net);
                    const std::vector<double> w = shard::taskWeights(g, chip);
                    const shard::ShardSpec spec{
                        k, shard::PartitionStrategy::ContiguousByLevel,
                        0.10, 1ull << 12, 2};
                    const sim::CompiledSchedule src =
                        RpuEngine(chip).compile(g);
                    shard::Partition cur = shard::partitionGraph(g, spec, w);
                    shard::ShardedCompiled sc;
                    eng.bind(g, src, cur, sc);
                    std::uniform_int_distribution<std::uint32_t> to(
                        0, static_cast<std::uint32_t>(k - 1));
                    for (int move = 0; move < 5; ++move) {
                        std::vector<std::uint32_t> assign = cur.shardOf;
                        for (int i = 0; i < 3; ++i)
                            assign[pick(rng)] = to(rng);
                        cur = shard::assignmentPartition(
                            g, spec, std::move(assign), w);
                        eng.bind(g, src, cur, sc);
                        expectMatchesLegacy(
                            eng, sc, legacy::lowerSharded(chip, net, g, cur));
                    }
                    shard::ShardSpec mincut = spec;
                    mincut.strategy = shard::PartitionStrategy::MinCutGreedy;
                    cur = shard::partitionGraph(g, mincut, w);
                    eng.bind(g, src, cur, sc);
                    expectMatchesLegacy(
                        eng, sc, legacy::lowerSharded(chip, net, g, cur));
                }
}

// A source the bind cannot copy verbatim is refused: another pipe
// split or vector length reshapes the skeleton, a source compiled
// from another graph does not cover the partition's tasks, and a
// source that is the output would be cleared while being read.
TEST(ShardBindDeathTest, MismatchedSourcesAreRejected)
{
    std::mt19937 rng(5);
    const TaskGraph g = randomGraph(rng, 40);
    const TaskGraph other = randomGraph(rng, 41);
    const RpuConfig chip; // fused pipe, vector length 1024
    const shard::ShardedEngine eng(chip, shard::InterconnectConfig{});
    const shard::Partition p = shard::partitionGraph(
        g, {2, shard::PartitionStrategy::ContiguousByLevel, 0.10, 1ull << 12,
            2},
        shard::taskWeights(g, chip));
    shard::ShardedCompiled out;

    RpuConfig split = chip;
    split.splitComputePipes = true;
    EXPECT_DEATH(eng.bind(g, RpuEngine(split).compile(g), p, out),
                 "another pipe split or vector length");
    RpuConfig vlen = chip;
    vlen.vectorLen = 512;
    EXPECT_DEATH(eng.bind(g, RpuEngine(vlen).compile(g), p, out),
                 "another pipe split or vector length");
    EXPECT_DEATH(eng.bind(g, RpuEngine(chip).compile(other), p, out),
                 "task counts differ");
    out.schedule = RpuEngine(chip).compile(g);
    EXPECT_DEATH(eng.bind(g, out.schedule, p, out),
                 "bind source is its own output");
}

// The bind indexes a dense (producer x shard) cut table and the chip
// blocks by the partition's ids, so a hand-built partition whose ids
// do not describe a cut of the graph is refused before anything is
// written — through bind, compile and a rebind of a bound output.
TEST(ShardBindDeathTest, MalformedCutsAreRejected)
{
    std::mt19937 rng(11);
    const TaskGraph g = randomGraph(rng, 40);
    const RpuConfig chip;
    const shard::ShardedEngine eng(chip, shard::InterconnectConfig{});
    const shard::Partition p = shard::partitionGraph(
        g, {2, shard::PartitionStrategy::ContiguousByLevel, 0.10, 1ull << 12,
            2},
        shard::taskWeights(g, chip));
    ASSERT_FALSE(p.cutEdges.empty());
    const sim::CompiledSchedule src = RpuEngine(chip).compile(g);
    shard::ShardedCompiled out;
    const std::uint32_t home = p.cutEdges[0].fromShard;

    shard::Partition bad = p;
    bad.cutEdges[0].src = static_cast<std::uint32_t>(g.size());
    EXPECT_DEATH(eng.bind(g, src, bad, out),
                 "cut edge producer is outside the graph");
    bad = p;
    bad.cutEdges[0].fromShard = 2;
    EXPECT_DEATH(eng.bind(g, src, bad, out),
                 "cut edge names a shard outside the partition");
    bad = p;
    bad.cutEdges[0].toShard = 7;
    EXPECT_DEATH(eng.compile(g, bad),
                 "cut edge names a shard outside the partition");
    bad = p;
    bad.cutEdges[0].toShard = home;
    EXPECT_DEATH(eng.bind(g, src, bad, out),
                 "cut edge does not cross shards");
    bad = p;
    bad.cutEdges[0].fromShard = 1 - home;
    bad.cutEdges[0].toShard = home;
    EXPECT_DEATH(eng.bind(g, src, bad, out),
                 "cut edge does not leave its producer's shard");
    bad = p;
    bad.shardOf[0] = 2;
    EXPECT_DEATH(eng.bind(g, src, bad, out),
                 "partition puts a task on a shard outside its shard "
                 "count");
    eng.bind(g, src, p, out);
    EXPECT_DEATH(eng.bind(g, src, bad, out),
                 "partition puts a task on a shard outside its shard "
                 "count");
}

// Hand-built cuts the partitioner never emits still bind exactly like
// the legacy lowering, id maps included: a duplicated edge (the first
// occurrence carries the transfer, a later copy with another payload
// never materializes) and an extra edge no consumer needs (its
// transferId stays ~0 and the schedule holds no slot for it).
TEST(ShardBind, DuplicateAndUnusedCutEdgesMatchLegacyLowering)
{
    std::mt19937 rng(21);
    const TaskGraph g = randomGraph(rng, 120);
    for (bool split : {false, true}) {
        const RpuConfig chip = chipOf(2, ChannelPolicy::LeastLoaded, split);
        const shard::ShardedEngine eng(chip, shard::InterconnectConfig{});
        const std::size_t k = 3;
        const shard::Partition p = shard::partitionGraph(
            g, {k, shard::PartitionStrategy::MinCutGreedy, 0.10, 1ull << 12,
                2},
            shard::taskWeights(g, chip));
        ASSERT_GE(p.cutEdges.size(), 2u);

        // A later copy of the first edge with another payload, and an
        // earlier copy of the last edge ahead of the original.
        shard::Partition dup = p;
        shard::CutEdge later = p.cutEdges.front();
        later.bytes += 1;
        dup.cutEdges.push_back(later);
        dup.cutEdges.insert(dup.cutEdges.begin(), p.cutEdges.back());

        // An edge to a shard none of its producer's consumers sit on.
        std::vector<std::vector<char>> consumerOn(
            g.size(), std::vector<char>(k, 0));
        for (const Task &t : g.tasks())
            for (std::uint32_t d : t.deps)
                consumerOn[d][p.shardOf[t.id]] = 1;
        shard::Partition extra = p;
        bool found = false;
        for (std::uint32_t t = 0; t < g.size() && !found; ++t)
            for (std::uint32_t s = 0; s < k && !found; ++s)
                if (s != p.shardOf[t] && !consumerOn[t][s]) {
                    extra.cutEdges.insert(extra.cutEdges.begin() + 1,
                                          {t, p.shardOf[t], s, 999});
                    found = true;
                }
        ASSERT_TRUE(found);

        shard::ShardedCompiled reused;
        for (const shard::Partition *q : {&dup, &extra}) {
            const shard::ShardedCompiled want =
                legacy::lowerSharded(chip, eng.interconnect(), g, *q);
            const shard::ShardedCompiled fresh = eng.compile(g, *q);
            expectMatchesLegacy(eng, fresh, want);
            eng.bind(g, RpuEngine(chip).compile(g), *q, reused);
            expectMatchesLegacy(eng, reused, want);
            // Every edge past the materialized ones left no slot behind.
            const std::size_t unused = static_cast<std::size_t>(
                std::count(fresh.transferId.begin(), fresh.transferId.end(),
                           ~sim::TaskId{0}));
            EXPECT_EQ(unused, q == &dup ? 2u : 1u);
            EXPECT_EQ(fresh.transferTasks, q->cutEdges.size() - unused);
            EXPECT_EQ(fresh.schedule.taskCount(),
                      g.size() + fresh.transferTasks);
        }
    }
}

// One output rebound across shard counts: the chip blocks resize with
// K, and the dense cut table, kept unset between binds, is indexed by
// each bind's own K. Every step, and a fresh compile of the same
// partition, equals the legacy lowering, id maps included.
TEST(ShardBind, ReusedOutputRebindsAcrossShardCounts)
{
    std::mt19937 rng(31);
    const TaskGraph g = randomGraph(rng, 150);
    const RpuConfig chip = chipOf(4, ChannelPolicy::EvkDedicated, false);
    const std::vector<double> w = shard::taskWeights(g, chip);
    const sim::CompiledSchedule src = RpuEngine(chip).compile(g);
    for (shard::Topology topo :
         {shard::Topology::SharedBus, shard::Topology::PointToPoint}) {
        shard::InterconnectConfig net;
        net.topology = topo;
        const shard::ShardedEngine eng(chip, net);
        shard::ShardedCompiled reused;
        for (std::size_t k : {4, 2, 4}) {
            SCOPED_TRACE(std::string(shard::topologyName(topo)) + " K " +
                         std::to_string(k));
            const shard::Partition p = shard::partitionGraph(
                g, {k, shard::PartitionStrategy::MinCutGreedy, 0.10,
                    1ull << 12, 2},
                w);
            const shard::ShardedCompiled want =
                legacy::lowerSharded(chip, net, g, p);
            eng.bind(g, src, p, reused);
            expectMatchesLegacy(eng, reused, want);
            expectMatchesLegacy(eng, eng.compile(g, p), want);
        }
    }
}
