/**
 * @file
 * Tests for incremental compile: patchable CompiledSchedules rebound
 * in place instead of recompiled from the graph.
 *
 * The contract under test is bit-identity: a patched binding must be
 * indistinguishable from a fresh compile of the same target — same
 * runtime, same per-resource busy seconds and job counts, same
 * resource names — across randomized DAGs, every channel layout
 * (count x policy x per-channel skew), batched replay lanes, and
 * multi-shard partition-move sequences. On top of that, layoutTag()
 * must make patched bindings *distinguishable* from the compiler's
 * stamps (revision-mixed tags), so stale cached ReplayRates keep
 * panicking instead of silently replaying a superseded binding.
 *
 * Sharded schedules are bindings of a single-chip compile; every
 * entry point of that bind pass (compile, the experiment overloads,
 * bind, compilePatchable, recompilePartition) is pinned against the
 * legacy graph lowering in legacy_shard_lowering.h, CSR array by CSR
 * array and id map by id map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "legacy_shard_lowering.h"
#include "rpu/experiment.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"
#include "tune/tuner.h"

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
expectStatsEqual(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.memBusy, b.memBusy);
    EXPECT_EQ(a.compBusy, b.compBusy);
    ASSERT_EQ(a.resources.size(), b.resources.size());
    for (std::size_t r = 0; r < a.resources.size(); ++r) {
        EXPECT_EQ(a.resources[r].name, b.resources[r].name);
        EXPECT_EQ(a.resources[r].busySeconds,
                  b.resources[r].busySeconds);
        EXPECT_EQ(a.resources[r].jobs, b.resources[r].jobs);
    }
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
 * stamp, and — replayed through `eng` — the same makespan, per-resource
 * names, busy seconds and job counts, and transfer count and bytes.
 */
void
expectMatchesLegacy(const shard::ShardedEngine &eng,
                    const shard::ShardedCompiled &got,
                    const legacy::LoweredShards &want)
{
    const sim::ScheduleView a = got.schedule.view();
    const sim::ScheduleView b = want.compiled.schedule.view();
    ASSERT_EQ(a.taskCount, b.taskCount);
    ASSERT_EQ(a.opCount, b.opCount);
    ASSERT_EQ(a.resourceCount, b.resourceCount);
    ASSERT_EQ(got.schedule.depCount(), want.compiled.schedule.depCount());
    EXPECT_TRUE(sameArray(a.depOff, b.depOff, a.taskCount + 1));
    EXPECT_TRUE(sameArray(a.depIds, b.depIds, got.schedule.depCount()));
    EXPECT_TRUE(sameArray(a.opOff, b.opOff, a.taskCount + 1));
    EXPECT_TRUE(sameArray(a.opRes, b.opRes, a.opCount));
    EXPECT_TRUE(sameArray(a.opBytes, b.opBytes, a.opCount));
    EXPECT_TRUE(sameArray(a.opWork0, b.opWork0, a.opCount));
    EXPECT_TRUE(sameArray(a.opWork1, b.opWork1, a.opCount));
    EXPECT_TRUE(sameArray(a.opSec, b.opSec, a.opCount));
    EXPECT_TRUE(sameArray(a.opPost, b.opPost, a.opCount));
    EXPECT_EQ(got.schedule.baseLayoutTag(),
              want.compiled.schedule.baseLayoutTag());
    EXPECT_EQ(got.shards, want.compiled.shards);
    EXPECT_EQ(got.perChip, want.compiled.perChip);
    EXPECT_EQ(got.links, want.compiled.links);
    expectShardStatsEqual(eng.replay(got), eng.replay(want.compiled));
}

/** expectMatchesLegacy plus the patchable's graph -> schedule ids. */
void
expectPatchableMatchesLegacy(const shard::ShardedEngine &eng,
                             const shard::ShardedPatchable &ps,
                             const legacy::LoweredShards &want)
{
    expectMatchesLegacy(eng, ps.compiled, want);
    EXPECT_EQ(ps.newId, want.newId);
    EXPECT_EQ(ps.transferId, want.transferId);
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

// A repatched binding replays bit-identically to a fresh compile of
// the same layout — across random DAGs, channel counts, policies,
// per-channel skew, and both pipe splits, with one schedule carried
// through the whole layout walk.
TEST(Patch, ChannelRepatchMatchesFreshCompileOnRandomDags)
{
    std::mt19937 rng(20260808);
    for (int iter = 0; iter < 3; ++iter) {
        const TaskGraph g = randomGraph(rng, 120);
        for (bool split : {false, true}) {
            RpuConfig base;
            base.splitComputePipes = split;
            PatchableSchedule ps =
                RpuEngine(base).compilePatchable(g);
            for (std::size_t ch : {1, 2, 3, 4, 8})
                for (ChannelPolicy pol : allPolicies()) {
                    RpuConfig cfg = base;
                    cfg.memChannels = ch;
                    cfg.channelPolicy = pol;
                    // Skewed per-channel rates on the multi-channel
                    // points: skew is a replay knob, so it must not
                    // disturb binding equivalence.
                    if (ch > 1) {
                        cfg.channelGBps.clear();
                        for (std::size_t c = 0; c < ch; ++c)
                            cfg.channelGBps.push_back(
                                32.0 + 16.0 * static_cast<double>(c));
                    }
                    const RpuEngine eng(cfg);
                    eng.recompileChannels(ps);
                    expectStatsEqual(eng.replay(ps.schedule, g),
                                     eng.replay(eng.compile(g), g));
                }
        }
    }
}

// The layout-crossing sweep entry point: patched runtimes must equal
// scalar evaluation at every point, same-layout runs of two or more
// points ride the replayMany lanes, and the sweep counters report the
// patches and the lane blocks.
TEST(Patch, LayoutSweepMatchesScalarAcrossLanes)
{
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    const HksExperiment exp(par, Dataflow::OC, mem);

    std::vector<RpuConfig> cfgs;
    for (std::size_t ch : {1, 2, 4})
        for (ChannelPolicy pol :
             {ChannelPolicy::Interleave, ChannelPolicy::LeastLoaded})
            for (double bw : {32.0, 64.0, 128.0, 256.0, 512.0}) {
                RpuConfig cfg;
                cfg.dataMemBytes = mem.dataCapacityBytes;
                cfg.evkOnChip = mem.evkOnChip;
                cfg.memChannels = ch;
                cfg.channelPolicy = pol;
                cfg.bandwidthGBps = bw;
                cfgs.push_back(cfg);
            }

    LayoutSweep sweep;
    std::vector<double> out(cfgs.size());
    exp.simulateRuntimeMany(cfgs.data(), cfgs.size(), out.data(),
                            sweep);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_EQ(out[i], exp.simulateRuntime(cfgs[i])) << i;
    EXPECT_EQ(sweep.patches, 5u); // 6 layouts, first is the compile
    EXPECT_EQ(sweep.patchedEvals, 25u); // 5 per patched layout
    EXPECT_EQ(sweep.batchedPoints, 30u); // one block per layout
    EXPECT_EQ(sweep.laneSlots, 6 * sim::kBatchLanes);

    // Lone points between layout changes replay scalar; exercise that
    // path too by interleaving layouts point by point.
    std::vector<RpuConfig> alt;
    for (double bw : {32.0, 64.0, 128.0})
        for (std::size_t ch : {2, 4}) {
            RpuConfig cfg;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            cfg.memChannels = ch;
            cfg.bandwidthGBps = bw;
            alt.push_back(cfg);
        }
    std::vector<double> alt_out(alt.size());
    exp.simulateRuntimeMany(alt.data(), alt.size(), alt_out.data(),
                            sweep);
    for (std::size_t i = 0; i < alt.size(); ++i)
        EXPECT_EQ(alt_out[i], exp.simulateRuntime(alt[i])) << i;
    EXPECT_EQ(sweep.batchedPoints, 30u); // scalar points not counted
    EXPECT_EQ(sweep.laneSlots, 6 * sim::kBatchLanes);

    // Runs of two and three points each ride one padded lane block; a
    // lone point between them stays scalar.
    std::vector<RpuConfig> runs;
    for (const auto &[ch, n] : {std::pair<std::size_t, std::size_t>{2, 2},
                               {4, 3},
                               {1, 1},
                               {2, 3}})
        for (std::size_t k = 0; k < n; ++k) {
            RpuConfig cfg;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            cfg.memChannels = ch;
            cfg.bandwidthGBps = 32.0 * static_cast<double>(k + 1);
            cfg.modopsMult = k == 2 ? 2.0 : 1.0;
            runs.push_back(cfg);
        }
    LayoutSweep short_runs;
    std::vector<double> runs_out(runs.size());
    exp.simulateRuntimeMany(runs.data(), runs.size(), runs_out.data(),
                            short_runs);
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs_out[i], exp.simulateRuntime(runs[i])) << i;
    EXPECT_EQ(short_runs.patches, 3u);
    EXPECT_EQ(short_runs.batchedPoints, 2u + 3u + 3u);
    EXPECT_EQ(short_runs.laneSlots, 3 * sim::kBatchLanes);
    EXPECT_EQ(short_runs.patchedEvals, 3u + 1u + 3u);
}

// A sequence of single-task partition moves, each applied with
// recompilePartition, must equal a from-scratch compile of the final
// partition — runtime, per-resource busy/jobs, and transfer counts.
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
    shard::Partition cur = shard::partitionGraph(g, spec, w);
    shard::ShardedPatchable ps = seng.compilePatchable(g, cur);
    expectPatchableMatchesLegacy(seng, ps,
                                 legacy::lowerSharded(chip, net, g, cur));

    std::mt19937 rng(7);
    std::uniform_int_distribution<std::size_t> pick(0, g.size() - 1);
    std::uniform_int_distribution<std::uint32_t> to(
        0, static_cast<std::uint32_t>(k - 1));
    for (int move = 0; move < 6; ++move) {
        std::vector<std::uint32_t> assign = cur.shardOf;
        assign[pick(rng)] = to(rng);
        cur = shard::assignmentPartition(g, spec, std::move(assign),
                                         w);
        seng.recompilePartition(ps, cur);
        expectPatchableMatchesLegacy(
            seng, ps, legacy::lowerSharded(chip, net, g, cur));
    }
    EXPECT_GT(ps.compiled.schedule.patchRevision(), 0u);
}

// Every entry point of the bind pass reproduces the legacy graph
// lowering on random DAGs: compile, compilePatchable (with its id
// maps), and bind from single-chip sources compiled at 1, 2 and 4
// channels under every policy — one reused output carried through
// the whole walk — across fused and split pipes, engine chips of
// every channel layout, K in {1, 2, 4}, both topologies and both
// strategies.
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
                                const legacy::LoweredShards want =
                                    legacy::lowerSharded(chip, net, g, p);
                                expectMatchesLegacy(eng, eng.compile(g, p),
                                                    want);
                                expectPatchableMatchesLegacy(
                                    eng, eng.compilePatchable(g, p), want);
                                for (const sim::CompiledSchedule &src :
                                     sources) {
                                    eng.bind(g, src, p, reused);
                                    expectMatchesLegacy(eng, reused, want);
                                }
                            }
                }
    }
    // The reused output committed one patch revision per rebind.
    EXPECT_GT(reused.schedule.patchRevision(), 0u);
}

// The same pin on real HKS graphs, through the experiment overloads
// too: fused chips bind straight from HksExperiment::compiled(),
// split chips fall back to a fresh single-chip compile, and both
// equal the legacy lowering.
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
                        const legacy::LoweredShards want =
                            legacy::lowerSharded(chip, net, g, p);
                        expectMatchesLegacy(eng, eng.compile(g, p), want);
                        expectMatchesLegacy(eng, eng.compile(exp, p), want);
                        eng.bind(exp, p, reused);
                        expectMatchesLegacy(eng, reused, want);
                        expectPatchableMatchesLegacy(
                            eng, eng.compilePatchable(exp, p), want);
                        expectPatchableMatchesLegacy(
                            eng, eng.compilePatchable(g, p), want);
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

// recompilePartition is the same bind pass: walks of random moves
// and whole-strategy switches on random DAGs keep matching the legacy
// lowering of the current partition, id maps included, under every
// policy and both pipe splits.
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
                    shard::Partition cur = shard::partitionGraph(g, spec, w);
                    shard::ShardedPatchable ps = eng.compilePatchable(g, cur);
                    std::uniform_int_distribution<std::uint32_t> to(
                        0, static_cast<std::uint32_t>(k - 1));
                    for (int move = 0; move < 5; ++move) {
                        std::vector<std::uint32_t> assign = cur.shardOf;
                        for (int i = 0; i < 3; ++i)
                            assign[pick(rng)] = to(rng);
                        cur = shard::assignmentPartition(
                            g, spec, std::move(assign), w);
                        eng.recompilePartition(ps, cur);
                        expectPatchableMatchesLegacy(
                            eng, ps, legacy::lowerSharded(chip, net, g, cur));
                    }
                    shard::ShardSpec mincut = spec;
                    mincut.strategy = shard::PartitionStrategy::MinCutGreedy;
                    cur = shard::partitionGraph(g, mincut, w);
                    eng.recompilePartition(ps, cur);
                    expectPatchableMatchesLegacy(
                        eng, ps, legacy::lowerSharded(chip, net, g, cur));
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

// Patched bindings carry a revision-mixed layoutTag: distinct from
// every compiler stamp (including the same layout's), while
// baseLayoutTag() still names the bound layout for the engines.
TEST(Patch, PatchedLayoutTagIsDistinctPerRevision)
{
    std::mt19937 rng(3);
    const TaskGraph g = randomGraph(rng, 60);
    RpuConfig a; // 1 channel
    RpuConfig b;
    b.memChannels = 4;

    const std::uint64_t tag_a = RpuLayout::of(a).tag();
    const std::uint64_t tag_b = RpuLayout::of(b).tag();
    PatchableSchedule ps = RpuEngine(a).compilePatchable(g);
    EXPECT_EQ(ps.schedule.layoutTag(), tag_a);
    EXPECT_EQ(ps.schedule.patchRevision(), 0u);

    RpuEngine(b).recompileChannels(ps);
    EXPECT_EQ(ps.schedule.patchRevision(), 1u);
    EXPECT_EQ(ps.schedule.baseLayoutTag(), tag_b);
    EXPECT_NE(ps.schedule.layoutTag(), tag_b); // revision mixed in
    const std::uint64_t rev1 = ps.schedule.layoutTag();

    // Patch back: same layout as the original compile, but a caller
    // caching by layoutTag() must still see a new identity.
    RpuEngine(a).recompileChannels(ps);
    EXPECT_EQ(ps.schedule.patchRevision(), 2u);
    EXPECT_EQ(ps.schedule.baseLayoutTag(), tag_a);
    EXPECT_NE(ps.schedule.layoutTag(), tag_a);
    EXPECT_NE(ps.schedule.layoutTag(), rev1);
}

// Stale-rate safety across patches: ReplayRates built before a
// channel-count patch cover the wrong resource count and must panic,
// and an engine whose config no longer matches the binding must
// refuse to build rates at all.
TEST(PatchDeathTest, StaleRatesPanicAfterChannelPatch)
{
    std::mt19937 rng(11);
    const TaskGraph g = randomGraph(rng, 40);
    RpuConfig a; // 1 channel -> 2 resources
    RpuConfig b;
    b.memChannels = 4; // 5 resources

    PatchableSchedule ps = RpuEngine(a).compilePatchable(g);
    sim::ReplayRates stale;
    RpuEngine(a).rates(ps.schedule, stale);

    RpuEngine(b).recompileChannels(ps);
    sim::ReplayScratch scratch;
    EXPECT_DEATH(ps.schedule.replay(stale, scratch),
                 "different resource count");
    // The engine the schedule was compiled for is stale too.
    EXPECT_DEATH(RpuEngine(a).rates(ps.schedule, stale),
                 "layout does not match config");
}

// Pipe-split and vector-length moves reshape the skeleton and must be
// rejected by the patch path, as must shard-count moves.
TEST(PatchDeathTest, SkeletonChangesAreRejected)
{
    std::mt19937 rng(13);
    const TaskGraph g = randomGraph(rng, 40);
    RpuConfig base;
    PatchableSchedule ps = RpuEngine(base).compilePatchable(g);
    RpuConfig split = base;
    split.splitComputePipes = true;
    EXPECT_DEATH(RpuEngine(split).recompileChannels(ps),
                 "cannot change the pipe split");

    const shard::InterconnectConfig net;
    const shard::ShardSpec spec2{
        2, shard::PartitionStrategy::ContiguousByLevel, 0.10,
        1ull << 19, 2};
    const shard::ShardSpec spec3{
        3, shard::PartitionStrategy::ContiguousByLevel, 0.10,
        1ull << 19, 2};
    const std::vector<double> w = shard::taskWeights(g, base);
    const shard::ShardedEngine seng(base, net);
    shard::ShardedPatchable sps = seng.compilePatchable(
        g, shard::partitionGraph(g, spec2, w));
    EXPECT_DEATH(seng.recompilePartition(
                     sps, shard::partitionGraph(g, spec3, w)),
                 "cannot change the shard count");
}

// The tuner's layout-adjacent grouping must be invisible in results:
// batch-evaluated points equal one-point-at-a-time evaluation on a
// fresh tuner, and the patch path actually carried evaluations.
TEST(Patch, TunerPatchPathIsBitIdenticalAndCounted)
{
    const HksParams &par = benchmarkByName("BTS1");
    ExperimentRunner runner;
    tune::Tuner batched(runner, par, tune::paperJointSpace(par));
    const tune::TuneResult ex =
        batched.tune({.strategy = tune::Strategy::ExhaustiveGrid});
    EXPECT_GT(batched.patchedEvals(), 0u);

    // Spot-check a sample of evaluated points against a fresh tuner
    // evaluating them one at a time (single-point batches never take
    // the patch path).
    tune::Tuner scalar(runner, par, tune::paperJointSpace(par));
    for (std::size_t i = 0; i < ex.evaluated.size(); i += 37) {
        const tune::Measurement m = scalar.evaluate(ex.evaluated[i].idx);
        EXPECT_EQ(m.runtime, ex.evaluated[i].m.runtime) << i;
        EXPECT_EQ(m.cutBytes, ex.evaluated[i].m.cutBytes) << i;
    }
    EXPECT_EQ(scalar.patchedEvals(), 0u);
}
