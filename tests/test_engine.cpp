/**
 * @file
 * Tests for the decoupled-queue RPU engine on hand-built graphs and on
 * generated HKS graphs (monotonicity, saturation, overlap, idle
 * accounting).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "rpu/experiment.h"

using namespace ciflow;

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

} // namespace

TEST(Engine, SerialChain)
{
    TaskGraph g;
    auto l = g.push(load(1000));
    g.push(comp(500, {l}));
    SimStats s = RpuEngine(unitConfig()).run(g);
    EXPECT_NEAR(s.runtime, 1.5e-6, 1e-12);
    EXPECT_NEAR(s.memBusy, 1.0e-6, 1e-12);
    EXPECT_NEAR(s.compBusy, 0.5e-6, 1e-12);
    EXPECT_NEAR(s.computeIdleFraction(), 1.0 - 0.5 / 1.5, 1e-9);
}

TEST(Engine, IndependentTasksOverlap)
{
    TaskGraph g;
    g.push(load(1000));
    g.push(comp(1000));
    SimStats s = RpuEngine(unitConfig()).run(g);
    // Perfect masking: both channels busy simultaneously.
    EXPECT_NEAR(s.runtime, 1.0e-6, 1e-12);
    EXPECT_NEAR(s.computeIdleFraction(), 0.0, 1e-9);
}

TEST(Engine, InOrderQueueBlocksYoungerMemTask)
{
    // mem: A (depends on compute C), B (independent). A is queue head,
    // so B waits even though its deps are met — in-order semantics.
    TaskGraph g;
    auto c = g.push(comp(1000));
    g.push(load(100, {c}));
    g.push(load(100));
    SimStats s = RpuEngine(unitConfig()).run(g);
    // C runs [0,1us); A [1,1.1); B [1.1,1.2).
    EXPECT_NEAR(s.runtime, 1.2e-6, 1e-12);
}

TEST(Engine, PipelinedChainsOverlap)
{
    // load_i -> comp_i chains: memory prefetches ahead and computation
    // hides behind it (the paper's decoupling claim).
    TaskGraph g;
    std::uint32_t prev_comp = 0;
    for (int i = 0; i < 10; ++i) {
        auto l = g.push(load(1000));
        std::vector<std::uint32_t> deps = {l};
        if (i > 0)
            deps.push_back(prev_comp);
        prev_comp = g.push(comp(1000, deps));
    }
    SimStats s = RpuEngine(unitConfig()).run(g);
    // 10 loads of 1us back-to-back; computes trail by one: 11us total.
    EXPECT_NEAR(s.runtime, 11.0e-6, 1e-11);
    EXPECT_NEAR(s.memBusy, 10.0e-6, 1e-11);
    EXPECT_NEAR(s.compBusy, 10.0e-6, 1e-11);
}

TEST(Engine, ShufflePipeCanDominate)
{
    RpuConfig cfg = unitConfig();
    Task t;
    t.kind = TaskKind::Compute;
    t.stage = StageId::ModUpNtt;
    t.modOps = 3;          // tiny arithmetic
    t.shuffleOps = 100000; // large shuffle traffic
    TaskGraph g;
    g.push(t);
    SimStats s = RpuEngine(cfg).run(g);
    EXPECT_GT(s.runtime, 0.9 * 100000e-9);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const HksParams &b = benchmarkByName("ARK");
    HksExperiment exp(b, Dataflow::OC, MemoryConfig{32ull << 20, true});
    SimStats s1 = exp.simulate(32.0);
    SimStats s2 = exp.simulate(32.0);
    EXPECT_DOUBLE_EQ(s1.runtime, s2.runtime);
    EXPECT_DOUBLE_EQ(s1.memBusy, s2.memBusy);
}

class EngineOnBenchmarks : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineOnBenchmarks, RuntimeMonotoneInBandwidth)
{
    const HksParams &b = benchmarkByName(GetParam());
    for (Dataflow d : allDataflows()) {
        HksExperiment exp(b, d, MemoryConfig{32ull << 20, true});
        double prev = 1e9;
        for (double bw : paperBandwidthSweepExtended()) {
            double rt = exp.simulate(bw).runtime;
            EXPECT_LE(rt, prev * (1 + 1e-9))
                << dataflowName(d) << " @" << bw;
            prev = rt;
        }
    }
}

TEST_P(EngineOnBenchmarks, RuntimeSaturatesAtComputeBound)
{
    const HksParams &b = benchmarkByName(GetParam());
    RpuConfig cfg;
    const double compute_floor =
        static_cast<double>(OpModel(b).totalHks().modOps) /
        cfg.modopsPerSec();
    for (Dataflow d : allDataflows()) {
        HksExperiment exp(b, d, MemoryConfig{32ull << 20, true});
        double rt = exp.simulate(100000.0).runtime; // effectively inf BW
        EXPECT_GE(rt, compute_floor * 0.999) << dataflowName(d);
        EXPECT_LE(rt, compute_floor * 1.6) << dataflowName(d);
    }
}

TEST_P(EngineOnBenchmarks, OcFastestAtLowBandwidth)
{
    const HksParams &b = benchmarkByName(GetParam());
    MemoryConfig mem{32ull << 20, true};
    HksExperiment mp(b, Dataflow::MP, mem), dc(b, Dataflow::DC, mem),
        oc(b, Dataflow::OC, mem);
    double rt_mp = mp.simulate(8.0).runtime;
    double rt_dc = dc.simulate(8.0).runtime;
    double rt_oc = oc.simulate(8.0).runtime;
    EXPECT_LT(rt_oc, rt_dc);
    EXPECT_LT(rt_oc, rt_mp);
}

TEST_P(EngineOnBenchmarks, MoreModopsNeverSlower)
{
    const HksParams &b = benchmarkByName(GetParam());
    HksExperiment exp(b, Dataflow::OC, MemoryConfig{32ull << 20, true});
    for (double bw : {8.0, 64.0, 256.0}) {
        double prev = 1e9;
        for (double m : {1.0, 2.0, 4.0, 8.0, 16.0}) {
            double rt = exp.simulate(bw, m).runtime;
            EXPECT_LE(rt, prev * (1 + 1e-9)) << bw << "x" << m;
            prev = rt;
        }
    }
}

TEST_P(EngineOnBenchmarks, StreamingEvkNeverFaster)
{
    const HksParams &b = benchmarkByName(GetParam());
    HksExperiment on(b, Dataflow::OC, MemoryConfig{32ull << 20, true});
    HksExperiment off(b, Dataflow::OC, MemoryConfig{32ull << 20, false});
    for (double bw : {8.0, 32.0, 128.0}) {
        EXPECT_GE(off.simulate(bw).runtime,
                  on.simulate(bw).runtime * (1 - 1e-9))
            << bw;
    }
}

INSTANTIATE_TEST_SUITE_P(PaperBenchmarks, EngineOnBenchmarks,
                         ::testing::Values("BTS1", "BTS2", "BTS3", "ARK",
                                           "DPRIVE"));

TEST(EngineMultiChannel, SecondChannelRelievesHeadOfLineBlocking)
{
    // A large load A blocks a small load B on a single in-order
    // channel, delaying the compute chain behind B. Two channels let B
    // complete immediately on the other channel, overlapping the long
    // compute with A's transfer — even though each channel has half
    // the aggregate bandwidth.
    TaskGraph g;
    g.push(load(500000));                // A: head-of-line blocker
    auto b = g.push(load(1000));         // B: small, independent
    g.push(comp(1000000, {b}));          // C: long compute behind B

    RpuConfig one = unitConfig();
    SimStats s1 = RpuEngine(one).run(g);
    // A [0,0.5ms); B [0.5,0.501); C [0.501,1.501).
    EXPECT_NEAR(s1.runtime, 1.501e-3, 1e-12);
    EXPECT_EQ(s1.memChannels, 1u);

    RpuConfig two = unitConfig();
    two.memChannels = 2;
    SimStats s2 = RpuEngine(two).run(g);
    // Each channel serves 0.5 GB/s: A on ch0 [0,1ms); B on ch1
    // [0,2us); C [2us,1.002ms). Runtime is max(1ms, 1.002ms).
    EXPECT_NEAR(s2.runtime, 1.002e-3, 1e-12);
    EXPECT_EQ(s2.memChannels, 2u);
    EXPECT_LT(s2.runtime, s1.runtime);
    // Aggregate channel-busy seconds double when bandwidth halves.
    EXPECT_NEAR(s2.memBusy, 2 * s1.memBusy, 1e-15);
    ASSERT_EQ(s2.resources.size(), 3u);
    EXPECT_EQ(s2.resources[0].jobs, 1u);
    EXPECT_EQ(s2.resources[1].jobs, 1u);
}

TEST(EngineMultiChannel, DedicatedEvkChannelUnblocksDataLoads)
{
    // An evk stream ahead of a data load stalls the single queue; the
    // EvkDedicated policy gives streams their own channel.
    TaskGraph g;
    Task evk;
    evk.kind = TaskKind::MemLoad;
    evk.bytes = 1000000;
    evk.isEvk = true;
    g.push(evk);
    auto a = g.push(load(500000));
    g.push(comp(1000000, {a}));

    RpuConfig one = unitConfig();
    SimStats s1 = RpuEngine(one).run(g);
    // evk [0,1ms); A [1,1.5); C [1.5,2.5).
    EXPECT_NEAR(s1.runtime, 2.5e-3, 1e-12);

    RpuConfig ded = unitConfig();
    ded.memChannels = 2;
    ded.channelPolicy = ChannelPolicy::EvkDedicated;
    SimStats s2 = RpuEngine(ded).run(g);
    // data ch0 at 0.5 GB/s: A [0,1ms); evk ch1: [0,2ms); C [1,2ms).
    EXPECT_NEAR(s2.runtime, 2.0e-3, 1e-12);
    EXPECT_LT(s2.runtime, s1.runtime);

    // Policy falls back to interleaving below two channels.
    RpuConfig fallback = unitConfig();
    fallback.channelPolicy = ChannelPolicy::EvkDedicated;
    SimStats s3 = RpuEngine(fallback).run(g);
    EXPECT_EQ(s3.runtime, s1.runtime);
}

TEST(EngineSplitPipes, IndependentArithAndShuffleOverlap)
{
    // T1: shuffle-heavy, T2: arithmetic-heavy, independent. The fused
    // pipe serializes max(arith,shuf) of each; split pipes overlap T2's
    // arithmetic under T1's shuffle.
    RpuConfig fused = unitConfig();
    Task t1;
    t1.kind = TaskKind::Compute;
    t1.stage = StageId::ModUpNtt;
    t1.modOps = 3;
    t1.shuffleOps = 1024 * 1000; // 1000 VSHUF instrs -> 1.024 ms
    TaskGraph g;
    g.push(t1);
    g.push(comp(900000)); // 0.9 ms of arithmetic

    SimStats sf = RpuEngine(fused).run(g);
    EXPECT_EQ(sf.computePipes, 1u);
    EXPECT_NEAR(sf.runtime, 1.024e-3 + 0.9e-3, 1e-12);

    RpuConfig split = unitConfig();
    split.splitComputePipes = true;
    SimStats ss = RpuEngine(split).run(g);
    EXPECT_EQ(ss.computePipes, 2u);
    // Shuffle pipe: [0,1.024ms); arith pipe: t1 arith then t2.
    EXPECT_NEAR(ss.runtime, 1.024e-3, 1e-12);
    EXPECT_LT(ss.runtime, sf.runtime);
}

TEST(EngineSplitPipes, DependentsWaitForBothHalves)
{
    // A dependent of a split task must wait for its slower half.
    RpuConfig split = unitConfig();
    split.splitComputePipes = true;
    Task t1;
    t1.kind = TaskKind::Compute;
    t1.stage = StageId::ModUpNtt;
    t1.modOps = 300; // 0.3 us on the arithmetic pipe
    t1.shuffleOps = 1024 * 100; // 102.4 us shuffle
    TaskGraph g;
    auto id1 = g.push(t1);
    g.push(comp(1000, {id1}));
    SimStats s = RpuEngine(split).run(g);
    EXPECT_NEAR(s.runtime, 102.4e-6 + 1e-6, 1e-12);
}

TEST(EngineMultiChannel, HksGraphChangesStatsAcrossChannelCounts)
{
    // On a real benchmark graph the channel layout must actually move
    // the numbers (the acceptance criterion for the sim core rewrite).
    const HksParams &b = benchmarkByName("ARK");
    HksExperiment exp(b, Dataflow::OC, MemoryConfig{32ull << 20, false});
    RpuConfig base;
    base.bandwidthGBps = 64.0;
    RpuConfig quad = base;
    quad.memChannels = 4;
    SimStats s1 = exp.simulate(base);
    SimStats s4 = exp.simulate(quad);
    EXPECT_NE(s1.runtime, s4.runtime);
    EXPECT_EQ(s1.trafficBytes, s4.trafficBytes);
}

TEST(EngineMultiChannel, LeastLoadedMatchesHandComputedAssignment)
{
    // Four independent loads of 300/100/100/100 bytes on two channels
    // (0.5 GB/s each). Least-loaded accumulates bytes: the 300-byte
    // stream gets ch0 (tie to the lowest index), every later load sees
    // ch1 lighter and lands there — 300 bytes per channel, 600 ns.
    // Interleave alternates by count instead: ch0 carries 400 bytes
    // and finishes at 800 ns.
    TaskGraph g;
    g.push(load(300));
    g.push(load(100));
    g.push(load(100));
    g.push(load(100));

    RpuConfig ll = unitConfig();
    ll.memChannels = 2;
    ll.channelPolicy = ChannelPolicy::LeastLoaded;
    SimStats s = RpuEngine(ll).run(g);
    EXPECT_NEAR(s.runtime, 600e-9, 1e-15);
    ASSERT_EQ(s.resources.size(), 3u);
    EXPECT_EQ(s.resources[0].jobs, 1u); // the 300-byte load
    EXPECT_EQ(s.resources[1].jobs, 3u); // the three 100-byte loads
    EXPECT_NEAR(s.resources[0].busySeconds, 600e-9, 1e-15);
    EXPECT_NEAR(s.resources[1].busySeconds, 600e-9, 1e-15);

    RpuConfig il = ll;
    il.channelPolicy = ChannelPolicy::Interleave;
    SimStats si = RpuEngine(il).run(g);
    EXPECT_NEAR(si.runtime, 800e-9, 1e-15);
    EXPECT_LT(s.runtime, si.runtime);

    // Compiled replay and the rebuild reference share the placer.
    SimStats sr = RpuEngine(ll).runRebuild(g);
    EXPECT_EQ(s.runtime, sr.runtime);
    EXPECT_EQ(s.memBusy, sr.memBusy);
}

TEST(EngineMultiChannel, LeastLoadedOnHksGraphStaysEquivalent)
{
    const HksParams &b = benchmarkByName("BTS1");
    HksExperiment exp(b, Dataflow::OC, MemoryConfig{32ull << 20, false});
    RpuConfig cfg;
    cfg.bandwidthGBps = 32.0;
    cfg.memChannels = 4;
    cfg.channelPolicy = ChannelPolicy::LeastLoaded;
    SimStats compiled = exp.simulate(cfg);
    SimStats rebuilt = RpuEngine(cfg).runRebuild(exp.graph());
    EXPECT_EQ(compiled.runtime, rebuilt.runtime);
    EXPECT_EQ(compiled.memBusy, rebuilt.memBusy);
    // HKS streams are uniformly tower-sized, so byte balancing picks
    // the round-robin order (the synthetic test above is where the
    // policies diverge); placement differences must not show up here.
    RpuConfig il = cfg;
    il.channelPolicy = ChannelPolicy::Interleave;
    EXPECT_EQ(exp.simulate(il).runtime, compiled.runtime);
}

// rates() checks the schedule's layout stamp, so an engine whose
// config lowers to another layout refuses to build rates for it —
// also at an equal resource count, where only the placement differs
// and a replay would otherwise run silently.
TEST(EngineDeathTest, RatesRejectScheduleOfAnotherLayout)
{
    TaskGraph g;
    g.push(load(100));
    g.push(comp(10, {0}));
    g.push(load(100, {1}));

    RpuConfig one; // 1 channel -> 2 resources
    RpuConfig four = one;
    four.memChannels = 4; // 5 resources
    const sim::CompiledSchedule cs = RpuEngine(one).compile(g);
    sim::ReplayRates rates;
    RpuEngine(one).rates(cs, rates); // its own layout builds
    EXPECT_DEATH(RpuEngine(four).rates(cs, rates),
                 "layout does not match config");

    RpuConfig il = one;
    il.memChannels = 2;
    RpuConfig ll = il;
    ll.channelPolicy = ChannelPolicy::LeastLoaded;
    const sim::CompiledSchedule cs2 = RpuEngine(il).compile(g);
    EXPECT_DEATH(RpuEngine(ll).rates(cs2, rates),
                 "layout does not match config");
}

TEST(EngineAsymmetricChannels, PerChannelRatesAreHonored)
{
    // Two independent loads, interleaved onto a 3 GB/s channel and a
    // 1 GB/s channel: 3000 B and 1000 B both take exactly 1 us.
    TaskGraph g;
    g.push(load(3000));
    g.push(load(1000));

    RpuConfig cfg = unitConfig();
    cfg.memChannels = 2;
    cfg.channelGBps = {3.0, 1.0};
    EXPECT_NEAR(cfg.bytesPerSec(), 4e9, 1e-3);
    EXPECT_NEAR(cfg.channelBytesPerSec(0), 3e9, 1e-3);
    EXPECT_NEAR(cfg.channelBytesPerSec(1), 1e9, 1e-3);

    SimStats s = RpuEngine(cfg).run(g);
    EXPECT_NEAR(s.runtime, 1e-6, 1e-15);
    ASSERT_EQ(s.resources.size(), 3u);
    EXPECT_NEAR(s.resources[0].busySeconds, 1e-6, 1e-15);
    EXPECT_NEAR(s.resources[1].busySeconds, 1e-6, 1e-15);

    // The same aggregate split evenly is slower: 3000 B at 2 GB/s.
    RpuConfig even = unitConfig();
    even.memChannels = 2;
    even.bandwidthGBps = 4.0;
    SimStats se = RpuEngine(even).run(g);
    EXPECT_NEAR(se.runtime, 1.5e-6, 1e-15);
}

TEST(EngineAsymmetricChannels, CompiledAndRebuildAgreeOnHksGraph)
{
    const HksParams &b = benchmarkByName("BTS1");
    HksExperiment exp(b, Dataflow::OC, MemoryConfig{32ull << 20, false});
    RpuConfig cfg;
    cfg.memChannels = 2;
    cfg.channelGBps = {48.0, 16.0}; // HBM-ish + CXL-ish mix
    SimStats compiled = exp.simulate(cfg);
    SimStats rebuilt = RpuEngine(cfg).runRebuild(exp.graph());
    EXPECT_EQ(compiled.runtime, rebuilt.runtime);
    EXPECT_EQ(compiled.memBusy, rebuilt.memBusy);
    EXPECT_EQ(compiled.compBusy, rebuilt.compBusy);

    // Asymmetry is a pure rate knob: the layout (and thus the cached
    // compiled schedule) is shared with the symmetric config.
    RpuConfig sym = cfg;
    sym.channelGBps.clear();
    sym.bandwidthGBps = 64.0;
    EXPECT_EQ(RpuLayout::of(sym), RpuLayout::of(cfg));
}

TEST(EngineIdle, IdleDropsWithBandwidth)
{
    const HksParams &b = benchmarkByName("ARK");
    HksExperiment exp(b, Dataflow::MP, MemoryConfig{32ull << 20, true});
    double idle_low = exp.simulate(8.0).computeIdleFraction();
    double idle_high = exp.simulate(512.0).computeIdleFraction();
    EXPECT_GT(idle_low, idle_high);
    EXPECT_GT(idle_low, 0.5);  // MP at DDR4 is badly memory bound
    EXPECT_LT(idle_high, 0.2); // near compute bound at HBM
}
