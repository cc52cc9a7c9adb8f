/**
 * @file
 * Integration tests on the experiment helpers: the paper's headline
 * claims (OC speedup band, bandwidth savings, evk-streaming SRAM trade)
 * must hold in the reproduced system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "rpu/area.h"
#include "rpu/experiment.h"

using namespace ciflow;

namespace
{

MemoryConfig
paperMem(bool evk_on_chip)
{
    return {32ull << 20, evk_on_chip};
}

/**
 * The bisection bandwidthToMatch ran before it resolved three steps
 * per batched replay block, copied verbatim: one scalar replay per
 * step. The batched walk must return the very same double.
 */
double
scalarBandwidthToMatch(const HksExperiment &exp, double target_runtime,
                       double lo_gbps, double hi_gbps, double modops_mult,
                       double tol)
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

/** `a` and `b` are the same compiled schedule, array by array. */
void
expectSameSchedule(const sim::CompiledSchedule &a,
                   const sim::CompiledSchedule &b)
{
    const sim::ScheduleView va = a.view();
    const sim::ScheduleView vb = b.view();
    ASSERT_EQ(va.taskCount, vb.taskCount);
    ASSERT_EQ(va.opCount, vb.opCount);
    ASSERT_EQ(a.depCount(), b.depCount());
    ASSERT_EQ(va.resourceCount, vb.resourceCount);
    const auto same = [](const auto *x, const auto *y, std::size_t n) {
        return std::equal(x, x + n, y);
    };
    EXPECT_TRUE(same(va.depOff, vb.depOff, va.taskCount + 1));
    EXPECT_TRUE(same(va.depIds, vb.depIds, a.depCount()));
    EXPECT_TRUE(same(va.opOff, vb.opOff, va.taskCount + 1));
    EXPECT_TRUE(same(va.opRes, vb.opRes, va.opCount));
    EXPECT_TRUE(same(va.opBytes, vb.opBytes, va.opCount));
    EXPECT_TRUE(same(va.opWork0, vb.opWork0, va.opCount));
    EXPECT_TRUE(same(va.opWork1, vb.opWork1, va.opCount));
    EXPECT_TRUE(same(va.opSec, vb.opSec, va.opCount));
    EXPECT_TRUE(same(va.opPost, vb.opPost, va.opCount));
    for (std::size_t r = 0; r < va.resourceCount; ++r)
        EXPECT_EQ(a.resourceName(static_cast<sim::ResourceId>(r)),
                  b.resourceName(static_cast<sim::ResourceId>(r)));
    EXPECT_EQ(a.layoutTag(), b.layoutTag());
    EXPECT_EQ(a.patchRevision(), b.patchRevision());
}

const std::vector<ChannelPolicy> kPolicies = {
    ChannelPolicy::Interleave, ChannelPolicy::EvkDedicated,
    ChannelPolicy::LeastLoaded};

} // namespace

// On one channel every policy places every memory op on channel 0, so
// RpuLayout pins the policy: the three policies name one layout and
// compile to identical arrays. From two channels on the policy keeps
// its own layout and the tag encoding is unchanged.
TEST(Layout, SingleChannelPinsThePolicy)
{
    const HksParams &b = benchmarkByName("BTS1");
    const TaskGraph g = buildHksGraph(b, Dataflow::OC, paperMem(false));
    for (bool split : {false, true}) {
        RpuConfig one;
        one.splitComputePipes = split;
        const sim::CompiledSchedule ref = RpuEngine(one).compile(g);
        for (ChannelPolicy pol : kPolicies) {
            RpuConfig cfg = one;
            cfg.channelPolicy = pol;
            EXPECT_EQ(RpuLayout::of(cfg), RpuLayout::of(one));
            EXPECT_EQ(RpuLayout::of(cfg).channelPolicy,
                      ChannelPolicy::Interleave);
            expectSameSchedule(RpuEngine(cfg).compile(g), ref);
        }
        for (std::size_t ch : {2, 4, 8})
            for (ChannelPolicy pol : kPolicies) {
                RpuConfig cfg = one;
                cfg.memChannels = ch;
                cfg.channelPolicy = pol;
                const RpuLayout l = RpuLayout::of(cfg);
                EXPECT_EQ(l.channelPolicy, pol);
                EXPECT_EQ(l.tag(),
                          (std::uint64_t{ch} << 40) |
                              (std::uint64_t{1024} << 8) |
                              (static_cast<std::uint64_t>(pol) << 1) |
                              (split ? 1u : 0u));
            }
    }
}

// The layout cache is the one source of single-chip schedules: for
// every layout the knobs can name, compiled(cfg) equals a fresh
// compile array by array, a repeat call returns the same object, and
// the one-channel policies share one entry.
TEST(Experiment, LayoutCacheMatchesFreshCompile)
{
    const HksParams &b = benchmarkByName("BTS1");
    const HksExperiment exp(b, Dataflow::OC, paperMem(false));
    EXPECT_EQ(&exp.compiled(RpuConfig{}), &exp.compiled());
    for (bool split : {false, true})
        for (std::size_t vlen : {512, 1024})
            for (std::size_t ch : {1, 2, 4, 8})
                for (ChannelPolicy pol : kPolicies) {
                    RpuConfig cfg;
                    cfg.splitComputePipes = split;
                    cfg.vectorLen = vlen;
                    cfg.memChannels = ch;
                    cfg.channelPolicy = pol;
                    SCOPED_TRACE("split " + std::to_string(split) +
                                 " vlen " + std::to_string(vlen) +
                                 " ch " + std::to_string(ch) + " pol " +
                                 std::to_string(static_cast<int>(pol)));
                    const sim::CompiledSchedule &cached =
                        exp.compiled(cfg);
                    expectSameSchedule(
                        cached, RpuEngine(cfg).compile(exp.graph()));
                    EXPECT_EQ(&exp.compiled(cfg), &cached);
                    RpuConfig il = cfg;
                    il.channelPolicy = ChannelPolicy::Interleave;
                    if (ch == 1) {
                        EXPECT_EQ(&exp.compiled(il), &cached);
                    } else if (pol != ChannelPolicy::Interleave) {
                        EXPECT_NE(&exp.compiled(il), &cached);
                    }
                }
}

TEST(Experiment, BaselineIsMpAt64)
{
    const HksParams &b = benchmarkByName("ARK");
    HksExperiment mp(b, Dataflow::MP, paperMem(true));
    EXPECT_DOUBLE_EQ(baselineRuntime(b), mp.simulate(64.0).runtime);
}

TEST(Experiment, OcBaseSavesBandwidthEverywhere)
{
    // Table IV: OCbase <= 32 GB/s on every benchmark (>= 2x saving).
    for (const auto &b : paperBenchmarks()) {
        double ocbase = ocBaseBandwidth(b);
        EXPECT_LE(ocbase, 32.0) << b.name;
        EXPECT_GE(64.0 / ocbase, 2.0) << b.name;
    }
}

TEST(Experiment, OcSpeedupBandAtOcBase)
{
    // Paper: OC is 1.30x..4.16x faster than MP at OCbase. Allow a wider
    // ceiling (our MP spills somewhat more) but demand the floor.
    double max_speedup = 0;
    for (const auto &b : paperBenchmarks()) {
        double ocbase = ocBaseBandwidth(b);
        HksExperiment mp(b, Dataflow::MP, paperMem(true));
        HksExperiment oc(b, Dataflow::OC, paperMem(true));
        double speedup = mp.simulate(ocbase).runtime /
                         oc.simulate(ocbase).runtime;
        EXPECT_GE(speedup, 1.2) << b.name;
        EXPECT_LE(speedup, 8.0) << b.name;
        max_speedup = std::max(max_speedup, speedup);
    }
    // "up to 4.16x" — the reproduced system peaks in the same regime.
    EXPECT_GE(max_speedup, 3.0);
}

TEST(Experiment, BandwidthToMatchBisection)
{
    const HksParams &b = benchmarkByName("ARK");
    HksExperiment oc(b, Dataflow::OC, paperMem(true));
    double target = baselineRuntime(b);
    double bw = bandwidthToMatch(oc, target);
    ASSERT_TRUE(std::isfinite(bw));
    // Matching runtime at the found bandwidth, slower just below it.
    EXPECT_LE(oc.simulate(bw).runtime, target * 1.002);
    EXPECT_GT(oc.simulate(bw * 0.8).runtime, target * 0.998);
}

TEST(Experiment, BandwidthToMatchInfeasible)
{
    const HksParams &b = benchmarkByName("BTS3");
    HksExperiment mp(b, Dataflow::MP, paperMem(true));
    // No bandwidth makes MP beat a target below its compute floor.
    double bw = bandwidthToMatch(mp, 1e-6);
    EXPECT_TRUE(std::isinf(bw));
}

TEST(Experiment, BandwidthToMatchEqualsScalarBisection)
{
    // Every paper benchmark x dataflow x evk residency at 32 MiB, at
    // the Table IV target and at a target met at 100 GB/s, over both
    // MODOPS multipliers, the brackets the paper studies use and the
    // default and exact tolerances.
    const std::pair<double, double> ranges[] = {
        {1.0, 2000.0}, {1.0, 4000.0}, {1.0, 8000.0}};
    std::size_t calls = 0, feasible = 0;
    for (const HksParams &b : paperBenchmarks()) {
        const double baseline = baselineRuntime(b);
        for (Dataflow d : allDataflows())
            for (bool onChip : {false, true}) {
                if (paperMem(onChip).dataCapacityBytes <
                    minDataCapacity(b, d))
                    continue;
                HksExperiment exp(b, d, paperMem(onChip));
                for (double mult : {1.0, 2.0}) {
                    const double at100 = exp.simulateRuntime(100.0, mult);
                    for (double target : {baseline, at100})
                        for (const auto &[lo, hi] : ranges)
                            for (double tol : {1e-3, 0.0}) {
                                const double want = scalarBandwidthToMatch(
                                    exp, target, lo, hi, mult, tol);
                                EXPECT_EQ(bandwidthToMatch(exp, target, lo,
                                                           hi, mult, tol),
                                          want)
                                    << b.name << " " << dataflowName(d)
                                    << (onChip ? " on-chip" : " streamed")
                                    << " x" << mult << " [" << lo << ", "
                                    << hi << "] tol " << tol;
                                ++calls;
                                feasible += std::isfinite(want);
                            }
                }
            }
    }
    // The matrix must mostly walk, not stop at the feasibility probe.
    EXPECT_GE(calls, 300u);
    EXPECT_GE(feasible, calls / 2);

    const HksParams &b = benchmarkByName("BTS3");
    HksExperiment oc(b, Dataflow::OC, paperMem(false));
    const double inf = std::numeric_limits<double>::infinity();
    // Infeasible: no bandwidth beats the compute floor.
    EXPECT_EQ(bandwidthToMatch(oc, 1e-6), inf);
    EXPECT_EQ(scalarBandwidthToMatch(oc, 1e-6, 1.0, 2000.0, 1.0, 1e-3), inf);
    // A target met only in the top half of [1, 64]: the hi probe, not
    // the first midpoint, decides feasibility.
    const double top = oc.simulateRuntime(60.0);
    ASSERT_GT(oc.simulateRuntime(32.5), top);
    EXPECT_EQ(bandwidthToMatch(oc, top, 1.0, 64.0, 1.0, 0.0),
              scalarBandwidthToMatch(oc, top, 1.0, 64.0, 1.0, 0.0));
    // Narrow brackets: the walk stops after 0 to 5 steps, so inside
    // the first block, at its end, or inside the second.
    for (double hi : {100.0, 100.00005, 100.0003, 100.0007, 100.0015,
                      100.003}) {
        const double target = oc.simulateRuntime(100.0 + 0.4 * (hi - 100.0));
        for (double tol : {1e-3, 0.0})
            EXPECT_EQ(bandwidthToMatch(oc, target, 100.0, hi, 1.0, tol),
                      scalarBandwidthToMatch(oc, target, 100.0, hi, 1.0,
                                             tol))
                << "hi " << hi << " tol " << tol;
    }
    // From lo = 0 with a target every bandwidth meets, the width never
    // drops below 1e-6 of hi: the walk runs into the 60-step cap.
    EXPECT_EQ(bandwidthToMatch(oc, 1e30, 0.0, 2000.0, 1.0, 0.0),
              scalarBandwidthToMatch(oc, 1e30, 0.0, 2000.0, 1.0, 0.0));
    EXPECT_EQ(bandwidthToMatch(oc, 1e30, 0.0, 2000.0, 1.0, 0.0),
              std::ldexp(2000.0, -60));
}

TEST(Experiment, BandwidthToMatchRejectsBracketOutsideZeroToInf)
{
    // The batched walk replays midpoints the one-step walk may never
    // visit; from a negative lo some of them are negative bandwidths.
    const HksParams &b = benchmarkByName("BTS1");
    HksExperiment oc(b, Dataflow::OC, paperMem(true));
    const double target = baselineRuntime(b);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double lo : {-1.0, nan})
        EXPECT_EXIT(bandwidthToMatch(oc, target, lo, 5.0),
                    ::testing::ExitedWithCode(1), "lo_gbps")
            << lo;
    // The first block also replays hi itself: zero, negative and NaN
    // are not rates, and +inf would report a met target infeasible.
    // A hi below lo is no bracket.
    for (double hi : {0.0, -5.0, nan, inf, 0.5})
        EXPECT_EXIT(bandwidthToMatch(oc, target, 1.0, hi),
                    ::testing::ExitedWithCode(1), "hi_gbps")
            << hi;
    EXPECT_EXIT(bandwidthToMatch(oc, target, 0.0, 0.0),
                ::testing::ExitedWithCode(1), "hi_gbps");
}

TEST(Experiment, StreamingEvkCostsBoundedBandwidth)
{
    // Figure 7: streaming evks needs 1.3x..2.9x more bandwidth to match
    // the evk-on-chip runtime at OCbase.
    for (const auto &b : paperBenchmarks()) {
        double ocbase = ocBaseBandwidth(b);
        HksExperiment on(b, Dataflow::OC, paperMem(true));
        HksExperiment off(b, Dataflow::OC, paperMem(false));
        double target = on.simulate(ocbase).runtime;
        double bw = bandwidthToMatch(off, target);
        ASSERT_TRUE(std::isfinite(bw)) << b.name;
        double factor = bw / ocbase;
        EXPECT_GE(factor, 1.05) << b.name;
        EXPECT_LE(factor, 4.0) << b.name;
    }
}

TEST(Experiment, StreamingSaves12x25Sram)
{
    // The SRAM trade of §VI-B: 392 MiB -> 32 MiB on-chip.
    EXPECT_NEAR(392.0 / 32.0, 12.25, 1e-12);
    EXPECT_NEAR(rpuAreaMm2(392) - rpuAreaMm2(32), 360.0, 1e-9);
}

TEST(Experiment, ArkSaturationPoint)
{
    // §VI-C: ARK's OC is fully masked by ~128 GB/s; beyond it, more
    // bandwidth gains (almost) nothing.
    const HksParams &b = benchmarkByName("ARK");
    HksExperiment oc(b, Dataflow::OC, paperMem(true));
    double rt_128 = oc.simulate(128.0).runtime;
    double rt_1000 = oc.simulate(1000.0).runtime;
    EXPECT_LT(rt_128 / rt_1000, 1.05);
}

TEST(Experiment, DoubleModopsBeatsSaturationWithLessBandwidth)
{
    // Figure 8: with 2x MODOPS, OC reaches the 1x saturation runtime at
    // a much lower bandwidth (paper: 12.8 GB/s, 10x saving).
    const HksParams &b = benchmarkByName("ARK");
    HksExperiment oc(b, Dataflow::OC, paperMem(true));
    double saturation = oc.simulate(128.0, 1.0).runtime;
    double bw2x = bandwidthToMatch(oc, saturation, 1.0, 2000.0, 2.0);
    ASSERT_TRUE(std::isfinite(bw2x));
    EXPECT_LE(bw2x, 32.0);
    EXPECT_GE(128.0 / bw2x, 4.0);
}

TEST(Experiment, SweepGridsAreSorted)
{
    auto sorted = [](const std::vector<double> &v) {
        for (std::size_t i = 1; i < v.size(); ++i)
            if (v[i] <= v[i - 1])
                return false;
        return true;
    };
    EXPECT_TRUE(sorted(paperBandwidthSweep()));
    EXPECT_TRUE(sorted(paperBandwidthSweepExtended()));
    EXPECT_EQ(paperBandwidthSweepExtended().back(), 1000.0);
}

TEST(Experiment, CrossoverBandwidthExists)
{
    // Figure 4 shape: at low BW OC wins big; at very high BW the three
    // dataflows converge (compute bound).
    const HksParams &b = benchmarkByName("BTS3");
    HksExperiment mp(b, Dataflow::MP, paperMem(true));
    HksExperiment oc(b, Dataflow::OC, paperMem(true));
    double gap_low =
        mp.simulate(8.0).runtime / oc.simulate(8.0).runtime;
    double gap_high =
        mp.simulate(1000.0).runtime / oc.simulate(1000.0).runtime;
    EXPECT_GT(gap_low, 2.0);
    EXPECT_LT(gap_high, 1.15);
}
