/**
 * @file
 * Tests for the fault-injection and graceful-degradation layer:
 * seeded trace sampling (byte-identical streams per seed), piecewise
 * rate epochs (hand-computed crossings, static-fold bit-identity,
 * zero-fault identity with plain replay), chip-failure failover
 * through the patch path, Monte Carlo determinism across runs and
 * thread counts, the replay watchdog death paths, and the structured
 * (non-aborting) error variants of graph validation and replay.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault_replay.h"
#include "legacy_fault_tables.h"
#include "fault/monte_carlo.h"
#include "obs/traced_replay.h"
#include "rpu/experiment.h"
#include "shard/placement_search.h"
#include "sim/compiled_schedule.h"
#include "tune/tuner.h"

using namespace ciflow;
using namespace ciflow::fault;
using shard::InterconnectConfig;
using shard::Partition;
using shard::PartitionStrategy;
using shard::ShardSpec;
using shard::Topology;

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** One HKS benchmark compiled for fault evaluation at K shards. */
struct Rig
{
    const HksParams &par;
    MemoryConfig mem{32ull << 20, false};
    TaskGraph g;
    RpuConfig chip;
    ShardSpec spec;
    std::vector<double> w;
    Partition part;
    InterconnectConfig net;

    explicit Rig(std::size_t k, Topology topo = Topology::PointToPoint)
        : par(benchmarkByName("BTS1"))
    {
        chip.bandwidthGBps = 16.0;
        chip.dataMemBytes = mem.dataCapacityBytes;
        chip.evkOnChip = mem.evkOnChip;
        g = buildHksGraph(par, Dataflow::OC, mem);
        spec = shard::placementShardSpec(
            par, k, PartitionStrategy::MinCutGreedy, 0.10);
        w = shard::taskWeights(g, chip);
        part = shard::partitionGraph(g, spec, w);
        net.topology = topo;
    }

    FaultSim sim() { return FaultSim(g, spec, w, part, chip, net); }
};

/** A one-resource, one-task schedule: `bytes` served at 1 B/s. */
sim::CompiledSchedule
oneOpSchedule(double bytes)
{
    sim::CompiledSchedule cs;
    const sim::ResourceId r = cs.addResource("a");
    sim::CompiledOp op;
    op.resource = r;
    op.bytes = bytes;
    cs.addTask({}, {op});
    return cs;
}

sim::ReplayRates
unitRates(std::size_t nres)
{
    sim::ReplayRates rates;
    rates.bytesPerSec.assign(nres, 1.0);
    return rates;
}

/** Epoch table for a 1-resource schedule from (at, mult) pairs. */
sim::RateEpochs
epochsAt(std::vector<double> at, std::vector<double> mult)
{
    sim::RateEpochs ep;
    ep.off = {0, static_cast<std::uint32_t>(at.size())};
    ep.at = std::move(at);
    ep.mult = std::move(mult);
    return ep;
}

FaultEvent
chipFail(double at, std::uint32_t shard)
{
    FaultEvent e;
    e.atSec = at;
    e.kind = FaultKind::ChipFail;
    e.shard = shard;
    return e;
}

FaultEvent
chanDegrade(double at, std::uint32_t shard, std::uint32_t chan,
            double factor)
{
    FaultEvent e;
    e.atSec = at;
    e.kind = FaultKind::ChannelDegrade;
    e.shard = shard;
    e.channel = chan;
    e.factor = factor;
    return e;
}

/** A model with every fault class active, scaled to makespan `h`. */
FaultModel
busyModel(double h)
{
    FaultModel m;
    m.chipFailMtbfSec = 4.0 * h;
    m.channelDegradeMtbfSec = 2.0 * h;
    m.linkDegradeMtbfSec = 3.0 * h;
    m.stallMtbfSec = 2.0 * h;
    m.stallDurSec = h / 10.0;
    m.horizonSec = h;
    return m;
}

TEST(FaultTrace, SameSeedSameBytes)
{
    const MachineShape shape{4, 2, 12};
    FaultModel model = busyModel(1e-3);
    const FaultTrace a = sampleTrace(model, shape, 42);
    const FaultTrace b = sampleTrace(model, shape, 42);
    EXPECT_EQ(a.serialize(), b.serialize());
    EXPECT_FALSE(a.empty());
    EXPECT_NE(a.serialize(), sampleTrace(model, shape, 43).serialize());
    // Sampled traces come back normalized and valid.
    for (std::size_t i = 1; i < a.events.size(); ++i)
        EXPECT_LE(a.events[i - 1].atSec, a.events[i].atSec);
    EXPECT_TRUE(checkTrace(a, shape).ok());
    // No event starts at or past the horizon.
    for (const FaultEvent &e : a.events)
        EXPECT_LT(e.atSec, model.horizonSec);
}

TEST(FaultTrace, DerivedScenarioStreamsAreReproducible)
{
    const MachineShape shape{2, 1, 2};
    const FaultModel model = busyModel(1e-3);
    std::string pass1, pass2;
    for (std::uint64_t i = 0; i < 16; ++i)
        pass1 += sampleTrace(model, shape, deriveSeed(7, i)).serialize();
    for (std::uint64_t i = 0; i < 16; ++i)
        pass2 += sampleTrace(model, shape, deriveSeed(7, i)).serialize();
    EXPECT_EQ(pass1, pass2);
    // Derived seeds are pairwise distinct over a modest range.
    for (std::uint64_t i = 0; i < 16; ++i)
        for (std::uint64_t j = i + 1; j < 16; ++j)
            EXPECT_NE(deriveSeed(7, i), deriveSeed(7, j));
}

TEST(FaultTrace, CheckTraceRejectsMalformedEvents)
{
    const MachineShape shape{2, 2, 1};
    FaultTrace t;

    t.events = {chipFail(0.0, 2)};
    sim::Error e = checkTrace(t, shape);
    EXPECT_EQ(e.code, sim::ErrorCode::BadFaultTrace);
    EXPECT_NE(e.context.find("shard 2 of 2"), std::string::npos);

    t.events = {chanDegrade(0.0, 0, 5, 0.5)};
    EXPECT_FALSE(checkTrace(t, shape).ok());

    t.events = {chanDegrade(-1.0, 0, 0, 0.5)};
    EXPECT_FALSE(checkTrace(t, shape).ok());

    t.events = {chanDegrade(0.0, 0, 0, 0.0)};
    EXPECT_FALSE(checkTrace(t, shape).ok());

    t.events = {chanDegrade(0.0, 0, 0,
                            std::numeric_limits<double>::quiet_NaN())};
    EXPECT_FALSE(checkTrace(t, shape).ok());

    FaultEvent stall;
    stall.kind = FaultKind::TransientStall;
    stall.factor = 0.5;
    stall.durSec = 0.0;
    t.events = {stall};
    EXPECT_FALSE(checkTrace(t, shape).ok());

    t.events = {chipFail(0.5, 1), chanDegrade(0.0, 1, 1, 0.5)};
    t.normalize();
    EXPECT_TRUE(checkTrace(t, shape).ok());
    EXPECT_EQ(t.events[0].kind, FaultKind::ChannelDegrade);
}

TEST(Piecewise, EmptyEpochsDelegateBitIdentically)
{
    sim::CompiledSchedule cs = oneOpSchedule(10.0);
    const sim::ReplayRates rates = unitRates(1);
    sim::ReplayScratch s1, s2;
    const double plain = cs.replay(rates, s1);
    EXPECT_EQ(cs.replayPiecewise(rates, {}, nullptr, s2), plain);
}

TEST(Piecewise, MidRunDegradeRetimesTheRemainingFraction)
{
    // 10 B at 1 B/s; the rate halves at t=5: 5 s finishes half the
    // service, the other half runs at 0.5 B/s for 10 more seconds.
    sim::CompiledSchedule cs = oneOpSchedule(10.0);
    sim::ReplayScratch s;
    const double m = cs.replayPiecewise(
        unitRates(1), epochsAt({5.0}, {0.5}), nullptr, s);
    EXPECT_DOUBLE_EQ(m, 15.0);
    EXPECT_DOUBLE_EQ(s.busy[0], 15.0);
}

TEST(Piecewise, StallWindowRecovers)
{
    // 10 B at 1 B/s, 10x slowdown on [2, 4): 2 B before, 0.2 B
    // inside the window, the remaining 7.8 B at full rate after.
    sim::CompiledSchedule cs = oneOpSchedule(10.0);
    sim::ReplayScratch s;
    const double m = cs.replayPiecewise(
        unitRates(1), epochsAt({2.0, 4.0}, {0.1, 1.0}), nullptr, s);
    EXPECT_DOUBLE_EQ(m, 11.8);
}

TEST(Piecewise, DegradeAtTimeZeroMatchesPreScaledRates)
{
    // An epoch active from t=0 is the same machine as a rate vector
    // pre-scaled by the multiplier — to the bit, because both sides
    // compute component / (rate * m).
    sim::CompiledSchedule cs;
    const sim::ResourceId a = cs.addResource("a");
    const sim::ResourceId b = cs.addResource("b");
    sim::CompiledOp op;
    op.resource = a;
    op.bytes = 7.0;
    cs.addTask({}, {op});
    op.resource = b;
    op.bytes = 3.0;
    cs.addTask({0}, {op});
    op.resource = a;
    op.bytes = 11.0;
    cs.addTask({1}, {op});

    sim::ReplayRates rates;
    rates.bytesPerSec = {2.0, 3.0};
    sim::RateEpochs ep;
    ep.off = {0, 1, 1}; // one epoch on "a", none on "b"
    ep.at = {0.0};
    ep.mult = {0.625};

    sim::ReplayRates scaled = rates;
    scaled.bytesPerSec[0] = rates.bytesPerSec[0] * 0.625;

    sim::ReplayScratch s1, s2;
    EXPECT_EQ(cs.replayPiecewise(rates, ep, nullptr, s1),
              cs.replay(scaled, s2));
    EXPECT_EQ(s1.finish[2], s2.finish[2]);
}

TEST(Piecewise, EpochPastTheMakespanChangesNothing)
{
    sim::CompiledSchedule cs = oneOpSchedule(10.0);
    sim::ReplayScratch s1, s2;
    const double plain = cs.replay(unitRates(1), s1);
    EXPECT_EQ(cs.replayPiecewise(unitRates(1),
                                 epochsAt({100.0}, {0.5}), nullptr, s2),
              plain);
}

TEST(Piecewise, DoneMaskSkipsServiceAndReleasesDependents)
{
    // Marking the producer done frees its dependent to start at 0 and
    // charges the producer's resource nothing.
    sim::CompiledSchedule cs;
    const sim::ResourceId a = cs.addResource("a");
    const sim::ResourceId b = cs.addResource("b");
    sim::CompiledOp op;
    op.resource = a;
    op.bytes = 10.0;
    cs.addTask({}, {op});
    op.resource = b;
    op.bytes = 4.0;
    cs.addTask({0}, {op});

    const std::vector<std::uint8_t> done = {1, 0};
    sim::ReplayScratch s;
    const double m =
        cs.replayPiecewise(unitRates(2), {}, done.data(), s);
    EXPECT_DOUBLE_EQ(m, 4.0);
    EXPECT_EQ(s.finish[0], 0.0);
    EXPECT_EQ(s.busy[a], 0.0);
    // An all-zero mask replays exactly the unfaulted schedule.
    const std::vector<std::uint8_t> none = {0, 0};
    sim::ReplayScratch s2, s3;
    EXPECT_EQ(cs.replayPiecewise(unitRates(2), {}, none.data(), s2),
              cs.replay(unitRates(2), s3));
}

TEST(Piecewise, MalformedEpochTableDies)
{
    sim::CompiledSchedule cs = oneOpSchedule(1.0);
    sim::ReplayScratch s;
    sim::RateEpochs bad = epochsAt({0.0}, {-0.5});
    EXPECT_DEATH(cs.replayPiecewise(unitRates(1), bad, nullptr, s),
                 "not finite and positive");
    EXPECT_FALSE(cs.checkEpochs(bad).ok());
    sim::RateEpochs wrong = epochsAt({0.0}, {0.5});
    wrong.off = {0, 1, 1}; // two resources, schedule has one
    EXPECT_EQ(cs.checkEpochs(wrong).code,
              sim::ErrorCode::BadFaultTrace);
}

TEST(Watchdog, NonFiniteNumeratorsDieAtCompileTime)
{
    sim::CompiledSchedule cs;
    const sim::ResourceId r = cs.addResource("a");
    sim::CompiledOp op;
    op.resource = r;
    op.bytes = -1.0;
    EXPECT_DEATH(cs.addTask({}, {op}),
                 "negative or non-finite cost numerator");
    op.bytes = 1.0;
    op.seconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(cs.addTask({}, {op}),
                 "negative or non-finite cost numerator");
}

TEST(Watchdog, DegenerateRatesDieAndTryReplayReports)
{
    sim::CompiledSchedule cs = oneOpSchedule(8.0);
    sim::ReplayScratch s;

    sim::ReplayRates nan = unitRates(1);
    nan.bytesPerSec[0] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(cs.replay(nan, s), "must be positive");
    double scratch_out = 0.0;
    sim::Error e = cs.tryReplay(nan, s, scratch_out);
    EXPECT_EQ(e.code, sim::ErrorCode::NonFiniteRate);
    EXPECT_NE(e.message().find("non-finite-rate"), std::string::npos);

    sim::ReplayRates zero = unitRates(1);
    zero.bytesPerSec[0] = 0.0;
    EXPECT_EQ(cs.checkReplay(zero).code,
              sim::ErrorCode::NonFiniteRate);

    // +inf stays legal: a free resource serves in zero time.
    sim::ReplayRates free = unitRates(1);
    free.bytesPerSec[0] = kInf;
    EXPECT_TRUE(cs.checkReplay(free).ok());
    EXPECT_EQ(cs.replay(free, s), 0.0);

    sim::ReplayRates narrow;
    narrow.bytesPerSec = {1.0, 1.0};
    double out = 0.0;
    EXPECT_EQ(cs.tryReplay(narrow, s, out).code,
              sim::ErrorCode::RateMismatch);
}

TEST(Watchdog, OverflowedDurationNamesTheOp)
{
    // Finite numerator over a denormal-positive rate overflows to an
    // infinite duration; the watchdog names the op instead of
    // returning +inf as a "makespan".
    sim::CompiledSchedule cs = oneOpSchedule(1e308);
    sim::ReplayScratch s;
    sim::ReplayRates tiny = unitRates(1);
    tiny.bytesPerSec[0] = 1e-308;
    EXPECT_DEATH(cs.replay(tiny, s), "op 0 of task 0");
    double out = 0.0;
    EXPECT_EQ(cs.tryReplay(tiny, s, out).code,
              sim::ErrorCode::NonFiniteDuration);
    sim::BatchScratch bs;
    EXPECT_DEATH(cs.replayMany(&tiny, 1, bs), "op 0 of task 0");
}

TEST(Watchdog, PiecewiseOverflowNamesTheOp)
{
    // Each input is legal on its own (a finite numerator, a positive
    // rate, a finite positive multiplier); only the epoch multiplier
    // overflows the duration. The watchdog's rescan must replay with
    // the same epochs to find the op, plain and traced alike.
    sim::CompiledSchedule cs = oneOpSchedule(1e300);
    sim::ReplayRates rates = unitRates(1);
    rates.bytesPerSec[0] = 1e10;
    const sim::RateEpochs ep = epochsAt({0.0}, {1e-300});
    ASSERT_TRUE(cs.checkEpochs(ep).ok());
    sim::ReplayScratch s;
    EXPECT_DEATH(cs.replayPiecewise(rates, ep, nullptr, s),
                 "op 0 of task 0");
    obs::TraceBuffer buf;
    EXPECT_DEATH(obs::replayPiecewiseTraced(cs, rates, ep, nullptr, s, buf),
                 "op 0 of task 0");
}

TEST(TaskGraphErrors, ValidateCheckedMatchesValidate)
{
    TaskGraph ok;
    Task t;
    t.kind = TaskKind::Compute;
    t.modOps = 1;
    ok.push(t);
    EXPECT_TRUE(ok.validateChecked().ok());

    TaskGraph fwd;
    t.deps = {5};
    fwd.push(t);
    const sim::Error e = fwd.validateChecked();
    EXPECT_EQ(e.code, sim::ErrorCode::InvalidGraph);
    EXPECT_NE(e.context.find("forward dependency"), std::string::npos);
    EXPECT_DEATH(fwd.validate(), "forward dependency");

    TaskGraph nowork;
    t.deps = {};
    t.modOps = 0;
    t.shuffleOps = 0;
    nowork.push(t);
    EXPECT_EQ(nowork.validateChecked().code,
              sim::ErrorCode::InvalidGraph);
}

TEST(FaultSimTest, ZeroFaultTraceIsBitIdenticalToHealthyReplay)
{
    Rig rig(4);
    FaultSim fs = rig.sim();
    const double h = fs.healthyMakespan();
    // The patch-compiled healthy replay equals a fresh compile.
    shard::ShardedEngine fresh(rig.chip, rig.net);
    EXPECT_EQ(h, fresh.replayRuntime(fresh.compile(rig.g, rig.part)));

    const DegradedOutcome out = fs.run(FaultTrace{});
    EXPECT_EQ(out.makespan, h);
    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.failovers, 0u);
    EXPECT_EQ(out.migratedBytes, 0u);
}

TEST(FaultSimTest, StaticDegradedBatchMatchesPiecewiseRuns)
{
    Rig rig(4);
    FaultSim fs = rig.sim();
    const MachineShape shape = fs.shape();
    ASSERT_GE(shape.links, 1u);

    std::vector<FaultTrace> traces(5);
    traces[0].events = {chanDegrade(0.0, 0, 0, 0.5)};
    traces[1].events = {chanDegrade(0.0, 1, 0, 0.25),
                        chanDegrade(0.0, 2, 0, 0.75)};
    // Compounding degrades of one channel.
    traces[2].events = {chanDegrade(0.0, 3, 0, 0.5),
                        chanDegrade(0.0, 3, 0, 0.5)};
    FaultEvent link;
    link.kind = FaultKind::LinkDegrade;
    link.channel = 0;
    link.factor = 0.125;
    traces[3].events = {link};
    traces[4].events = {}; // zero-fault lane
    for (FaultTrace &t : traces)
        t.normalize();

    std::vector<double> batch(traces.size());
    fs.staticDegradedMakespans(traces.data(), traces.size(),
                               batch.data());
    for (std::size_t i = 0; i < traces.size(); ++i)
        EXPECT_EQ(batch[i], fs.run(traces[i]).makespan) << "trace " << i;
    // Degrades never speed the run up.
    const double h = fs.healthyMakespan();
    EXPECT_EQ(batch[4], h);
    for (std::size_t i = 0; i + 1 < traces.size(); ++i)
        EXPECT_GE(batch[i], h);
    EXPECT_GT(batch[0], h);
}

TEST(FaultSimTest, ChipFailureFailsOverAndResumes)
{
    Rig rig(4);
    FaultSim fs = rig.sim();
    const double h = fs.healthyMakespan();

    FaultTrace t;
    t.events = {chipFail(h / 2.0, 1)};
    const DegradedOutcome out = fs.run(t);
    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.failovers, 1u);
    EXPECT_GT(out.makespan, h);
    EXPECT_GT(out.migratedBytes, 0u);
    EXPECT_GT(out.migrationSec, 0.0);

    // Bit-identical on re-evaluation: the binding resets between runs.
    fs.run(FaultTrace{}); // perturb with an unrelated scenario
    const DegradedOutcome again = fs.run(t);
    EXPECT_EQ(again.makespan, out.makespan);
    EXPECT_EQ(again.migratedBytes, out.migratedBytes);
    EXPECT_EQ(again.migrationSec, out.migrationSec);

    // A fresh FaultSim agrees bit for bit.
    FaultSim fs2 = rig.sim();
    EXPECT_EQ(fs2.run(t).makespan, out.makespan);
}

TEST(FaultSimTest, FailureAfterCompletionIsFree)
{
    Rig rig(2);
    FaultSim fs = rig.sim();
    const double h = fs.healthyMakespan();
    FaultTrace t;
    t.events = {chipFail(2.0 * h, 0)};
    const DegradedOutcome out = fs.run(t);
    EXPECT_EQ(out.makespan, h);
    EXPECT_EQ(out.failovers, 0u);
}

TEST(FaultSimTest, ImmediateFailureStillCompletes)
{
    Rig rig(2);
    FaultSim fs = rig.sim();
    FaultTrace t;
    t.events = {chipFail(0.0, 0)};
    const DegradedOutcome out = fs.run(t);
    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.failovers, 1u);
    EXPECT_TRUE(std::isfinite(out.makespan));
}

TEST(FaultSimTest, AllChipsDeadIsSurfacedNotHidden)
{
    Rig rig(2);
    FaultSim fs = rig.sim();
    FaultTrace t;
    t.events = {chipFail(0.0, 0), chipFail(0.0, 1)};
    t.normalize();
    const DegradedOutcome out = fs.run(t);
    EXPECT_FALSE(out.completed);
    EXPECT_EQ(out.makespan, kInf);
}

TEST(FaultSimTest, SequentialFailuresAccumulate)
{
    Rig rig(4);
    FaultSim fs = rig.sim();
    const double h = fs.healthyMakespan();
    FaultTrace two;
    two.events = {chipFail(h / 4.0, 0), chipFail(h / 2.0, 2)};
    two.normalize();
    const DegradedOutcome out = fs.run(two);
    EXPECT_TRUE(out.completed);
    EXPECT_EQ(out.failovers, 2u);

    FaultTrace one;
    one.events = {chipFail(h / 4.0, 0)};
    EXPECT_GE(out.makespan, fs.run(one).makespan);
}

TEST(MonteCarlo, ZeroFaultModelReportsHealthyNumbers)
{
    Rig rig(2);
    FaultSim fs = rig.sim();
    McSpec mc;
    mc.scenarios = 8;
    const McStats st = monteCarlo(fs, mc); // default model: no faults
    EXPECT_EQ(st.completedRuns, 8u);
    EXPECT_EQ(st.survivability, 1.0);
    // The mean accumulates 8 identical addends, so it can round in
    // the last bit; the order statistics are exact picks.
    EXPECT_DOUBLE_EQ(st.expectedMakespan, st.healthyMakespan);
    EXPECT_EQ(st.worstMakespan, st.healthyMakespan);
    EXPECT_EQ(st.p50Degradation, 1.0);
    EXPECT_EQ(st.p99Degradation, 1.0);
    EXPECT_EQ(st.totalFailovers, 0u);
}

TEST(MonteCarlo, DeterministicAcrossRunsAndThreadCounts)
{
    Rig rig(4);
    FaultSim fs = rig.sim();
    McSpec mc;
    mc.model = busyModel(fs.healthyMakespan());
    mc.scenarios = 24;
    mc.seed = 11;

    mc.threads = 1;
    const McStats serial = monteCarlo(fs, mc);
    const McStats serial2 = monteCarlo(fs, mc);
    mc.threads = 4;
    const McStats threaded = monteCarlo(fs, mc);

    for (const McStats &st : {serial2, threaded}) {
        EXPECT_EQ(st.completedRuns, serial.completedRuns);
        EXPECT_EQ(st.expectedMakespan, serial.expectedMakespan);
        EXPECT_EQ(st.worstMakespan, serial.worstMakespan);
        EXPECT_EQ(st.p50Degradation, serial.p50Degradation);
        EXPECT_EQ(st.p99Degradation, serial.p99Degradation);
        EXPECT_EQ(st.survivability, serial.survivability);
        EXPECT_EQ(st.totalFailovers, serial.totalFailovers);
        EXPECT_EQ(st.expectedMigratedBytes,
                  serial.expectedMigratedBytes);
    }
    // The model actually exercised the machine.
    EXPECT_GT(serial.totalFailovers, 0u);
    EXPECT_GE(serial.p99Degradation, serial.p50Degradation);
    EXPECT_GE(serial.p50Degradation, 1.0);
}

TEST(FaultObjectiveTuner, DeterministicAndPenalizesFaults)
{
    ExperimentRunner runner;
    const HksParams &par = benchmarkByName("BTS1");
    tune::TuneSpace sp;
    sp.dataflows = {Dataflow::OC};
    sp.capacities = {32ull << 20};
    sp.bandwidths = {16.0, 64.0};
    sp.shardCounts = {1, 2};

    tune::Tuner plain(runner, par, sp);
    EXPECT_EQ(plain.faultObjective(), nullptr);
    const tune::TuneResult base =
        plain.tune({.strategy = tune::Strategy::ExhaustiveGrid});

    // Degrade-only model (survivability 1): every fault-aware score is
    // an expected makespan over slowed-down replays, so it can only be
    // at or above the healthy runtime of the same point.
    tune::FaultObjective fo;
    fo.model.channelDegradeMtbfSec = base.best.m.runtime;
    fo.model.horizonSec = base.best.m.runtime;
    fo.scenarios = 8;
    tune::Tuner a(runner, par, sp, fo);
    tune::Tuner b(runner, par, sp, fo);
    ASSERT_NE(a.faultObjective(), nullptr);
    const tune::TuneResult ra =
        a.tune({.strategy = tune::Strategy::ExhaustiveGrid});
    const tune::TuneResult rb =
        b.tune({.strategy = tune::Strategy::ExhaustiveGrid});

    ASSERT_EQ(ra.evaluated.size(), base.evaluated.size());
    ASSERT_EQ(rb.evaluated.size(), ra.evaluated.size());
    for (std::size_t i = 0; i < ra.evaluated.size(); ++i) {
        EXPECT_EQ(ra.evaluated[i].idx, rb.evaluated[i].idx);
        EXPECT_EQ(ra.evaluated[i].m.runtime,
                  rb.evaluated[i].m.runtime);
        EXPECT_EQ(ra.evaluated[i].idx, base.evaluated[i].idx);
        EXPECT_GE(ra.evaluated[i].m.runtime,
                  base.evaluated[i].m.runtime * (1.0 - 1e-9));
    }

    // A repeated search is served entirely from the per-Tuner cache.
    const std::size_t evals = a.evaluations();
    a.tune({.strategy = tune::Strategy::ExhaustiveGrid});
    EXPECT_EQ(a.evaluations(), evals);
}

TEST(Failover, PlanMovesDeadShardWorkToSurvivors)
{
    Rig rig(4);
    const std::vector<char> alive = {1, 0, 1, 1};
    const std::vector<std::uint8_t> done(rig.g.size(), 0);
    FailoverPlan plan;
    const sim::Error e =
        planFailover(rig.g, rig.spec, rig.part, 1, alive, done.data(),
                     rig.w, plan);
    EXPECT_TRUE(e.ok());
    EXPECT_EQ(plan.part.shards, rig.part.shards);
    for (std::uint32_t t = 0; t < rig.g.size(); ++t) {
        EXPECT_NE(plan.part.shardOf[t], 1u);
        if (rig.part.shardOf[t] != 1) {
            EXPECT_EQ(plan.part.shardOf[t], rig.part.shardOf[t]);
        }
    }
    EXPECT_GT(plan.movedTasks, 0u);
    EXPECT_GT(plan.migrationBytes, 0u);

    // No survivors: a structured error, not a crash.
    const std::vector<char> dead = {0, 0, 0, 0};
    EXPECT_EQ(planFailover(rig.g, rig.spec, rig.part, 1, dead,
                           done.data(), rig.w, plan)
                  .code,
              sim::ErrorCode::NoSurvivors);
}

TEST(Failover, MigrationSecondsScalesWithPayloadAndTopology)
{
    InterconnectConfig net;
    net.linkGBps = 64.0;
    net.topology = Topology::PointToPoint;
    EXPECT_EQ(migrationSeconds(0, net, 3), 0.0);
    const double p2p = migrationSeconds(1ull << 30, net, 3);
    net.topology = Topology::SharedBus;
    const double bus = migrationSeconds(1ull << 30, net, 3);
    // Point-to-point re-replication fans out over survivor links; the
    // shared bus serializes it.
    EXPECT_LT(p2p, bus);
    EXPECT_GT(p2p, 0.0);
}

TEST(ChipSpans, ProbeMatchesTheBuiltTable)
{
    // Random chip traces and shifts, shifts often exactly on a span
    // edge: the timeline probe's entries at local time 0 are the built
    // table's (same resources, same folded bits), and every later
    // entry lies at or past the edge it returns.
    Rng rng(11);
    const double factors[] = {0.25, 0.5, 0.6, 1.0, 2.0};
    for (int iter = 0; iter < 3000; ++iter) {
        FaultTrace tr;
        const std::uint64_t nev = 1 + rng.uniform(6);
        for (std::uint64_t i = 0; i < nev; ++i) {
            FaultEvent e;
            const std::uint64_t kind = rng.uniform(3);
            e.kind = kind == 0   ? FaultKind::ChannelDegrade
                     : kind == 1 ? FaultKind::TransientStall
                                 : FaultKind::ChipFail;
            e.shard = static_cast<std::uint32_t>(rng.uniform(2));
            e.channel = static_cast<std::uint32_t>(rng.uniform(2));
            e.atSec = static_cast<double>(rng.uniform(1000)) / 97.0;
            e.factor = factors[rng.uniform(5)];
            e.durSec = e.kind == FaultKind::TransientStall
                           ? 0.01 + static_cast<double>(rng.uniform(300)) /
                                        101.0
                           : 0.0;
            tr.events.push_back(e);
        }
        tr.normalize();
        const FaultEvent &pick = tr.events[rng.uniform(tr.events.size())];
        const std::uint64_t mode = rng.uniform(3);
        const double shift =
            mode == 0   ? pick.atSec
            : mode == 1 ? pick.atSec + pick.durSec
                        : static_cast<double>(rng.uniform(1300)) / 89.0;
        const ChipTimelines tl(tr, 2, {3});
        for (std::uint32_t chip = 0; chip < 2; ++chip) {
            std::uint32_t state = 0;
            const double edge = tl.probe(chip, 3, shift, state);
            std::vector<EpochAtZero> at0 = tl.atZero(state);
            for (EpochAtZero &e : at0)
                e.resource += 5;
            const sim::RateEpochs ep = buildChipEpochs(tr, chip, 3, shift);
            std::vector<EpochAtZero> want;
            for (std::size_t r = 0; !ep.empty() && r < 3; ++r)
                for (std::uint32_t i = ep.off[r]; i < ep.off[r + 1]; ++i) {
                    if (ep.at[i] == 0.0)
                        want.push_back(
                            {static_cast<std::uint32_t>(5 + r), ep.mult[i]});
                    else
                        EXPECT_GE(ep.at[i], edge) << "iter " << iter;
                }
            EXPECT_EQ(at0, want) << "iter " << iter;
        }
    }
}

/**
 * A seeded trace over `chips` chips of 2 channels and 2 links: times
 * on a coarse grid so events often share a time, overlapping stalls,
 * permanent channel and link degrades, factor-1.0 spans and chip
 * failures.
 */
FaultTrace
randomSpanTrace(Rng &rng, std::uint32_t chips)
{
    const double factors[] = {0.25, 0.5, 0.6, 1.0, 2.0};
    FaultTrace tr;
    const std::uint64_t nev = 1 + rng.uniform(12);
    for (std::uint64_t i = 0; i < nev; ++i) {
        FaultEvent e;
        const std::uint64_t kind = rng.uniform(5);
        e.kind = kind == 0   ? FaultKind::ChannelDegrade
                 : kind <= 2 ? FaultKind::TransientStall
                 : kind == 3 ? FaultKind::LinkDegrade
                             : FaultKind::ChipFail;
        e.shard = static_cast<std::uint32_t>(rng.uniform(chips));
        e.channel = static_cast<std::uint32_t>(rng.uniform(2));
        e.atSec = static_cast<double>(rng.uniform(60)) / 7.0;
        e.factor = factors[rng.uniform(5)];
        e.durSec = e.kind == FaultKind::TransientStall
                       ? static_cast<double>(1 + rng.uniform(40)) / 7.0
                       : 0.0;
        tr.events.push_back(e);
    }
    tr.normalize();
    return tr;
}

/** Shifts at, just below and just above every edge of the trace (none
 * negative), plus 0 and one past every edge. */
std::vector<double>
edgeShifts(const FaultTrace &tr)
{
    std::vector<double> v{0.0, 100.0};
    for (const FaultEvent &e : tr.events)
        for (double x : {e.atSec, e.atSec + e.durSec})
            for (double y :
                 {x, std::nextafter(x, -kInf), std::nextafter(x, kInf)})
                if (y >= 0.0)
                    v.push_back(y);
    return v;
}

/** Two tables are the same arrays, bit for bit. */
void
expectSameTable(const sim::RateEpochs &got, const sim::RateEpochs &want,
                const std::string &ctx)
{
    const auto bits = [](const std::vector<double> &v) {
        std::vector<std::uint64_t> b;
        for (double x : v)
            b.push_back(std::bit_cast<std::uint64_t>(x));
        return b;
    };
    EXPECT_EQ(got.off, want.off) << ctx;
    EXPECT_EQ(bits(got.at), bits(want.at)) << ctx;
    EXPECT_EQ(bits(got.mult), bits(want.mult)) << ctx;
}

TEST(ChipTimelines, ProbeMatchesLegacySpanWalk)
{
    // The timeline's state at t and its next edge are what walking the
    // chip's spans gave, bit for bit, at every block width, and its
    // activity flag is the span walk's degraded test.
    Rng rng(22);
    const std::vector<std::size_t> widths{3, 5};
    for (int iter = 0; iter < 1500; ++iter) {
        const std::uint32_t chips = 1 + static_cast<std::uint32_t>(
                                            rng.uniform(4));
        const FaultTrace tr = randomSpanTrace(rng, chips);
        const ChipTimelines tl(tr, chips, widths);
        for (std::uint32_t c = 0; c < chips; ++c) {
            const std::vector<ChipSpan> spans = chipSpans(tr, c);
            for (double t : edgeShifts(tr)) {
                bool degraded = false;
                for (const ChipSpan &s : spans)
                    degraded = degraded || (s.atSec <= t && t < s.endSec);
                EXPECT_EQ(tl.degradedAt(c, t), degraded)
                    << "iter " << iter << " chip " << c << " t " << t;
                for (std::size_t w : widths) {
                    std::vector<EpochAtZero> want;
                    const double wantEdge =
                        legacy::probeChipSpans(spans, w, t, 4, want);
                    std::uint32_t state = 0;
                    const double edge = tl.probe(c, w, t, state);
                    std::vector<EpochAtZero> got = tl.atZero(state);
                    for (EpochAtZero &e : got)
                        e.resource += 4;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(edge),
                              std::bit_cast<std::uint64_t>(wantEdge))
                        << "iter " << iter << " chip " << c << " t " << t;
                    EXPECT_EQ(got, want)
                        << "iter " << iter << " chip " << c << " t " << t;
                    EXPECT_EQ(state == 0, want.empty());
                }
            }
        }
    }
}

TEST(ChipEpochs, StepTablesMatchLegacyRescan)
{
    // buildChipEpochs and buildEpochs, with and without a horizon, and
    // the timelines' slot tables equal the rescanning fold array for
    // array. A slot table is buildEpochs of the trace with each slot
    // chip's degrades and stalls moved to its slot, as gang pricing
    // built it.
    Rng rng(23);
    for (int iter = 0; iter < 800; ++iter) {
        const std::uint32_t chips = 1 + static_cast<std::uint32_t>(
                                            rng.uniform(4));
        const FaultTrace tr = randomSpanTrace(rng, chips);
        const ChipTimelines tl(tr, chips, {3});
        shard::ShardedCompiled sc;
        sc.shards = chips;
        sc.perChip = 3;
        sc.links = 2;
        // A random slot order over a random subset of the chips.
        std::vector<std::size_t> slots;
        for (std::size_t c = 0; c < chips; ++c)
            slots.insert(slots.begin() +
                             static_cast<std::ptrdiff_t>(
                                 rng.uniform(slots.size() + 1)),
                         c);
        slots.resize(1 + rng.uniform(chips));
        FaultTrace slotView;
        for (const FaultEvent &e : tr.events) {
            if (e.kind != FaultKind::ChannelDegrade &&
                e.kind != FaultKind::TransientStall)
                continue;
            for (std::size_t i = 0; i < slots.size(); ++i)
                if (slots[i] == e.shard) {
                    FaultEvent ev = e;
                    ev.shard = static_cast<std::uint32_t>(i);
                    slotView.events.push_back(ev);
                }
        }
        slotView.normalize();
        shard::ShardedCompiled gang;
        gang.shards = chips;
        gang.perChip = 3;
        // Plus shifts so far below 0 that many distinct edges round to
        // one local bound.
        std::vector<double> shifts = edgeShifts(tr);
        shifts.insert(shifts.end(), {-0x1p53, -0x1p57});
        for (double t : shifts)
            for (double h : {kInf, 0.0, 1.0, 2.5, 7.0}) {
                const std::string ctx = "iter " + std::to_string(iter) +
                                        " t " + std::to_string(t) +
                                        " h " + std::to_string(h);
                for (std::uint32_t c = 0; c < chips; ++c)
                    expectSameTable(buildChipEpochs(tr, c, 3, t, h),
                                    legacy::buildChipEpochs(tr, c, 3, t, h),
                                    ctx + " chip " + std::to_string(c));
                expectSameTable(buildEpochs(tr, sc, t, h),
                                legacy::buildEpochs(tr, sc, t, h), ctx);
                if (h == kInf)
                    expectSameTable(tl.epochs(slots.data(), slots.size(), 3,
                                              chips * 3, t),
                                    legacy::buildEpochs(slotView, gang, t),
                                    ctx + " slots");
            }
    }
}

TEST(ChipEpochs, CollidingLocalBoundsFoldLikeTheRescan)
{
    // Two distinct absolute edges can round to one local bound: with u
    // one ulp of 1.0 and a shift of u/2, 1 + 2u and 1 + 3u both land on
    // 1 + 2u - ties go to even. The step tables must merge them exactly
    // as the rescan does, whichever span the bound starts or ends.
    const double u = 0x1.0p-52;
    for (double scale : {1.0, 8.0, 1024.0}) {
        const double a = scale * (1.0 + 2.0 * u);
        const double b = scale * (1.0 + 3.0 * u);
        const double shift = scale * 0x1.0p-53;
        ASSERT_NE(a, b);
        ASSERT_EQ(a - shift, b - shift);
        FaultTrace tr;
        // A stall ending at b overlaps a degrade starting at a, and a
        // second stall starts at b on the same chip.
        tr.events.push_back({a - scale * 0.5, FaultKind::TransientStall, 0,
                             0, 0.5, b - (a - scale * 0.5)});
        tr.events.push_back({a, FaultKind::ChannelDegrade, 0, 1, 0.25, 0.0});
        tr.events.push_back({b, FaultKind::TransientStall, 0, 0, 0.6, scale});
        tr.events.push_back({b, FaultKind::ChannelDegrade, 0, 0, 1.0, 0.0});
        // On chip 1, a stall on [a, b) alone: at that bound it starts
        // and ends, so the table has no entry for it.
        tr.events.push_back({a, FaultKind::TransientStall, 1, 0, 0.5, b - a});
        tr.normalize();
        const ChipTimelines tl(tr, 2, {3});
        for (std::size_t slot : {0u, 1u})
            for (double t : {shift, 0.0, a, b})
                for (double h : {kInf, b - shift}) {
                    const std::uint32_t c = static_cast<std::uint32_t>(slot);
                    const std::string ctx = "scale " +
                                            std::to_string(scale) +
                                            " chip " + std::to_string(c);
                    expectSameTable(buildChipEpochs(tr, c, 3, t, h),
                                    legacy::buildChipEpochs(tr, c, 3, t, h),
                                    ctx);
                    if (h == kInf)
                        expectSameTable(tl.epochs(&slot, 1, 3, 3, t),
                                        legacy::buildChipEpochs(tr, c, 3, t),
                                        ctx + " slots");
                }
        EXPECT_TRUE(buildChipEpochs(tr, 1, 3, shift).empty());
    }
}

TEST(ChipSpans, KeepTraceOrderAndSkipOtherEvents)
{
    FaultTrace tr;
    tr.events.push_back({3.0, FaultKind::TransientStall, 1, 0, 0.5, 2.0});
    tr.events.push_back({1.0, FaultKind::ChannelDegrade, 1, 2, 0.25, 0.0});
    tr.events.push_back({2.0, FaultKind::ChipFail, 1, 0, 1.0, 0.0});
    tr.events.push_back({0.5, FaultKind::ChannelDegrade, 0, 0, 0.5, 0.0});
    tr.normalize();
    const std::vector<ChipSpan> s = chipSpans(tr, 1);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].atSec, 1.0);
    EXPECT_EQ(s[0].endSec, kInf);
    EXPECT_EQ(s[0].resource, 2u);
    EXPECT_EQ(s[0].factor, 0.25);
    EXPECT_EQ(s[1].atSec, 3.0);
    EXPECT_EQ(s[1].endSec, 5.0);
    EXPECT_EQ(s[1].resource, kWholeChip);
    EXPECT_TRUE(chipSpans(tr, 2).empty());
}

} // namespace
