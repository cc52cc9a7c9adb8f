/**
 * @file
 * Tests for the observability layer: bit-identity of the traced
 * replays against the plain paths on randomized DAGs (zero-fault and
 * piecewise, done masks included), of both against the pre-kernel
 * replay loops (tests/legacy_replay.h), hand-computed utilization and
 * bottleneck attribution, exact critical-path extraction (length ==
 * makespan bit-for-bit on chains, diamonds and random DAGs), the
 * metrics registry, and the Chrome trace exporter.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_replay.h"
#include "legacy_replay.h"
#include "obs/analysis.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/traced_replay.h"
#include "rpu/experiment.h"
#include "shard/placement_search.h"

using namespace ciflow;

namespace
{

/**
 * Resource name "r<r>", built by appending: GCC 12 flags
 * `resName(r)` with a -Wrestrict false positive.
 */
std::string
resName(std::size_t r)
{
    std::string s = "r";
    s += std::to_string(r);
    return s;
}

/**
 * Random compiled DAG over `nr` resources: tasks with 1-3 ops mixing
 * bytes, both work classes, fixed seconds and post latency, and 0-3
 * backward dependencies — the same shape family the compiled-schedule
 * bit-identity tests replay.
 */
sim::CompiledSchedule
randomSchedule(std::mt19937 &rng, std::size_t nt, std::size_t nr)
{
    sim::CompiledSchedule cs;
    for (std::size_t r = 0; r < nr; ++r)
        cs.addResource(resName(r));
    std::uniform_int_distribution<std::size_t> op_count(1, 3);
    std::uniform_int_distribution<std::size_t> res(0, nr - 1);
    std::uniform_real_distribution<double> amount(0.0, 2.0);
    std::uniform_int_distribution<int> coin(0, 1);
    for (std::size_t t = 0; t < nt; ++t) {
        std::vector<sim::CompiledOp> ops(op_count(rng));
        for (sim::CompiledOp &op : ops) {
            op.resource = static_cast<sim::ResourceId>(res(rng));
            if (coin(rng))
                op.bytes = amount(rng);
            if (coin(rng))
                op.work[0] = amount(rng);
            if (coin(rng))
                op.work[1] = amount(rng);
            op.seconds = coin(rng) ? amount(rng) * 0.1 : 0.0;
            op.postSeconds = coin(rng) ? amount(rng) * 0.05 : 0.0;
        }
        std::vector<sim::TaskId> deps;
        if (t > 0) {
            std::uniform_int_distribution<std::size_t> dep_count(0, 3);
            std::uniform_int_distribution<sim::TaskId> dep(
                0, static_cast<sim::TaskId>(t - 1));
            for (std::size_t i = dep_count(rng); i > 0; --i)
                deps.push_back(dep(rng));
        }
        cs.addTask(deps, ops);
    }
    return cs;
}

sim::ReplayRates
randomRates(std::mt19937 &rng, std::size_t nr)
{
    std::uniform_real_distribution<double> rate(0.5, 4.0);
    sim::ReplayRates rates;
    rates.bytesPerSec.resize(nr);
    for (double &r : rates.bytesPerSec)
        r = rate(rng);
    for (std::size_t k = 0; k < sim::kWorkClasses; ++k)
        rates.workPerSec[k] = rate(rng);
    return rates;
}

/** Random epoch table: ~half the resources get 1-3 rate changes. */
sim::RateEpochs
randomEpochs(std::mt19937 &rng, std::size_t nr, double horizon)
{
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<std::size_t> n_ep(1, 3);
    std::uniform_real_distribution<double> at(0.0, horizon);
    std::uniform_real_distribution<double> mult(0.25, 2.0);
    sim::RateEpochs ep;
    ep.off.assign(nr + 1, 0);
    for (std::size_t r = 0; r < nr; ++r) {
        ep.off[r] = static_cast<std::uint32_t>(ep.at.size());
        if (coin(rng) == 0)
            continue;
        std::vector<double> ts;
        for (std::size_t i = n_ep(rng); i > 0; --i)
            ts.push_back(at(rng));
        std::sort(ts.begin(), ts.end());
        for (double t : ts) {
            ep.at.push_back(t);
            ep.mult.push_back(mult(rng));
        }
    }
    ep.off[nr] = static_cast<std::uint32_t>(ep.at.size());
    if (ep.mult.empty()) {
        ep.off.clear();
        ep.at.clear();
    }
    return ep;
}

void
expectSameReplayState(const sim::ReplayScratch &a,
                      const sim::ReplayScratch &b)
{
    EXPECT_EQ(a.finish, b.finish);
    EXPECT_EQ(a.freeAt, b.freeAt);
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.jobs, b.jobs);
}

/** Trace records carry the oracle's per-op times bit for bit. */
void
expectSameOpTimes(const obs::TraceBuffer &buf,
                  const std::vector<legacy::OpTimes> &ref)
{
    ASSERT_EQ(buf.ops.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(buf.ops[k].start, ref[k].start) << "record " << k;
        EXPECT_EQ(buf.ops[k].finish, ref[k].finish) << "record " << k;
        EXPECT_EQ(buf.ops[k].visible, ref[k].visible) << "record " << k;
    }
}

/**
 * A two-resource pipeline with hand-computable times at unit rates:
 *   t0: 4 bytes on dram               -> [0, 4)
 *   t1: 2 bytes on dram               -> [4, 6)   (queued behind t0)
 *   t2 (dep t0): 3 work on pipe, +1s post -> [4, 7), visible 8
 *   t3 (dep t1, t2): 2 bytes on dram  -> [8, 10)  (ready at 8)
 */
sim::CompiledSchedule
handSchedule()
{
    sim::CompiledSchedule cs;
    const sim::ResourceId dram = cs.addResource("dram");
    const sim::ResourceId pipe = cs.addResource("pipe");
    sim::CompiledOp a;
    a.resource = dram;
    a.bytes = 4.0;
    const sim::TaskId t0 = cs.addTask({}, {a});
    sim::CompiledOp b;
    b.resource = dram;
    b.bytes = 2.0;
    const sim::TaskId t1 = cs.addTask({}, {b});
    sim::CompiledOp c;
    c.resource = pipe;
    c.work[0] = 3.0;
    c.postSeconds = 1.0;
    const sim::TaskId t2 = cs.addTask({t0}, {c});
    sim::CompiledOp d;
    d.resource = dram;
    d.bytes = 2.0;
    cs.addTask({t1, t2}, {d});
    return cs;
}

sim::ReplayRates
unitRates(std::size_t nr)
{
    sim::ReplayRates rates;
    rates.bytesPerSec.assign(nr, 1.0);
    rates.workPerSec[0] = 1.0;
    rates.workPerSec[1] = 1.0;
    return rates;
}

} // namespace

// --- traced replay bit-identity --------------------------------------

TEST(TracedReplay, BitIdenticalToPlainOnRandomDags)
{
    std::mt19937 rng(41);
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t nr = 2 + trial % 5;
        const sim::CompiledSchedule cs =
            randomSchedule(rng, 20 + trial * 7, nr);
        const sim::ReplayRates rates = randomRates(rng, nr);
        sim::ReplayScratch plain, traced;
        obs::TraceBuffer buf;
        const double mp = cs.replay(rates, plain);
        const double mt = obs::replayTraced(cs, rates, traced, buf);
        EXPECT_EQ(mp, mt);
        EXPECT_EQ(buf.makespan, mp);
        expectSameReplayState(plain, traced);
        EXPECT_EQ(buf.ops.size(), cs.opCount());
    }
}

TEST(TracedReplay, PiecewiseBitIdenticalWithEpochsAndDoneMasks)
{
    std::mt19937 rng(42);
    std::uniform_int_distribution<int> coin(0, 1);
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t nr = 2 + trial % 4;
        const std::size_t nt = 15 + trial * 5;
        const sim::CompiledSchedule cs = randomSchedule(rng, nt, nr);
        const sim::ReplayRates rates = randomRates(rng, nr);
        sim::ReplayScratch base;
        const double horizon = cs.replay(rates, base);
        const sim::RateEpochs ep =
            randomEpochs(rng, nr, horizon * 1.2);
        std::vector<std::uint8_t> done(nt, 0);
        const std::uint8_t *mask = nullptr;
        if (coin(rng)) {
            for (std::uint8_t &d : done)
                d = static_cast<std::uint8_t>(coin(rng));
            mask = done.data();
        }
        sim::ReplayScratch plain, traced;
        obs::TraceBuffer buf;
        const double mp = cs.replayPiecewise(rates, ep, mask, plain);
        const double mt = obs::replayPiecewiseTraced(cs, rates, ep,
                                                     mask, traced, buf);
        EXPECT_EQ(mp, mt);
        EXPECT_EQ(buf.makespan, mp);
        expectSameReplayState(plain, traced);
        // Done tasks record nothing; everything else records all ops.
        std::size_t expected = 0;
        const sim::ScheduleView v = cs.view();
        for (std::size_t t = 0; t < nt; ++t)
            if (mask == nullptr || mask[t] == 0)
                expected += v.opOff[t + 1] - v.opOff[t];
        EXPECT_EQ(buf.ops.size(), expected);
    }
}

TEST(TracedReplay, RecordsFollowTheRecurrenceInvariants)
{
    std::mt19937 rng(7);
    const sim::CompiledSchedule cs = randomSchedule(rng, 60, 4);
    const sim::ReplayRates rates = randomRates(rng, 4);
    sim::ReplayScratch scratch;
    obs::TraceBuffer buf;
    obs::replayTraced(cs, rates, scratch, buf);
    std::vector<double> lastFinish(4, 0.0);
    sim::TaskId prevTask = 0;
    for (const obs::TraceOp &op : buf.ops) {
        EXPECT_GE(op.start, op.ready);
        EXPECT_GE(op.finish, op.start);
        EXPECT_GE(op.visible, op.finish);
        EXPECT_LE(op.visible, buf.makespan);
        // Issue order is task-major; per resource, service windows
        // never overlap (the start is at least the previous finish).
        EXPECT_GE(op.task, prevTask);
        prevTask = op.task;
        EXPECT_GE(op.start, lastFinish[op.resource]);
        lastFinish[op.resource] = op.finish;
        EXPECT_EQ(op.epoch, 0u);
    }
}

// --- the pre-kernel recurrence as oracle ----------------------------

TEST(TracedReplay, ScalarReplaysMatchTheLegacyLoopsBitForBit)
{
    std::mt19937 rng(43);
    std::uniform_int_distribution<int> coin(0, 1);
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t nr = 2 + trial % 5;
        const std::size_t nt = 15 + trial * 6;
        const sim::CompiledSchedule cs = randomSchedule(rng, nt, nr);
        const sim::ScheduleView v = cs.view();
        const sim::ReplayRates rates = randomRates(rng, nr);

        sim::ReplayScratch ref, plain, traced;
        std::vector<legacy::OpTimes> refOps;
        obs::TraceBuffer buf;
        const double m = legacy::replayCore(v, rates, ref, &refOps);
        EXPECT_EQ(cs.replay(rates, plain), m);
        EXPECT_EQ(obs::replayTraced(cs, rates, traced, buf), m);
        expectSameReplayState(ref, plain);
        expectSameReplayState(ref, traced);
        expectSameOpTimes(buf, refOps);

        // Piecewise: epochs alone, epochs under a done mask, and a
        // done mask over an empty epoch table.
        const sim::RateEpochs ep = randomEpochs(rng, nr, m * 1.2);
        const sim::RateEpochs noEpochs;
        std::vector<std::uint8_t> done(nt);
        for (std::uint8_t &d : done)
            d = static_cast<std::uint8_t>(coin(rng));
        const std::pair<const sim::RateEpochs *, const std::uint8_t *>
            cases[] = {{&ep, nullptr},
                       {&ep, done.data()},
                       {&noEpochs, done.data()}};
        for (const auto &[epochs, mask] : cases) {
            sim::ReplayScratch pref, pplain, ptraced;
            std::vector<legacy::OpTimes> prefOps;
            obs::TraceBuffer pbuf;
            const double pm = legacy::replayPiecewise(v, rates, *epochs,
                                                      mask, pref, &prefOps);
            EXPECT_EQ(cs.replayPiecewise(rates, *epochs, mask, pplain),
                      pm);
            EXPECT_EQ(obs::replayPiecewiseTraced(cs, rates, *epochs,
                                                 mask, ptraced, pbuf),
                      pm);
            expectSameReplayState(pref, pplain);
            expectSameReplayState(pref, ptraced);
            expectSameOpTimes(pbuf, prefOps);
        }
    }
}

// --- analyses --------------------------------------------------------

TEST(Analysis, UtilizationMatchesHandComputedSchedule)
{
    const sim::CompiledSchedule cs = handSchedule();
    sim::ReplayScratch scratch;
    obs::TraceBuffer buf;
    const double mk =
        obs::replayTraced(cs, unitRates(2), scratch, buf);
    EXPECT_EQ(mk, 10.0);

    const auto util = obs::resourceUtilization(buf, 2);
    ASSERT_EQ(util.size(), 2u);
    // dram: t0 [0,4) + t1 [4,6) + t3 [8,10) -> 8 busy seconds; t1
    // waited 4s in queue, t3 started the instant it was ready.
    EXPECT_EQ(util[0].busySeconds, 8.0);
    EXPECT_EQ(util[0].queueWaitSeconds, 4.0);
    EXPECT_EQ(util[0].jobs, 3u);
    EXPECT_EQ(util[0].busyFraction, 0.8);
    // pipe: t2 [4,7) only.
    EXPECT_EQ(util[1].busySeconds, 3.0);
    EXPECT_EQ(util[1].queueWaitSeconds, 0.0);
    EXPECT_EQ(util[1].jobs, 1u);
    EXPECT_EQ(util[1].busyFraction, 0.3);
}

TEST(Analysis, TopBottlenecksOrderedByServiceTime)
{
    const sim::CompiledSchedule cs = handSchedule();
    sim::ReplayScratch scratch;
    obs::TraceBuffer buf;
    obs::replayTraced(cs, unitRates(2), scratch, buf);

    const auto top = obs::topBottlenecks(buf, 3);
    ASSERT_EQ(top.size(), 3u);
    // t0 (4s) > t2 (3s) > t1 == t3 (2s; tie broken by id -> t1).
    EXPECT_EQ(top[0].task, 0u);
    EXPECT_EQ(top[0].serviceSeconds, 4.0);
    EXPECT_EQ(top[1].task, 2u);
    EXPECT_EQ(top[1].serviceSeconds, 3.0);
    EXPECT_EQ(top[2].task, 1u);
    EXPECT_EQ(top[2].queueWaitSeconds, 4.0);
    // Asking for more than there are tasks returns them all.
    EXPECT_EQ(obs::topBottlenecks(buf, 99).size(), 4u);
}

TEST(Analysis, CriticalPathEqualsMakespanOnChain)
{
    // A pure chain: every hop is a dependency edge, slack all zero.
    sim::CompiledSchedule cs;
    const sim::ResourceId r = cs.addResource("r");
    sim::TaskId prev = 0;
    for (int t = 0; t < 8; ++t) {
        sim::CompiledOp op;
        op.resource = r;
        op.bytes = 1.0 + t;
        prev = t == 0 ? cs.addTask({}, {op})
                      : cs.addTask({prev}, {op});
    }
    sim::ReplayScratch scratch;
    obs::TraceBuffer buf;
    const double mk = obs::replayTraced(cs, unitRates(1), scratch, buf);

    const obs::CriticalPath cp = obs::criticalPath(cs, buf);
    EXPECT_EQ(cp.length, mk);
    EXPECT_EQ(cp.length, buf.makespan);
    ASSERT_EQ(cp.steps.size(), 8u);
    EXPECT_EQ(cp.steps.front().start, 0.0);
    for (std::size_t i = 0; i + 1 < cp.steps.size(); ++i)
        EXPECT_EQ(cp.steps[i].task + 1, cp.steps[i + 1].task);
    for (double s : cp.taskSlack)
        EXPECT_EQ(s, 0.0);
    EXPECT_EQ(cp.resourceSlack[0], 0.0);
}

TEST(Analysis, CriticalPathFollowsTheLongDiamondBranch)
{
    // Diamond on separate resources so there is no queueing: the join
    // is tight against the slow branch; the fast branch has slack.
    sim::CompiledSchedule cs;
    const sim::ResourceId a = cs.addResource("a");
    const sim::ResourceId b = cs.addResource("b");
    sim::CompiledOp src;
    src.resource = a;
    src.seconds = 1.0;
    const sim::TaskId t0 = cs.addTask({}, {src});
    sim::CompiledOp slow;
    slow.resource = a;
    slow.seconds = 5.0;
    const sim::TaskId ts = cs.addTask({t0}, {slow});
    sim::CompiledOp fast;
    fast.resource = b;
    fast.seconds = 2.0;
    const sim::TaskId tf = cs.addTask({t0}, {fast});
    sim::CompiledOp join;
    join.resource = b;
    join.seconds = 1.0;
    cs.addTask({ts, tf}, {join});

    sim::ReplayScratch scratch;
    obs::TraceBuffer buf;
    const double mk = obs::replayTraced(cs, unitRates(2), scratch, buf);
    EXPECT_EQ(mk, 7.0); // 1 + 5 + 1

    const obs::CriticalPath cp = obs::criticalPath(cs, buf);
    EXPECT_EQ(cp.length, mk);
    ASSERT_EQ(cp.steps.size(), 3u);
    EXPECT_EQ(cp.steps[0].task, t0);
    EXPECT_EQ(cp.steps[1].task, ts);
    EXPECT_EQ(cp.steps[2].task, 3u);
    // The fast branch could slip 3s before gating the join.
    EXPECT_EQ(cp.taskSlack[tf], 3.0);
    EXPECT_EQ(cp.taskSlack[ts], 0.0);
    EXPECT_EQ(cp.resourceSlack[a], 0.0);
}

TEST(Analysis, CriticalPathEqualsMakespanOnRandomDags)
{
    std::mt19937 rng(43);
    for (int trial = 0; trial < 16; ++trial) {
        const std::size_t nr = 2 + trial % 4;
        const sim::CompiledSchedule cs =
            randomSchedule(rng, 25 + trial * 9, nr);
        const sim::ReplayRates rates = randomRates(rng, nr);
        sim::ReplayScratch scratch;
        obs::TraceBuffer buf;
        obs::replayTraced(cs, rates, scratch, buf);
        const obs::CriticalPath cp = obs::criticalPath(cs, buf);
        EXPECT_EQ(cp.length, buf.makespan) << "trial " << trial;
        EXPECT_EQ(cp.steps.front().start, 0.0);
    }
}

TEST(Analysis, CriticalPathExactOnPiecewiseTraces)
{
    std::mt19937 rng(44);
    for (int trial = 0; trial < 12; ++trial) {
        const std::size_t nr = 2 + trial % 3;
        const sim::CompiledSchedule cs =
            randomSchedule(rng, 30 + trial * 8, nr);
        const sim::ReplayRates rates = randomRates(rng, nr);
        sim::ReplayScratch scratch;
        const double horizon = cs.replay(rates, scratch);
        const sim::RateEpochs ep =
            randomEpochs(rng, nr, horizon * 1.2);
        obs::TraceBuffer buf;
        obs::replayPiecewiseTraced(cs, rates, ep, nullptr, scratch,
                                   buf);
        const obs::CriticalPath cp = obs::criticalPath(cs, buf);
        EXPECT_EQ(cp.length, buf.makespan) << "trial " << trial;
    }
}

// --- metrics registry ------------------------------------------------

TEST(Metrics, CountersAccumulateAndGaugesOverwrite)
{
    obs::MetricsRegistry m;
    m.count("runner.cache_hits", 3);
    m.count("runner.cache_hits", 4);
    m.gauge("tuner.occupancy", 0.5);
    m.gauge("tuner.occupancy", 0.75);
    m.count("faults.failovers", 0);

    const std::vector<obs::Metric> snap = m.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "runner.cache_hits");
    EXPECT_TRUE(snap[0].isCounter);
    EXPECT_EQ(snap[0].count, 7u);
    EXPECT_FALSE(snap[1].isCounter);
    EXPECT_EQ(snap[1].value, 0.75);
    EXPECT_EQ(snap[2].count, 0u);

    std::ostringstream os;
    m.writeJson(os);
    EXPECT_EQ(os.str(), "{\"runner.cache_hits\": 7, "
                        "\"tuner.occupancy\": 0.75, "
                        "\"faults.failovers\": 0}");
}

TEST(Metrics, MixingCounterAndGaugeUnderOneNamePanics)
{
    obs::MetricsRegistry m;
    m.count("x", 1);
    EXPECT_DEATH(m.gauge("x", 1.0), "counter");
    obs::MetricsRegistry g;
    g.gauge("y", 1.0);
    EXPECT_DEATH(g.count("y", 1), "gauge");
}

// --- Chrome trace exporter -------------------------------------------

TEST(ChromeTrace, SingleReplayExportsOneTrackPerResource)
{
    const sim::CompiledSchedule cs = handSchedule();
    sim::ReplayScratch scratch;
    obs::TraceBuffer buf;
    obs::replayTraced(cs, unitRates(2), scratch, buf);

    std::ostringstream os;
    obs::writeChromeTrace(os,
                          obs::singleReplayTrace(cs, std::move(buf)));
    const std::string out = os.str();
    EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("\"dram\""), std::string::npos);
    EXPECT_NE(out.find("\"pipe\""), std::string::npos);
    // One complete event per op: 4 "X" events with task names.
    std::size_t events = 0;
    for (std::size_t p = out.find("\"ph\":\"X\"");
         p != std::string::npos;
         p = out.find("\"ph\":\"X\"", p + 1))
        ++events;
    EXPECT_EQ(events, 4u);
}

TEST(ChromeTrace, MarksAndCutsRenderScenarioEvents)
{
    const sim::CompiledSchedule cs = handSchedule();
    sim::ReplayScratch scratch;
    obs::TraceBuffer buf;
    obs::replayTraced(cs, unitRates(2), scratch, buf);

    obs::ScenarioTrace t = obs::singleReplayTrace(cs, std::move(buf));
    // Cut the segment at 5s: the t3 record (start 8) must vanish.
    t.segments[0].cutSec = 5.0;
    t.marks.push_back({"chip 0 failed", 5.0, 0.0});
    t.marks.push_back({"migrate 64 B", 5.0, 1.5});

    std::ostringstream os;
    obs::writeChromeTrace(os, t);
    const std::string out = os.str();
    EXPECT_NE(out.find("chip 0 failed"), std::string::npos);
    EXPECT_NE(out.find("migrate 64 B"), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);
    // 3 op events survive the cut, plus the migration span.
    std::size_t events = 0;
    for (std::size_t p = out.find("\"ph\":\"X\"");
         p != std::string::npos;
         p = out.find("\"ph\":\"X\"", p + 1))
        ++events;
    EXPECT_EQ(events, 4u);
}

// --- fault-scenario observation --------------------------------------

TEST(FaultViz, ObservationDoesNotPerturbTheOutcome)
{
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    RpuConfig chip;
    chip.bandwidthGBps = 16.0;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;
    const TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);
    const shard::ShardSpec spec = shard::placementShardSpec(
        par, 2, shard::PartitionStrategy::MinCutGreedy, 0.10);
    const std::vector<double> w = shard::taskWeights(g, chip);
    const shard::Partition part = shard::partitionGraph(g, spec, w);
    const shard::InterconnectConfig net;
    fault::FaultSim fs(g, spec, w, part, chip, net);

    fault::FaultTrace trace;
    fault::FaultEvent fail;
    fail.kind = fault::FaultKind::ChipFail;
    fail.shard = 0;
    fail.atSec = fs.healthyMakespan() * 0.4;
    trace.events.push_back(fail);
    fault::FaultEvent degrade;
    degrade.kind = fault::FaultKind::ChannelDegrade;
    degrade.shard = 1;
    degrade.channel = 0;
    degrade.factor = 0.5;
    degrade.atSec = fs.healthyMakespan() * 0.1;
    trace.events.push_back(degrade);
    trace.normalize();

    const fault::DegradedOutcome plain = fs.run(trace);
    obs::ScenarioTrace viz;
    const fault::DegradedOutcome observed = fs.run(trace, &viz);
    EXPECT_EQ(observed.makespan, plain.makespan);
    EXPECT_EQ(observed.completed, plain.completed);
    EXPECT_EQ(observed.failovers, plain.failovers);
    EXPECT_EQ(observed.migratedBytes, plain.migratedBytes);
    EXPECT_EQ(observed.migrationSec, plain.migrationSec);

    // One segment per replay (before and after the failure), the
    // first cut at the failure time, and marks for the chip death
    // and the migration pause.
    ASSERT_EQ(viz.segments.size(), 2u);
    EXPECT_LT(viz.segments[0].cutSec,
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(viz.segments[1].baseSec,
              fail.atSec + plain.migrationSec);
    ASSERT_EQ(viz.resourceNames.size(),
              fs.compiled().schedule.resourceCount());
    ASSERT_GE(viz.marks.size(), 1u);
    EXPECT_NE(viz.marks[0].label.find("failed"), std::string::npos);

    // Registry export reflects the scenarios run above.
    obs::MetricsRegistry m;
    fs.exportMetrics(m);
    const std::vector<obs::Metric> snap = m.snapshot();
    ASSERT_GE(snap.size(), 4u);
    EXPECT_EQ(snap[0].name, "faults.scenarios_run");
    EXPECT_EQ(snap[0].count, 2u);
    EXPECT_EQ(snap[2].name, "faults.failovers");
    EXPECT_EQ(snap[2].count, 2u * plain.failovers);
}

TEST(FaultViz, ZeroFaultScenarioTraceMatchesPlainReplayTrace)
{
    const HksParams &par = benchmarkByName("BTS1");
    const MemoryConfig mem{32ull << 20, false};
    RpuConfig chip;
    chip.bandwidthGBps = 16.0;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;
    const TaskGraph g = buildHksGraph(par, Dataflow::OC, mem);
    const shard::ShardSpec spec = shard::placementShardSpec(
        par, 2, shard::PartitionStrategy::MinCutGreedy, 0.10);
    const std::vector<double> w = shard::taskWeights(g, chip);
    const shard::Partition part = shard::partitionGraph(g, spec, w);
    const shard::InterconnectConfig net;
    fault::FaultSim fs(g, spec, w, part, chip, net);

    obs::ScenarioTrace viz;
    const fault::DegradedOutcome o = fs.run(fault::FaultTrace{}, &viz);
    ASSERT_EQ(viz.segments.size(), 1u);
    EXPECT_EQ(viz.segments[0].buf.makespan, o.makespan);
    EXPECT_EQ(viz.segments[0].buf.ops.size(),
              fs.compiled().schedule.opCount());
    // The derived analyses run directly on the scenario's segment.
    const obs::CriticalPath cp =
        obs::criticalPath(fs.compiled().schedule, viz.segments[0].buf);
    EXPECT_EQ(cp.length, o.makespan);
}
