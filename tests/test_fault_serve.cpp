/**
 * @file
 * Tests for fault-aware serving: zero-fault bit-identity against the
 * healthy serving loop (single-chip, gang and heterogeneous fleets),
 * exact retry/backoff/deadline accounting on a hand-built two-job
 * chip-failure scenario, degraded-op pricing against a from-scratch
 * piecewise-replay reference, fault-aware admission, gang failover
 * against the planFailover/recompilePartition reference, fleet-death
 * rejection (nothing silently lost), bit-identical seeded runs across
 * repeats and estimator thread counts, open-horizon events being
 * cleanly ignored, stream/policy/trace validation through the
 * non-panicking entry points, tenant/fault seed-stream disjointness,
 * chip-local epoch tables, and the Chrome-trace cut clamp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "fault/failover.h"
#include "fault/fault_replay.h"
#include "fault/fault_trace.h"
#include "obs/chrome_trace.h"
#include "rpu/experiment.h"
#include "rpu/workload.h"
#include "serve/arrivals.h"
#include "serve/fault_serving.h"
#include "serve/serving.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"

using namespace ciflow;
using namespace ciflow::serve;

namespace
{

const double kInf = std::numeric_limits<double>::infinity();

/**
 * One-class serving spec whose jobs are a single rotation op
 * (reduction over 2 slots), so a job's service time IS the one per-op
 * scalar and `start + classServiceSec` is exact to the bit — the
 * property the hand-built accounting tests lean on.
 */
ServeSpec
oneOpSpec(std::size_t chips)
{
    const HksParams &par = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"rot1", HeWorkload::reduction(2), par, Dataflow::OC, 1});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = chips;
    sp.fleet.keyCacheBytes = par.evkBytes() * 8;
    sp.batch.targetBatch = 1;
    return sp;
}

/** n same-class arrivals at t = 0, one tenant each. */
std::vector<JobArrival>
atZero(std::size_t n, std::uint32_t klass = 0)
{
    std::vector<JobArrival> arr;
    for (std::size_t i = 0; i < n; ++i)
        arr.push_back({0.0, klass, static_cast<std::uint32_t>(i)});
    normalizeArrivals(arr);
    return arr;
}

/** Field-by-field JobResult equality including the fault fields. */
bool
sameFaultResults(const std::vector<JobResult> &a,
                 const std::vector<JobResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const JobResult &x = a[i], &y = b[i];
        if (x.arriveSec != y.arriveSec || x.startSec != y.startSec ||
            x.finishSec != y.finishSec || x.klass != y.klass ||
            x.tenant != y.tenant || x.chip != y.chip ||
            x.batch != y.batch || x.warmStart != y.warmStart ||
            x.retries != y.retries || x.rejected != y.rejected ||
            x.degraded != y.degraded)
            return false;
    }
    return true;
}

bool
sameServeStats(const ServeStats &a, const ServeStats &b)
{
    return a.jobs == b.jobs && a.batches == b.batches &&
           a.batchedJobs == b.batchedJobs && a.warmJobs == b.warmJobs &&
           a.keyCacheHitOps == b.keyCacheHitOps &&
           a.totalOps == b.totalOps &&
           a.maxQueueDepth == b.maxQueueDepth &&
           a.makespanSec == b.makespanSec && a.qps == b.qps &&
           a.meanLatencySec == b.meanLatencySec &&
           a.p50LatencySec == b.p50LatencySec &&
           a.p99LatencySec == b.p99LatencySec &&
           a.p999LatencySec == b.p999LatencySec &&
           a.maxLatencySec == b.maxLatencySec;
}

/** Hex-float one-line-per-job form: equal runs give equal bytes. */
std::string
serializeFault(const std::vector<JobResult> &v)
{
    std::string s;
    char line[256];
    for (const JobResult &r : v) {
        std::snprintf(line, sizeof line, "%a %a %a %u %u %u %u %d %u %d %d\n",
                      r.arriveSec, r.startSec, r.finishSec, r.klass,
                      r.tenant, r.chip, r.batch,
                      static_cast<int>(r.warmStart), r.retries,
                      static_cast<int>(r.rejected),
                      static_cast<int>(r.degraded));
        s += line;
    }
    return s;
}

/** FNV-1a 64 over the bytes of `s`. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Every JobResult field plus every FaultServeStats field, doubles as
 * hex floats: equal runs give equal bytes. */
std::string
serializeRun(const std::vector<JobResult> &v, const FaultServeStats &st)
{
    std::string s = serializeFault(v);
    char line[512];
    const ServeStats &d = st.done;
    std::snprintf(line, sizeof line,
                  "%zu %zu %zu %zu %zu %zu %zu %a %a %a %a %a %a %a\n",
                  d.jobs, d.batches, d.batchedJobs, d.warmJobs,
                  d.keyCacheHitOps, d.totalOps, d.maxQueueDepth,
                  d.makespanSec, d.qps, d.meanLatencySec, d.p50LatencySec,
                  d.p99LatencySec, d.p999LatencySec, d.maxLatencySec);
    s += line;
    std::snprintf(line, sizeof line,
                  "%zu %zu %zu %zu %zu %zu %zu %zu %llu %a %zu %zu %a %a "
                  "%a %a %a %a\n",
                  st.completedJobs, st.rejectedJobs, st.timedOutJobs,
                  st.lostJobs, st.retries, st.salvagedJobs,
                  st.chipFailures, st.failovers,
                  static_cast<unsigned long long>(st.migratedBytes),
                  st.migrationSec, st.healthyJobs, st.degradedJobs,
                  st.healthyP50Sec, st.healthyP99Sec, st.degradedP50Sec,
                  st.degradedP99Sec, st.degradedOverHealthyP99,
                  st.recoverySec);
    s += line;
    return s;
}

/** Counter `name` of `fs`'s exported metrics (0 when absent). */
std::uint64_t
counterOf(const FaultServingSim &fs, const std::string &name)
{
    obs::MetricsRegistry reg;
    fs.exportMetrics(reg);
    for (const obs::Metric &m : reg.snapshot())
        if (m.name == "serve_fault." + name)
            return m.count;
    return 0;
}

/** Earliest epoch boundary of a table (+inf when empty). */
double
firstBoundaryOf(const sim::RateEpochs &ep)
{
    double first = kInf;
    for (double a : ep.at)
        first = std::min(first, a);
    return first;
}

/** Is chip `c` degraded or stalled at time t under `tr`? */
bool
chipDegradedAt(const fault::FaultTrace &tr, std::uint32_t c, double t)
{
    for (const fault::FaultEvent &e : tr.events) {
        if (e.shard != c)
            continue;
        if (e.kind == fault::FaultKind::ChannelDegrade && e.atSec <= t)
            return true;
        if (e.kind == fault::FaultKind::TransientStall && e.atSec <= t &&
            t < e.atSec + e.durSec)
            return true;
    }
    return false;
}

/**
 * Test-side pricing reference for runs whose classes are single-chip
 * and one op long: re-prices every completed job from its recorded
 * start, chip and warmness with a fresh epoch table
 * (fault::buildChipEpochs) and, when the table's first boundary falls
 * before the clean finish, a piecewise replay of it — every op, no
 * shortcut. Expects each finish and degraded flag to match `out` to
 * the bit and returns the number of degraded ops.
 */
std::size_t
expectFreshTablePricing(const ServingSim &sim, ExperimentRunner &runner,
                        const fault::FaultTrace &trace,
                        const std::vector<JobResult> &out)
{
    const ServeSpec &sp = sim.spec();
    fault::FaultTrace tr = trace;
    tr.normalize();
    struct Op
    {
        sim::CompiledSchedule cs;
        sim::ReplayRates rates;
        double clean = 0.0;
    };
    sim::ReplayScratch scratch;
    std::vector<Op> ops(sp.classes.size() * 2);
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        EXPECT_EQ(sp.classes[k].workload.ops.size(), 1u);
        for (int v = 0; v < 2; ++v) {
            const MemoryConfig mem{sp.fleet.chip.dataMemBytes, v == 1};
            const auto exp = runner.experiment(sp.classes[k].params,
                                               sp.classes[k].dataflow, mem);
            Op &op = ops[k * 2 + static_cast<std::size_t>(v)];
            op.cs = RpuEngine(sp.fleet.chip).compile(exp->graph());
            RpuEngine(sp.fleet.chip).rates(op.cs, op.rates);
            op.clean = op.cs.replay(op.rates, scratch);
            // A one-op job runs its key cold (miss) or warm (hit): the
            // clean op is the whole job's service.
            EXPECT_EQ(op.clean, sim.classServiceSec(k, v == 1));
        }
    }
    std::size_t degradedOps = 0;
    for (std::size_t j = 0; j < out.size(); ++j) {
        const JobResult &r = out[j];
        if (r.rejected)
            continue;
        const Op &op = ops[r.klass * 2 + (r.warmStart ? 1 : 0)];
        const sim::RateEpochs ep = fault::buildChipEpochs(
            tr, r.chip, op.cs.resourceCount(), r.startSec);
        const bool degraded = firstBoundaryOf(ep) < op.clean;
        const double dur =
            degraded ? op.cs.replayPiecewise(op.rates, ep, nullptr, scratch)
                     : op.clean;
        EXPECT_EQ(r.finishSec, r.startSec + dur) << "job " << j;
        EXPECT_EQ(r.degraded, degraded || r.retries > 0) << "job " << j;
        degradedOps += degraded ? 1 : 0;
    }
    return degradedOps;
}

TEST(FaultServe, PolicyAndStreamValidation)
{
    EXPECT_TRUE(checkRetryPolicy(RetryPolicy{}).ok());
    RetryPolicy p;
    p.maxRetries = 0; // no retries is a valid (reject-on-fail) policy
    EXPECT_TRUE(checkRetryPolicy(p).ok());

    p = RetryPolicy{};
    p.backoffSec = -1.0;
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);
    p.backoffSec = kInf;
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);
    p.backoffSec = std::nan("");
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);

    p = RetryPolicy{};
    p.deadlineSec = 0.0;
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);
    p.deadlineSec = std::nan("");
    EXPECT_EQ(checkRetryPolicy(p).code, sim::ErrorCode::BadServeSpec);

    // checkStreams = checkArrivals plus deadline validation.
    std::vector<JobArrival> ok{{0.1, 0, 0}, {0.2, 1, 0, 5.0}};
    EXPECT_TRUE(checkStreams(ok, 2).ok());
    std::vector<JobArrival> unsorted{{0.2, 0, 0}, {0.1, 0, 0}};
    EXPECT_EQ(checkStreams(unsorted, 2).code,
              sim::ErrorCode::BadServeSpec);
    std::vector<JobArrival> badClass{{0.1, 7, 0}};
    EXPECT_EQ(checkStreams(badClass, 2).code,
              sim::ErrorCode::BadServeSpec);
    std::vector<JobArrival> zeroDeadline{{0.1, 0, 0, 0.0}};
    EXPECT_EQ(checkStreams(zeroDeadline, 2).code,
              sim::ErrorCode::BadServeSpec);
    std::vector<JobArrival> nanDeadline{{0.1, 0, 0, std::nan("")}};
    EXPECT_EQ(checkStreams(nanDeadline, 2).code,
              sim::ErrorCode::BadServeSpec);
    // checkArrivals stays deadline-blind (the healthy path ignores
    // them), so old streams keep validating unchanged.
    EXPECT_TRUE(checkArrivals(zeroDeadline, 2).ok());
}

TEST(FaultServe, MalformedTraceIsSurfacedNotSimulated)
{
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    FaultServingSim fs(sim);
    EXPECT_EQ(fs.shape().shards, 1u);
    EXPECT_EQ(fs.shape().links, 0u);

    const std::vector<JobArrival> arr = atZero(1);
    std::vector<JobResult> out;
    FaultServeStats st;
    const RetryPolicy pol;

    fault::FaultTrace link;
    link.events.push_back(
        {0.1, fault::FaultKind::LinkDegrade, 0, 0, 0.5, 0.0});
    EXPECT_EQ(fs.run(arr, link, pol, out, st).code,
              sim::ErrorCode::BadFaultTrace);

    fault::FaultTrace badShard;
    badShard.events.push_back(
        {0.1, fault::FaultKind::ChipFail, 5, 0, 1.0, 0.0});
    EXPECT_EQ(fs.run(arr, badShard, pol, out, st).code,
              sim::ErrorCode::BadFaultTrace);

    fault::FaultTrace badChannel;
    badChannel.events.push_back(
        {0.1, fault::FaultKind::ChannelDegrade, 0, 1000, 0.5, 0.0});
    EXPECT_EQ(fs.run(arr, badChannel, pol, out, st).code,
              sim::ErrorCode::BadFaultTrace);

    // A stall whose end time overflows is malformed...
    fault::FaultTrace overflow;
    overflow.events.push_back(
        {1e308, fault::FaultKind::TransientStall, 0, 0, 0.5, 1e308});
    EXPECT_EQ(fs.run(arr, overflow, pol, out, st).code,
              sim::ErrorCode::BadFaultTrace);
    EXPECT_EQ(fault::checkTrace(overflow, {1, 1, 0}).code,
              sim::ErrorCode::BadFaultTrace);

    // ...but finite events far beyond any departure are valid:
    // validation is horizon-independent by design.
    fault::FaultTrace far;
    far.events.push_back(
        {1e9, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    EXPECT_TRUE(fault::checkTrace(far, {1, 1, 0}).ok());
}

TEST(FaultServe, ZeroFaultRunIsBitIdenticalToHealthyServing)
{
    // Two single-chip classes plus a gang class on a 3-chip fleet:
    // the empty-trace run must reproduce ServingSim::run to the bit,
    // batching and all.
    const HksParams &ark = benchmarkByName("ARK");
    const HksParams &bts = benchmarkByName("BTS1");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce8", HeWorkload::reduction(8), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec4", HeWorkload::matVec(4), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"gang2", HeWorkload::reduction(2), bts, Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 3;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 8;
    sp.batch.targetBatch = 4;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);

    std::vector<JobArrival> arr;
    for (std::size_t i = 0; i < 12; ++i)
        arr.push_back({0.0, static_cast<std::uint32_t>(i % 3),
                       static_cast<std::uint32_t>(i)});
    normalizeArrivals(arr);

    std::vector<JobResult> healthy, faulty;
    ServeStats hst;
    FaultServeStats fst;
    ASSERT_TRUE(sim.run(arr, healthy, hst).ok());
    FaultServingSim fs(sim);
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, faulty, fst)
            .ok());

    EXPECT_TRUE(sameFaultResults(healthy, faulty));
    EXPECT_TRUE(sameServeStats(hst, fst.done));
    EXPECT_EQ(fst.completedJobs, arr.size());
    EXPECT_EQ(fst.rejectedJobs, 0u);
    EXPECT_EQ(fst.lostJobs, 0u);
    EXPECT_EQ(fst.retries, 0u);
    EXPECT_EQ(fst.chipFailures, 0u);
    EXPECT_EQ(fst.failovers, 0u);
    EXPECT_EQ(fst.degradedJobs, 0u);
    EXPECT_EQ(fst.healthyJobs, arr.size());
    EXPECT_EQ(fst.healthyP99Sec, hst.p99LatencySec);
    EXPECT_EQ(fst.degradedOverHealthyP99, 0.0);
    for (const JobResult &r : faulty) {
        EXPECT_EQ(r.retries, 0u);
        EXPECT_FALSE(r.rejected);
        EXPECT_FALSE(r.degraded);
    }

    // With viz attached, both runs keep their results and emit the
    // same Chrome trace: track names, one clean segment per
    // single-chip op, and the batch and arrival marks.
    obs::ScenarioTrace hviz, fviz;
    std::vector<JobResult> hv, fv;
    ServeStats hvst;
    FaultServeStats fvst;
    ASSERT_TRUE(sim.run(arr, hv, hvst, &hviz).ok());
    ASSERT_TRUE(fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, fv, fvst,
                       &fviz)
                    .ok());
    EXPECT_TRUE(sameFaultResults(healthy, hv));
    EXPECT_TRUE(sameFaultResults(healthy, fv));
    EXPECT_TRUE(sameServeStats(hst, hvst));
    EXPECT_TRUE(sameServeStats(hst, fvst.done));
    EXPECT_FALSE(hviz.resourceNames.empty());
    EXPECT_EQ(hviz.resourceNames, fviz.resourceNames);
    ASSERT_FALSE(hviz.segments.empty());
    ASSERT_EQ(hviz.segments.size(), fviz.segments.size());
    for (std::size_t i = 0; i < hviz.segments.size(); ++i) {
        const obs::TraceSegment &a = hviz.segments[i];
        const obs::TraceSegment &b = fviz.segments[i];
        EXPECT_EQ(a.baseSec, b.baseSec) << "segment " << i;
        EXPECT_EQ(a.resourceBase, b.resourceBase) << "segment " << i;
        EXPECT_TRUE(a.epochs.empty()) << "segment " << i;
        EXPECT_TRUE(b.epochs.empty()) << "segment " << i;
        EXPECT_EQ(a.buf.makespan, b.buf.makespan) << "segment " << i;
    }
    ASSERT_FALSE(hviz.marks.empty());
    ASSERT_EQ(hviz.marks.size(), fviz.marks.size());
    for (std::size_t i = 0; i < hviz.marks.size(); ++i) {
        EXPECT_EQ(hviz.marks[i].label, fviz.marks[i].label) << "mark " << i;
        EXPECT_EQ(hviz.marks[i].atSec, fviz.marks[i].atSec) << "mark " << i;
        EXPECT_EQ(hviz.marks[i].durSec, fviz.marks[i].durSec)
            << "mark " << i;
    }
}

TEST(FaultServe, ZeroFaultIdentityOnHeterogeneousFleet)
{
    const HksParams &par = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"rot1", HeWorkload::reduction(2), par, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec2", HeWorkload::matVec(2), par, Dataflow::OC, 1});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 2;
    sp.fleet.chipBandwidthGBps = {4.0, 8.0};
    sp.fleet.keyCacheBytes = par.evkBytes() * 8;
    sp.batch.targetBatch = 2;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);

    std::vector<JobArrival> arr;
    for (std::size_t i = 0; i < 8; ++i)
        arr.push_back({0.0, static_cast<std::uint32_t>(i % 2),
                       static_cast<std::uint32_t>(i)});
    normalizeArrivals(arr);

    std::vector<JobResult> healthy, faulty;
    ServeStats hst;
    FaultServeStats fst;
    ASSERT_TRUE(sim.run(arr, healthy, hst).ok());
    FaultServingSim fs(sim);
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, faulty, fst)
            .ok());
    EXPECT_TRUE(sameFaultResults(healthy, faulty));
    EXPECT_TRUE(sameServeStats(hst, fst.done));
}

TEST(FaultServe, TwoJobChipFailRetryAccountingExact)
{
    // Two jobs at t = 0 on a 2-chip fleet; chip 0 dies mid-flight.
    // Every time in the outcome is a closed-form function of the two
    // class service scalars, asserted to the bit.
    ServeSpec sp = oneOpSpec(2);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double warm = sim.classServiceSec(0, true);
    const double f = 0.5 * cold;

    fault::FaultTrace tr;
    tr.events.push_back({f, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    RetryPolicy pol;
    pol.backoffSec = cold; // attempt 0 re-queues at f + cold

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    obs::ScenarioTrace viz;
    ASSERT_TRUE(fs.run(atZero(2), tr, pol, out, st, &viz).ok());
    ASSERT_EQ(out.size(), 2u);

    // Job 1 ran cleanly on chip 1 over [0, cold].
    EXPECT_EQ(out[1].startSec, 0.0);
    EXPECT_EQ(out[1].finishSec, cold);
    EXPECT_EQ(out[1].chip, 1u);
    EXPECT_EQ(out[1].retries, 0u);
    EXPECT_FALSE(out[1].rejected);
    EXPECT_FALSE(out[1].degraded);

    // Job 0's first run [0, cold] on chip 0 was revoked at f; it
    // re-queued at f + backoff * 2^0 and re-ran warm on chip 1 (the
    // dead chip is never admitted to).
    EXPECT_EQ(out[0].startSec, f + cold); // max(f + backoff, freeAt)
    EXPECT_EQ(out[0].finishSec, f + cold + warm);
    EXPECT_EQ(out[0].chip, 1u);
    EXPECT_EQ(out[0].retries, 1u);
    EXPECT_EQ(out[0].batch, 2u); // dispatched as the third batch
    EXPECT_TRUE(out[0].warmStart);
    EXPECT_FALSE(out[0].rejected);
    EXPECT_TRUE(out[0].degraded);

    EXPECT_EQ(st.completedJobs, 2u);
    EXPECT_EQ(st.done.jobs, 2u);
    EXPECT_EQ(st.rejectedJobs, 0u);
    EXPECT_EQ(st.timedOutJobs, 0u);
    EXPECT_EQ(st.lostJobs, 0u);
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.salvagedJobs, 1u);
    EXPECT_EQ(st.chipFailures, 1u);
    EXPECT_EQ(st.failovers, 0u);
    EXPECT_EQ(st.migratedBytes, 0u);
    EXPECT_EQ(st.migrationSec, 0.0);
    EXPECT_EQ(st.done.batches, 3u);
    EXPECT_EQ(st.done.warmJobs, 1u);
    EXPECT_EQ(st.done.makespanSec, f + cold + warm);
    EXPECT_EQ(st.healthyJobs, 1u);
    EXPECT_EQ(st.degradedJobs, 1u);
    EXPECT_EQ(st.healthyP99Sec, cold);
    EXPECT_EQ(st.degradedP99Sec, f + cold + warm);
    EXPECT_EQ(st.degradedOverHealthyP99, (f + cold + warm) / cold);
    EXPECT_EQ(st.recoverySec, (f + cold + warm) - f);

    // The failure and the retry made it into the scenario marks.
    bool sawFail = false, sawRetry = false;
    for (const obs::TraceMark &m : viz.marks) {
        sawFail = sawFail || m.label.rfind("chip 0 failed", 0) == 0;
        sawRetry = sawRetry || m.label.rfind("retry job 0", 0) == 0;
    }
    EXPECT_TRUE(sawFail);
    EXPECT_TRUE(sawRetry);

    // The viz attachment cannot change outcomes.
    std::vector<JobResult> plain;
    FaultServeStats pst;
    ASSERT_TRUE(fs.run(atZero(2), tr, pol, plain, pst).ok());
    EXPECT_TRUE(sameFaultResults(out, plain));
}

TEST(FaultServe, TimeoutAndRetryBudgetRejectExactly)
{
    ServeSpec sp = oneOpSpec(2);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double f = 0.5 * cold;
    fault::FaultTrace tr;
    tr.events.push_back({f, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;

    // (a) Backoff pushes the re-queue past the fleet deadline: the
    // salvaged job is rejected as timed out at the failure time.
    RetryPolicy pol;
    pol.backoffSec = cold;
    pol.deadlineSec = f + 0.5 * cold; // < f + backoff
    ASSERT_TRUE(fs.run(atZero(2), tr, pol, out, st).ok());
    EXPECT_TRUE(out[0].rejected);
    EXPECT_EQ(out[0].startSec, f);
    EXPECT_EQ(out[0].finishSec, f);
    EXPECT_EQ(out[0].retries, 0u);
    EXPECT_EQ(st.rejectedJobs, 1u);
    EXPECT_EQ(st.timedOutJobs, 1u);
    EXPECT_EQ(st.salvagedJobs, 1u);
    EXPECT_EQ(st.retries, 0u);
    EXPECT_EQ(st.completedJobs, 1u);
    EXPECT_EQ(st.lostJobs, 0u);
    EXPECT_EQ(st.recoverySec, 0.0); // settled at the failure itself

    // (b) Retry budget exhausted: rejected, but not as a timeout.
    RetryPolicy none;
    none.maxRetries = 0;
    ASSERT_TRUE(fs.run(atZero(2), tr, none, out, st).ok());
    EXPECT_TRUE(out[0].rejected);
    EXPECT_EQ(out[0].startSec, f);
    EXPECT_EQ(st.rejectedJobs, 1u);
    EXPECT_EQ(st.timedOutJobs, 0u);
    EXPECT_EQ(st.lostJobs, 0u);

    // (c) Per-job deadlines reject queued work even with no fault at
    // all: job 1's budget expires while job 0 holds the only chip.
    ServeSpec one = oneOpSpec(1);
    ServingSim sim1(one, runner);
    FaultServingSim fs1(sim1);
    std::vector<JobArrival> arr{{0.0, 0, 0}, {0.0, 0, 1, 0.5 * cold}};
    normalizeArrivals(arr);
    ASSERT_TRUE(
        fs1.run(arr, fault::FaultTrace{}, RetryPolicy{}, out, st).ok());
    EXPECT_FALSE(out[0].rejected);
    EXPECT_TRUE(out[1].rejected);
    EXPECT_EQ(out[1].startSec, sim1.classServiceSec(0, false));
    EXPECT_EQ(out[1].finishSec, out[1].startSec);
    EXPECT_EQ(st.timedOutJobs, 1u);
    EXPECT_EQ(st.lostJobs, 0u);
}

TEST(FaultServe, DegradedWindowSplitAndExactPiecewisePricing)
{
    // A transient stall covers only the first job's service window:
    // job 0 prices through the piecewise replay (asserted against a
    // from-scratch reference to the bit), later jobs price clean once
    // the stall has fully expired.
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double warm = sim.classServiceSec(0, true);

    fault::FaultTrace tr;
    tr.events.push_back({0.25 * cold, fault::FaultKind::TransientStall,
                         0, 0, 0.25, 0.25 * cold});
    tr.normalize();

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(atZero(3), tr, RetryPolicy{}, out, st).ok());

    // Reference: the class's miss-variant compile replayed piecewise
    // under the chip-local epoch table, exactly as the loop prices it.
    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    const auto exp = runner.experiment(sp.classes[0].params,
                                       sp.classes[0].dataflow, missMem);
    const sim::CompiledSchedule cs =
        RpuEngine(sp.fleet.chip).compile(exp->graph());
    sim::ReplayRates rates;
    RpuEngine(sp.fleet.chip).rates(cs, rates);
    sim::ReplayScratch scratch;
    const sim::RateEpochs ep =
        fault::buildChipEpochs(tr, 0, cs.resourceCount(), 0.0);
    ASSERT_FALSE(ep.empty());
    const double dur0 = cs.replayPiecewise(rates, ep, nullptr, scratch);
    ASSERT_GT(dur0, 0.5 * cold); // the stall had not expired yet

    EXPECT_EQ(out[0].finishSec, dur0);
    EXPECT_GT(out[0].finishSec, cold); // the stall stretched the op
    EXPECT_TRUE(out[0].degraded);
    // Jobs 1 and 2 start after the stall ended: the folded epoch
    // table is empty there, so they run on the clean warm scalar.
    EXPECT_EQ(out[1].startSec, dur0);
    EXPECT_EQ(out[1].finishSec, dur0 + warm);
    EXPECT_FALSE(out[1].degraded);
    EXPECT_FALSE(out[2].degraded);

    EXPECT_EQ(st.degradedJobs, 1u);
    EXPECT_EQ(st.healthyJobs, 2u);
    EXPECT_EQ(st.degradedP99Sec, out[0].latencySec());
    EXPECT_EQ(st.healthyP99Sec,
              std::max(out[1].latencySec(), out[2].latencySec()));
    EXPECT_EQ(st.degradedOverHealthyP99,
              st.degradedP99Sec / st.healthyP99Sec);

    // With viz: identical outcomes, and the degraded op's segment
    // carries its epoch table while the clean ops' segments are flat.
    std::vector<JobResult> vout;
    FaultServeStats vst;
    obs::ScenarioTrace viz;
    ASSERT_TRUE(fs.run(atZero(3), tr, RetryPolicy{}, vout, vst, &viz).ok());
    EXPECT_TRUE(sameFaultResults(out, vout));
    ASSERT_EQ(viz.segments.size(), 3u);
    EXPECT_FALSE(viz.segments[0].epochs.empty());
    EXPECT_TRUE(viz.segments[1].epochs.empty());
    EXPECT_EQ(viz.segments[0].baseSec, out[0].startSec);
    EXPECT_EQ(out[0].finishSec,
              out[0].startSec + viz.segments[0].buf.makespan);
}

TEST(FaultServe, AdmissionAvoidsDegradedChips)
{
    ServeSpec sp = oneOpSpec(2);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    FaultServingSim fs(sim);

    std::vector<JobArrival> arr{{1e-3, 0, 0}};
    std::vector<JobResult> out;
    FaultServeStats st;

    // Clean fleet: the least-loaded tie breaks to chip 0.
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, out, st).ok());
    EXPECT_EQ(out[0].chip, 0u);

    // Chip 0 degraded before the arrival: admission deprioritizes it
    // and the job runs clean on chip 1 for the exact healthy price.
    fault::FaultTrace tr;
    tr.events.push_back(
        {1e-6, fault::FaultKind::ChannelDegrade, 0, 0, 0.5, 0.0});
    ASSERT_TRUE(fs.run(arr, tr, RetryPolicy{}, out, st).ok());
    EXPECT_EQ(out[0].chip, 1u);
    EXPECT_FALSE(out[0].degraded);
    EXPECT_EQ(out[0].startSec, 1e-3);
    EXPECT_EQ(out[0].finishSec, 1e-3 + cold);
    EXPECT_EQ(st.degradedJobs, 0u);
}

TEST(FaultServe, EventsBeyondLastDepartureAreCleanlyIgnored)
{
    // Failures, degrades and stalls far past the run's last departure
    // validate fine and change nothing — results, flags and stats are
    // bit-identical to the empty-trace run.
    ServeSpec sp = oneOpSpec(2);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    FaultServingSim fs(sim);

    std::vector<JobResult> base, out;
    FaultServeStats bst, st;
    ASSERT_TRUE(
        fs.run(atZero(2), fault::FaultTrace{}, RetryPolicy{}, base, bst)
            .ok());

    fault::FaultTrace far;
    far.events.push_back(
        {100.0 * cold, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    far.events.push_back({100.0 * cold,
                          fault::FaultKind::ChannelDegrade, 1, 0, 0.5,
                          0.0});
    far.events.push_back({100.0 * cold,
                          fault::FaultKind::TransientStall, 0, 0, 0.1,
                          cold});
    far.normalize();
    ASSERT_TRUE(fs.run(atZero(2), far, RetryPolicy{}, out, st).ok());

    EXPECT_EQ(serializeFault(base), serializeFault(out));
    EXPECT_TRUE(sameServeStats(bst.done, st.done));
    EXPECT_EQ(st.chipFailures, 0u);
    EXPECT_EQ(st.salvagedJobs, 0u);
    EXPECT_EQ(st.degradedJobs, 0u);
    EXPECT_EQ(st.healthyJobs, 2u);
}

TEST(FaultServe, GangFailoverMatchesPatchPathReference)
{
    // A 2-wide gang class loses a chip mid-job: the class re-places
    // through planFailover/recompilePartition, pays the migration as a
    // wall-clock pause, and the retried job prices at the patched
    // binding's replay runtime — all asserted against a from-scratch
    // reference.
    const HksParams &par = benchmarkByName("BTS1");
    const HeWorkload wl = HeWorkload::reduction(4);
    ServeSpec sp;
    sp.classes.push_back({"gang", wl, par, Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 8.0;
    sp.fleet.chips = 2;
    sp.batch.targetBatch = 1;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double f = 0.5 * cold;

    fault::FaultTrace tr;
    tr.events.push_back({f, fault::FaultKind::ChipFail, 1, 0, 1.0, 0.0});
    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(atZero(1), tr, RetryPolicy{}, out, st).ok());

    // Reference: replicate the miss-variant patch path by hand.
    const MemoryConfig mem{sp.fleet.chip.dataMemBytes, false};
    const auto exp = runner.experiment(par, Dataflow::MP, mem);
    const shard::ShardSpec spec2 = shard::placementShardSpec(
        par, 2, sp.fleet.strategy, sp.fleet.imbalanceTol);
    const std::vector<double> w =
        shard::taskWeights(exp->graph(), sp.fleet.chip);
    const shard::Partition basePart =
        shard::partitionGraph(exp->graph(), spec2, w);
    shard::ShardedEngine eng(sp.fleet.chip, sp.fleet.interconnect);
    shard::ShardedPatchable ps =
        eng.compilePatchable(exp->graph(), basePart);
    fault::FailoverPlan plan;
    const std::vector<char> alive{1, 0};
    ASSERT_TRUE(fault::planFailover(exp->graph(), spec2, ps.part, 1,
                                    alive, nullptr, w, plan)
                    .ok());
    eng.recompilePartition(ps, plan.part);
    const double patchedOpRt = eng.replayRuntime(ps.compiled);
    const double mig = fault::migrationSeconds(
        plan.migrationBytes, sp.fleet.interconnect, 1);

    EXPECT_EQ(st.chipFailures, 1u);
    EXPECT_EQ(st.failovers, 1u);
    EXPECT_EQ(st.salvagedJobs, 1u);
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.migratedBytes, plan.migrationBytes);
    EXPECT_EQ(st.migrationSec, mig);
    EXPECT_EQ(st.lostJobs, 0u);

    // The retry re-queued at f (no backoff), waited out the migration
    // pause, and ran solo on the survivor at the patched price.
    double t = f + mig;
    const double expectStart = t;
    for (std::size_t i = 0; i < wl.ops.size(); ++i)
        t += patchedOpRt;
    EXPECT_EQ(out[0].startSec, expectStart);
    EXPECT_EQ(out[0].finishSec, t);
    EXPECT_EQ(out[0].chip, 0u);
    EXPECT_EQ(out[0].retries, 1u);
    EXPECT_TRUE(out[0].degraded); // ran on a failed-over gang
    EXPECT_FALSE(out[0].rejected);
    EXPECT_EQ(st.recoverySec, t - f);

    // A later empty-trace run on the same simulator re-binds the gang
    // to its base placement: bit-identical to the healthy loop again.
    std::vector<JobResult> healthy, faulty;
    ServeStats hst;
    FaultServeStats fst;
    ASSERT_TRUE(sim.run(atZero(1), healthy, hst).ok());
    ASSERT_TRUE(
        fs.run(atZero(1), fault::FaultTrace{}, RetryPolicy{}, faulty, fst)
            .ok());
    EXPECT_TRUE(sameFaultResults(healthy, faulty));
    EXPECT_TRUE(sameServeStats(hst, fst.done));
}

TEST(FaultServe, FleetDeathRejectsEverythingNothingLost)
{
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double cold = sim.classServiceSec(0, false);
    const double f = 0.5 * cold;
    fault::FaultTrace tr;
    tr.events.push_back({f, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(atZero(3), tr, RetryPolicy{}, out, st).ok());

    for (const JobResult &r : out) {
        EXPECT_TRUE(r.rejected);
        EXPECT_EQ(r.startSec, f);
        EXPECT_EQ(r.finishSec, f);
    }
    EXPECT_EQ(st.completedJobs, 0u);
    EXPECT_EQ(st.rejectedJobs, 3u);
    EXPECT_EQ(st.timedOutJobs, 0u);
    EXPECT_EQ(st.lostJobs, 0u);
    EXPECT_EQ(st.salvagedJobs, 1u); // job 0 was in flight at f
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.chipFailures, 1u);
    EXPECT_EQ(st.done.jobs, 0u);
    EXPECT_EQ(st.done.p99LatencySec, 0.0); // empty-population guard
    EXPECT_EQ(st.healthyP99Sec, 0.0);
    EXPECT_EQ(st.degradedOverHealthyP99, 0.0);
}

TEST(FaultServe, DeterministicAcrossRepeatsAndThreadCounts)
{
    const HksParams &ark = benchmarkByName("ARK");
    const HksParams &bts = benchmarkByName("BTS1");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce4", HeWorkload::reduction(4), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"gang2", HeWorkload::reduction(2), bts, Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 8.0;
    sp.fleet.chips = 3;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 4;
    sp.batch.targetBatch = 2;

    ExperimentRunner probe(2);
    ServingSim probeSim(sp, probe);
    const double cold = probeSim.classServiceSec(0, false);

    // Arrivals and faults derive from disjoint streams of one seed.
    ArrivalSpec as;
    as.horizonSec = 8.0 * cold;
    as.tenants.push_back({2.0 / cold, {1.0, 1.0}});
    as.tenants.push_back({2.0 / cold, {3.0, 1.0}});
    const std::vector<JobArrival> arr = poissonArrivals(as, 7);
    ASSERT_FALSE(arr.empty());

    fault::FaultModel model;
    model.chipFailMtbfSec = 40.0 * cold;
    model.channelDegradeMtbfSec = 4.0 * cold;
    model.stallMtbfSec = 6.0 * cold;
    model.degradeFactor = 0.6;
    model.stallFactor = 0.2;
    model.stallDurSec = 0.5 * cold;
    model.horizonSec = 6.0 * cold;
    const fault::MachineShape shape{
        sp.fleet.chips, sp.fleet.chip.channelCount(), 0};
    fault::FaultTrace tr =
        fault::sampleTrace(model, shape, faultStreamSeed(7, 0));
    // Guarantee mid-run activity on top of whatever was sampled.
    tr.events.push_back(
        {1.5 * cold, fault::FaultKind::ChipFail, 2, 0, 1.0, 0.0});
    tr.events.push_back(
        {0.5 * cold, fault::FaultKind::ChannelDegrade, 0, 0, 0.5, 0.0});
    tr.normalize();

    RetryPolicy pol;
    pol.backoffSec = 0.25 * cold;
    pol.deadlineSec = 50.0 * cold;

    std::string firstRun;
    FaultServeStats firstStats;
    for (std::size_t threads : {1u, 2u, 5u}) {
        ExperimentRunner runner(threads);
        ServingSim sim(sp, runner);
        FaultServingSim fs(sim);
        std::vector<JobResult> out;
        FaultServeStats st;
        ASSERT_TRUE(fs.run(arr, tr, pol, out, st).ok());
        // A second run on the same simulator must reproduce the
        // first (state resets between runs).
        std::vector<JobResult> again;
        FaultServeStats ast;
        ASSERT_TRUE(fs.run(arr, tr, pol, again, ast).ok());
        EXPECT_TRUE(sameFaultResults(out, again));

        const std::string s = serializeFault(out);
        if (firstRun.empty()) {
            firstRun = s;
            firstStats = st;
            EXPECT_GE(st.chipFailures, 1u);
            EXPECT_EQ(st.lostJobs, 0u);
            EXPECT_EQ(st.completedJobs + st.rejectedJobs, arr.size());
        } else {
            EXPECT_EQ(firstRun, s) << "threads " << threads;
            EXPECT_EQ(firstStats.completedJobs, st.completedJobs);
            EXPECT_EQ(firstStats.retries, st.retries);
            EXPECT_EQ(firstStats.chipFailures, st.chipFailures);
            EXPECT_EQ(firstStats.healthyP99Sec, st.healthyP99Sec);
            EXPECT_EQ(firstStats.degradedP99Sec, st.degradedP99Sec);
            EXPECT_EQ(firstStats.recoverySec, st.recoverySec);
        }
    }
}

TEST(FaultServe, TrySimulateMatchesManualConstruction)
{
    ServeSpec sp = oneOpSpec(1);
    ExperimentRunner runner(2);
    const std::vector<JobArrival> arr = atZero(2);
    std::vector<JobResult> out;
    FaultServeStats st;

    // Malformed inputs surface as errors, never as aborts.
    EXPECT_EQ(trySimulateFaultServing(ServeSpec{}, arr,
                                      fault::FaultTrace{}, RetryPolicy{},
                                      runner, out, st)
                  .code,
              sim::ErrorCode::BadServeSpec);
    std::vector<JobArrival> unsorted{{0.2, 0, 0}, {0.1, 0, 0}};
    EXPECT_EQ(trySimulateFaultServing(sp, unsorted, fault::FaultTrace{},
                                      RetryPolicy{}, runner, out, st)
                  .code,
              sim::ErrorCode::BadServeSpec);
    RetryPolicy bad;
    bad.backoffSec = -1.0;
    EXPECT_EQ(trySimulateFaultServing(sp, arr, fault::FaultTrace{}, bad,
                                      runner, out, st)
                  .code,
              sim::ErrorCode::BadServeSpec);
    fault::FaultTrace link;
    link.events.push_back(
        {0.1, fault::FaultKind::LinkDegrade, 0, 0, 0.5, 0.0});
    EXPECT_EQ(trySimulateFaultServing(sp, arr, link, RetryPolicy{},
                                      runner, out, st)
                  .code,
              sim::ErrorCode::BadFaultTrace);

    // A valid run is bit-identical to manual construction.
    ASSERT_TRUE(trySimulateFaultServing(sp, arr, fault::FaultTrace{},
                                        RetryPolicy{}, runner, out, st)
                    .ok());
    ServingSim sim(sp, runner);
    FaultServingSim fs(sim);
    std::vector<JobResult> manual;
    FaultServeStats mst;
    ASSERT_TRUE(
        fs.run(arr, fault::FaultTrace{}, RetryPolicy{}, manual, mst)
            .ok());
    EXPECT_TRUE(sameFaultResults(out, manual));

    // The healthy-path mirror carries the same error surface.
    std::vector<JobResult> hout;
    ServeStats hst;
    EXPECT_EQ(
        trySimulateServing(sp, unsorted, runner, hout, hst).code,
        sim::ErrorCode::BadServeSpec);
    ASSERT_TRUE(trySimulateServing(sp, arr, runner, hout, hst).ok());
    std::vector<JobResult> href;
    ServeStats hrst;
    ASSERT_TRUE(sim.run(arr, href, hrst).ok());
    EXPECT_TRUE(sameFaultResults(hout, href));
}

// Only gang classes ship values over the interconnect: once a class
// gangs, a NaN link latency is a BadServeSpec; with no gang class the
// network is never built, and the run equals one on the default
// interconnect.
TEST(FaultServe, InterconnectIsValidatedOnlyWhenAClassGangs)
{
    ExperimentRunner runner(1);
    const std::vector<JobArrival> arr = atZero(2);
    ServeSpec sp = oneOpSpec(2);
    std::vector<JobResult> ref, out;
    FaultServeStats rst, st;
    ASSERT_TRUE(trySimulateFaultServing(sp, arr, fault::FaultTrace{},
                                        RetryPolicy{}, runner, ref, rst)
                    .ok());
    sp.fleet.interconnect.latencySec =
        std::numeric_limits<double>::quiet_NaN();
    ASSERT_TRUE(trySimulateFaultServing(sp, arr, fault::FaultTrace{},
                                        RetryPolicy{}, runner, out, st)
                    .ok());
    EXPECT_TRUE(sameFaultResults(out, ref));

    sp.classes[0].shards = 2;
    const sim::Error err = trySimulateFaultServing(
        sp, arr, fault::FaultTrace{}, RetryPolicy{}, runner, out, st);
    EXPECT_EQ(err.code, sim::ErrorCode::BadServeSpec);
    EXPECT_NE(err.context.find("link latency"), std::string::npos)
        << err.context;
}

TEST(FaultServe, PricingMatchesFreshTableReference)
{
    // One chip, two one-op classes, faults aligned against op
    // boundaries: a stall that starts and ends inside an op, stalls
    // starting and ending exactly where an op starts, a permanent
    // degrade, and a stall compounding with it through a batched
    // burst. Every op must price exactly as a fresh epoch table plus
    // piecewise replay prices it, with viz on and off.
    const HksParams &ark = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"rotOC", HeWorkload::reduction(2), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"rotMP", HeWorkload::reduction(2), ark, Dataflow::MP, 1});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 1;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 8;
    sp.batch.targetBatch = 3;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double c = sim.classServiceSec(0, false);

    std::vector<JobArrival> arr;
    std::uint32_t tenant = 0;
    const auto burst = [&](double at, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            arr.push_back(
                {at, static_cast<std::uint32_t>(i % 2), tenant++});
    };
    burst(0.0, 6);
    burst(30.0 * c, 1); // idle fleet: starts exactly at 30c
    burst(40.0 * c, 1); // ... at 40c
    burst(50.0 * c, 1); // ... at 50c
    burst(60.0 * c, 12);
    normalizeArrivals(arr);

    using fault::FaultKind;
    fault::FaultTrace tr;
    tr.events.push_back({0.3 * c, FaultKind::TransientStall, 0, 0, 0.25,
                         0.3 * c}); // inside job 0's op
    tr.events.push_back({30.0 * c, FaultKind::TransientStall, 0, 0, 0.5,
                         0.5 * c}); // starts on an op start
    tr.events.push_back({39.5 * c, FaultKind::TransientStall, 0, 0, 0.5,
                         0.5 * c}); // ends on an op start
    tr.events.push_back({50.0 * c, FaultKind::ChannelDegrade, 0, 0, 0.6,
                         0.0}); // permanent, from an op start
    tr.events.push_back({62.0 * c, FaultKind::TransientStall, 0, 0, 0.3,
                         2.0 * c}); // compounds with the degrade
    tr.normalize();

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(arr, tr, RetryPolicy{}, out, st).ok());
    EXPECT_EQ(st.completedJobs, arr.size());
    const std::size_t degradedOps =
        expectFreshTablePricing(sim, runner, tr, out);

    // The aligned cases landed where intended.
    EXPECT_TRUE(out[0].degraded);
    EXPECT_EQ(out[6].startSec, 30.0 * c);
    EXPECT_TRUE(out[6].degraded);
    EXPECT_EQ(out[7].startSec, 40.0 * c);
    EXPECT_FALSE(out[7].degraded);
    EXPECT_EQ(out[8].startSec, 50.0 * c);
    EXPECT_TRUE(out[8].degraded);
    EXPECT_GE(degradedOps, 14u);

    // The shortcuts did the work: tables and replays only where a
    // boundary falls inside an op or a rate state is new; every other
    // degraded op reused a memoized price.
    const std::uint64_t replays = counterOf(fs, "piecewise_replays");
    const std::uint64_t hits = counterOf(fs, "price_memo_hits");
    EXPECT_EQ(replays + hits, degradedOps);
    EXPECT_GT(hits, 0u);
    EXPECT_LE(counterOf(fs, "epoch_tables"), replays + 2);

    // Viz on: identical results; degraded ops render their own replay
    // (no memo reads), with the epoch table attached.
    std::vector<JobResult> vout;
    FaultServeStats vst;
    obs::ScenarioTrace viz;
    FaultServingSim vfs(sim);
    ASSERT_TRUE(vfs.run(arr, tr, RetryPolicy{}, vout, vst, &viz).ok());
    EXPECT_EQ(serializeRun(out, st), serializeRun(vout, vst));
    EXPECT_EQ(counterOf(vfs, "price_memo_hits"), 0u);
    EXPECT_EQ(counterOf(vfs, "piecewise_replays"), degradedOps);
    ASSERT_EQ(viz.segments.size(), arr.size());
    std::size_t withEpochs = 0;
    for (const obs::TraceSegment &seg : viz.segments)
        withEpochs += seg.epochs.empty() ? 0 : 1;
    EXPECT_EQ(withEpochs, degradedOps);
}

TEST(FaultServe, SampledFaultPricingMatchesFreshTableReference)
{
    // Seeded stalls and degrades on a 3-chip fleet under overload,
    // with a chip death and retries: the same fresh-table reference
    // for every completed job, across several seeds.
    const HksParams &ark = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"rotOC", HeWorkload::reduction(2), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"rotMP", HeWorkload::reduction(2), ark, Dataflow::MP, 1});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 3;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 8;
    sp.batch.targetBatch = 4;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    FaultServingSim fs(sim);
    const double c = sim.classServiceSec(0, false);

    ArrivalSpec as;
    as.horizonSec = 200.0 * c;
    as.tenants.push_back({2.0 / c, {1.0, 1.0}});
    as.tenants.push_back({2.0 / c, {3.0, 1.0}});
    fault::FaultModel model;
    model.channelDegradeMtbfSec = 150.0 * c;
    model.stallMtbfSec = 30.0 * c;
    model.degradeFactor = 0.6;
    model.stallFactor = 0.3;
    model.stallDurSec = 3.0 * c;
    model.horizonSec = 200.0 * c;
    RetryPolicy pol;
    pol.backoffSec = c;

    std::size_t degradedOps = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::vector<JobArrival> arr =
            poissonArrivals(as, tenantStreamSeed(seed, 0));
        fault::FaultTrace tr =
            fault::sampleTrace(model, fs.shape(), faultStreamSeed(seed, 0));
        tr.events.push_back(
            {100.0 * c, fault::FaultKind::ChipFail, 2, 0, 1.0, 0.0});
        tr.normalize();
        std::vector<JobResult> out;
        FaultServeStats st;
        ASSERT_TRUE(fs.run(arr, tr, pol, out, st).ok());
        EXPECT_EQ(st.lostJobs, 0u);
        degradedOps += expectFreshTablePricing(sim, runner, tr, out);
    }
    // Ops of batches a chip death revoked were priced too, so the
    // counters can run ahead of the surviving degraded ops.
    EXPECT_GT(degradedOps, 0u);
    EXPECT_GT(counterOf(fs, "price_memo_hits"), 0u);
    EXPECT_GE(counterOf(fs, "piecewise_replays") +
                  counterOf(fs, "price_memo_hits"),
              degradedOps);
}

TEST(FaultServe, GangPricingMatchesFreshTableReference)
{
    // A 2-wide gang on a 2-chip fleet: stalls on both chips, a
    // permanent degrade on chip 1, then chip 1 dies and the gang fails
    // over to a new binding revision on chip 0 alone. Every op must
    // price as a fresh buildEpochs table over the gang's slot view
    // plus a piecewise replay of the binding it ran on.
    const HksParams &par = benchmarkByName("BTS1");
    ServeSpec sp;
    sp.classes.push_back(
        {"gang", HeWorkload::reduction(2), par, Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 8.0;
    sp.fleet.chips = 2;
    sp.batch.targetBatch = 2;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double c = sim.classServiceSec(0, false);

    std::vector<JobArrival> arr;
    for (std::uint32_t i = 0; i < 40; ++i)
        arr.push_back({0.7 * c * i, 0, i});
    normalizeArrivals(arr);
    const double failAt = 21.5 * c;
    using fault::FaultKind;
    fault::FaultTrace tr;
    tr.events.push_back(
        {1.2 * c, FaultKind::TransientStall, 0, 0, 0.25, 0.4 * c});
    tr.events.push_back(
        {4.0 * c, FaultKind::TransientStall, 1, 0, 0.5, 6.0 * c});
    tr.events.push_back({8.0 * c, FaultKind::ChannelDegrade, 1, 0, 0.5,
                         0.0});
    tr.events.push_back(
        {12.0 * c, FaultKind::TransientStall, 0, 0, 0.3, 5.0 * c});
    tr.events.push_back({failAt, FaultKind::ChipFail, 1, 0, 1.0, 0.0});
    tr.events.push_back(
        {26.0 * c, FaultKind::TransientStall, 0, 0, 0.5, 4.0 * c});
    tr.normalize();

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(arr, tr, RetryPolicy{}, out, st).ok());
    ASSERT_EQ(st.failovers, 1u);
    EXPECT_EQ(st.lostJobs, 0u);

    // Reference bindings: the base placement and the one planFailover
    // moves chip 1's slot off (no key cache: every op is a miss).
    const MemoryConfig mem{sp.fleet.chip.dataMemBytes, false};
    const auto exp = runner.experiment(par, Dataflow::MP, mem);
    const shard::ShardSpec spec2 = shard::placementShardSpec(
        par, 2, sp.fleet.strategy, sp.fleet.imbalanceTol);
    const std::vector<double> w =
        shard::taskWeights(exp->graph(), sp.fleet.chip);
    const shard::Partition basePart =
        shard::partitionGraph(exp->graph(), spec2, w);
    shard::ShardedEngine eng(sp.fleet.chip, sp.fleet.interconnect);
    const shard::ShardedPatchable base =
        eng.compilePatchable(exp->graph(), basePart);
    shard::ShardedPatchable moved =
        eng.compilePatchable(exp->graph(), basePart);
    fault::FailoverPlan plan;
    ASSERT_TRUE(fault::planFailover(exp->graph(), spec2, moved.part, 1,
                                    {1, 0}, nullptr, w, plan)
                    .ok());
    eng.recompilePartition(moved, plan.part);
    sim::ReplayRates baseRates, movedRates;
    eng.rates(base.compiled, baseRates);
    eng.rates(moved.compiled, movedRates);
    const double baseClean = eng.replayRuntime(base.compiled);
    const double movedClean = eng.replayRuntime(moved.compiled);
    EXPECT_EQ(baseClean, c);

    sim::ReplayScratch scratch;
    std::size_t degradedOps = 0;
    for (std::size_t j = 0; j < out.size(); ++j) {
        const JobResult &r = out[j];
        ASSERT_FALSE(r.rejected);
        const bool after = r.startSec >= failAt;
        // Slot order: admission puts non-degraded chips first, then
        // (equal gang freeAt) the lower id.
        std::vector<std::uint32_t> slots;
        if (after) {
            slots = {0};
        } else {
            slots = {0, 1};
            if (chipDegradedAt(tr, 0, r.startSec) &&
                !chipDegradedAt(tr, 1, r.startSec))
                slots = {1, 0};
        }
        fault::FaultTrace view;
        for (const fault::FaultEvent &e : tr.events) {
            if (e.kind == FaultKind::ChipFail)
                continue;
            for (std::size_t i = 0; i < slots.size(); ++i)
                if (e.shard == slots[i]) {
                    fault::FaultEvent ev = e;
                    ev.shard = static_cast<std::uint32_t>(i);
                    view.events.push_back(ev);
                }
        }
        view.normalize();
        const shard::ShardedPatchable &ps = after ? moved : base;
        const double clean = after ? movedClean : baseClean;
        const sim::RateEpochs ep =
            fault::buildEpochs(view, ps.compiled, r.startSec);
        const bool degraded = firstBoundaryOf(ep) < clean;
        const double dur =
            degraded ? ps.compiled.schedule.replayPiecewise(
                           after ? movedRates : baseRates, ep, nullptr,
                           scratch)
                     : clean;
        EXPECT_EQ(r.finishSec, r.startSec + dur) << "job " << j;
        EXPECT_EQ(r.degraded, degraded || r.retries > 0 || after)
            << "job " << j;
        degradedOps += degraded ? 1 : 0;
    }
    // The job chip 1's death revoked was priced once more.
    EXPECT_GT(degradedOps, 0u);
    EXPECT_GT(counterOf(fs, "price_memo_hits"), 0u);
    EXPECT_GE(counterOf(fs, "piecewise_replays") +
                  counterOf(fs, "price_memo_hits"),
              degradedOps);

    // Viz on (gang ops render as marks): identical results.
    std::vector<JobResult> vout;
    FaultServeStats vst;
    obs::ScenarioTrace viz;
    ASSERT_TRUE(fs.run(arr, tr, RetryPolicy{}, vout, vst, &viz).ok());
    EXPECT_EQ(serializeRun(out, st), serializeRun(vout, vst));
}

TEST(FaultServe, GoldenStreamPin)
{
    // Overload on a 4-chip fleet with a gang class: queues thousands
    // deep, per-job deadlines that skip expired batch candidates and
    // time jobs out, stalls and a permanent degrade priced piecewise,
    // chip deaths with retries, a gang failover, and finally fleet
    // death. Every result and stats field is pinned by hash: the
    // admission order, ties and pricing of this run may not move.
    const HksParams &ark = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce8", HeWorkload::reduction(8), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec4", HeWorkload::matVec(4), ark, Dataflow::OC, 1});
    sp.classes.push_back({"gang2", HeWorkload::reduction(2),
                          benchmarkByName("BTS1"), Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 4;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 8;
    sp.batch.targetBatch = 8;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    FaultServingSim fs(sim);

    const double horizon = 100.0;
    ArrivalSpec as;
    as.tenants.push_back({16.0, {3.0, 1.0, 1.0}});
    as.tenants.push_back({16.0, {1.0, 3.0, 1.0}});
    as.tenants.push_back({8.0, {1.0, 1.0, 2.0}});
    as.horizonSec = horizon;
    std::vector<JobArrival> arr = poissonArrivals(as, 77);
    for (std::size_t i = 0; i < arr.size(); i += 5)
        arr[i].deadlineSec = 0.2 * horizon;

    fault::FaultModel fm;
    fm.stallMtbfSec = 0.3 * horizon;
    fm.stallFactor = 0.3;
    fm.stallDurSec = 0.02 * horizon;
    fm.horizonSec = 0.9 * horizon;
    fault::FaultTrace tr =
        fault::sampleTrace(fm, fs.shape(), faultStreamSeed(77, 0));
    using fault::FaultKind;
    tr.events.push_back(
        {0.15 * horizon, FaultKind::ChannelDegrade, 0, 0, 0.6, 0.0});
    tr.events.push_back({0.3 * horizon, FaultKind::ChipFail, 3, 0, 1.0, 0.0});
    tr.events.push_back({0.5 * horizon, FaultKind::ChipFail, 2, 0, 1.0, 0.0});
    tr.events.push_back({0.7 * horizon, FaultKind::ChipFail, 1, 0, 1.0, 0.0});
    tr.events.push_back({0.9 * horizon, FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    tr.normalize();
    RetryPolicy pol;
    pol.backoffSec = 0.01 * horizon;

    std::vector<JobResult> out;
    FaultServeStats st;
    ASSERT_TRUE(fs.run(arr, tr, pol, out, st).ok());
    EXPECT_GE(st.done.maxQueueDepth, 1000u);
    EXPECT_GT(st.timedOutJobs, 0u);
    EXPECT_GT(st.retries, 0u);
    EXPECT_EQ(st.failovers, 1u);
    EXPECT_EQ(st.chipFailures, 4u);
    EXPECT_EQ(st.lostJobs, 0u);
    EXPECT_EQ(st.completedJobs + st.rejectedJobs, arr.size());
    EXPECT_GT(st.degradedJobs, 0u);
    const std::uint64_t h = fnv1a(serializeRun(out, st));
    EXPECT_EQ(h, 0x58a2e3cd9a004523ull) << std::hex << "0x" << h;
    // The pricing work is pinned too: how a price is found may change,
    // not which ops build a table, replay or reuse a memoized price.
    EXPECT_EQ(counterOf(fs, "piecewise_replays"), 36u);
    EXPECT_EQ(counterOf(fs, "price_memo_hits"), 631u);
    EXPECT_EQ(counterOf(fs, "epoch_tables"), 36u);
}

/** Nearest-rank percentile of `v` after a sort: the reference the
 * serving loop's selection must reproduce. */
double
sortedPercentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    return stats::percentileSorted(v, p);
}

TEST(FaultServe, PercentilesMatchSortedRecomputation)
{
    // Every latency percentile field, healthy loop and fault loop, is
    // what sorting the latencies in `out` and reading nearest ranks
    // gives, bit for bit: selection reads the same order statistics.
    const HksParams &ark = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce8", HeWorkload::reduction(8), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec4", HeWorkload::matVec(4), ark, Dataflow::OC, 1});
    sp.classes.push_back({"gang2", HeWorkload::reduction(2),
                          benchmarkByName("BTS1"), Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 4;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 8;
    sp.batch.targetBatch = 8;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    FaultServingSim fs(sim);
    for (std::uint64_t seed : {3ull, 5ull, 8ull}) {
        ArrivalSpec as;
        as.tenants.push_back({12.0, {3.0, 1.0, 1.0}});
        as.tenants.push_back({12.0, {1.0, 3.0, 1.0}});
        as.tenants.push_back({6.0, {1.0, 1.0, 2.0}});
        as.horizonSec = 30.0;
        const std::vector<JobArrival> arr = poissonArrivals(as, seed);

        std::vector<JobResult> out;
        ServeStats st;
        ASSERT_TRUE(sim.run(arr, out, st).ok());
        std::vector<double> lat;
        for (const JobResult &r : out)
            lat.push_back(r.latencySec());
        ASSERT_EQ(st.jobs, lat.size());
        EXPECT_EQ(st.p50LatencySec, sortedPercentile(lat, 0.50));
        EXPECT_EQ(st.p99LatencySec, sortedPercentile(lat, 0.99));
        EXPECT_EQ(st.p999LatencySec, sortedPercentile(lat, 0.999));
        EXPECT_EQ(st.maxLatencySec, sortedPercentile(lat, 1.0));

        fault::FaultModel fm;
        fm.stallMtbfSec = 8.0;
        fm.stallFactor = 0.3;
        fm.stallDurSec = 0.6;
        fm.horizonSec = 27.0;
        fault::FaultTrace tr =
            fault::sampleTrace(fm, fs.shape(), faultStreamSeed(seed, 0));
        tr.events.push_back(
            {4.5, fault::FaultKind::ChannelDegrade, 0, 0, 0.6, 0.0});
        tr.events.push_back(
            {9.0, fault::FaultKind::ChipFail, 3, 0, 1.0, 0.0});
        tr.normalize();
        RetryPolicy pol;
        pol.backoffSec = 0.3;
        FaultServeStats fst;
        ASSERT_TRUE(fs.run(arr, tr, pol, out, fst).ok());
        std::vector<double> all, healthy, degraded;
        for (const JobResult &r : out) {
            if (r.rejected)
                continue;
            all.push_back(r.latencySec());
            (r.degraded ? degraded : healthy).push_back(r.latencySec());
        }
        ASSERT_EQ(fst.completedJobs, all.size());
        ASSERT_FALSE(healthy.empty());
        ASSERT_FALSE(degraded.empty());
        EXPECT_EQ(fst.done.p50LatencySec, sortedPercentile(all, 0.50));
        EXPECT_EQ(fst.done.p99LatencySec, sortedPercentile(all, 0.99));
        EXPECT_EQ(fst.done.p999LatencySec, sortedPercentile(all, 0.999));
        EXPECT_EQ(fst.done.maxLatencySec, sortedPercentile(all, 1.0));
        EXPECT_EQ(fst.healthyP50Sec, sortedPercentile(healthy, 0.50));
        EXPECT_EQ(fst.healthyP99Sec, sortedPercentile(healthy, 0.99));
        EXPECT_EQ(fst.degradedP50Sec, sortedPercentile(degraded, 0.50));
        EXPECT_EQ(fst.degradedP99Sec, sortedPercentile(degraded, 0.99));
    }
}

TEST(FaultServe, FleetDeathRejectsInQueueOrder)
{
    // One chip, two classes alternating at t = 0: chip death mid-job
    // rejects the queued jobs in queue (arrival) order across both
    // classes, then the salvaged retry.
    const HksParams &ark = benchmarkByName("ARK");
    ServeSpec sp = oneOpSpec(1);
    sp.classes.push_back(
        {"rotMP", HeWorkload::reduction(2), ark, Dataflow::MP, 1});
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);
    const double c = sim.classServiceSec(0, false);
    std::vector<JobArrival> arr;
    for (std::uint32_t i = 0; i < 6; ++i)
        arr.push_back({0.0, i % 2, i});
    normalizeArrivals(arr);
    fault::FaultTrace tr;
    tr.events.push_back(
        {0.5 * c, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});

    FaultServingSim fs(sim);
    std::vector<JobResult> out;
    FaultServeStats st;
    obs::ScenarioTrace viz;
    ASSERT_TRUE(fs.run(arr, tr, RetryPolicy{}, out, st, &viz).ok());
    std::vector<std::string> rejects;
    for (const obs::TraceMark &m : viz.marks)
        if (m.label.rfind("reject job ", 0) == 0)
            rejects.push_back(m.label);
    const std::vector<std::string> want{"reject job 1", "reject job 2",
                                        "reject job 3", "reject job 4",
                                        "reject job 5", "reject job 0"};
    EXPECT_EQ(rejects, want);
    EXPECT_EQ(st.rejectedJobs, 6u);
    EXPECT_EQ(st.lostJobs, 0u);
}

TEST(FaultServe, TenantAndFaultSeedStreamsAreDisjoint)
{
    const std::uint64_t seed = 9;
    EXPECT_EQ(tenantStreamSeed(seed, 3), fault::deriveSeed(seed, 3));
    EXPECT_EQ(faultStreamSeed(seed, 3),
              fault::deriveSeed(seed, (std::uint64_t{1} << 32) + 3));
    // No tenant index collides with any scenario index: the derived
    // streams can never alias between arrivals and faults.
    for (std::uint64_t t = 0; t < 64; ++t)
        for (std::uint64_t s = 0; s < 64; ++s)
            EXPECT_NE(tenantStreamSeed(seed, t), faultStreamSeed(seed, s))
                << "tenant " << t << " scenario " << s;
}

TEST(ChipEpochs, ChannelAndStallLandOnChipLocalResources)
{
    // Chip 0 of a 2-chip machine, 3 local resources (2 channels + 1
    // pipe): a channel degrade lands on its channel, a stall on every
    // local resource; other chips' events and ChipFail are ignored.
    fault::FaultTrace tr;
    tr.events.push_back(
        {2.0, fault::FaultKind::ChannelDegrade, 0, 1, 0.5, 0.0});
    tr.events.push_back(
        {5.0, fault::FaultKind::TransientStall, 0, 0, 0.25, 1.0});
    tr.events.push_back(
        {3.0, fault::FaultKind::ChannelDegrade, 1, 0, 0.5, 0.0});
    tr.events.push_back({4.0, fault::FaultKind::ChipFail, 0, 0, 1.0, 0.0});
    tr.normalize();

    const sim::RateEpochs ep = fault::buildChipEpochs(tr, 0, 3);
    ASSERT_EQ(ep.off.size(), 4u);
    // Resource 0 (channel 0): stall in, stall out.
    ASSERT_EQ(ep.off[1] - ep.off[0], 2u);
    EXPECT_EQ(ep.at[ep.off[0]], 5.0);
    EXPECT_EQ(ep.mult[ep.off[0]], 0.25);
    EXPECT_EQ(ep.at[ep.off[0] + 1], 6.0);
    EXPECT_EQ(ep.mult[ep.off[0] + 1], 1.0);
    // Resource 1 (channel 1): degrade, then the stall compounds on it.
    ASSERT_EQ(ep.off[2] - ep.off[1], 3u);
    EXPECT_EQ(ep.at[ep.off[1]], 2.0);
    EXPECT_EQ(ep.mult[ep.off[1]], 0.5);
    EXPECT_EQ(ep.at[ep.off[1] + 1], 5.0);
    EXPECT_EQ(ep.mult[ep.off[1] + 1], 0.5 * 0.25);
    EXPECT_EQ(ep.at[ep.off[1] + 2], 6.0);
    EXPECT_EQ(ep.mult[ep.off[1] + 2], 0.5);
    // Resource 2 (pipe): the stall only.
    EXPECT_EQ(ep.off[3] - ep.off[2], 2u);

    // Shifting past the stall: it folds away, while the permanent
    // degrade folds into the state at time 0.
    const sim::RateEpochs shifted = fault::buildChipEpochs(tr, 0, 3, 10.0);
    ASSERT_EQ(shifted.off.size(), 4u);
    EXPECT_EQ(shifted.off[1] - shifted.off[0], 0u);
    ASSERT_EQ(shifted.off[2] - shifted.off[1], 1u);
    EXPECT_EQ(shifted.at[shifted.off[1]], 0.0);
    EXPECT_EQ(shifted.mult[shifted.off[1]], 0.5);
    EXPECT_EQ(shifted.off[3] - shifted.off[2], 0u);

    // A stall-only trace fully expires: the table is empty, so
    // callers can use "empty table" as "unaffected from here on".
    fault::FaultTrace stallOnly;
    stallOnly.events.push_back(
        {5.0, fault::FaultKind::TransientStall, 0, 0, 0.25, 1.0});
    EXPECT_TRUE(fault::buildChipEpochs(stallOnly, 0, 3, 10.0).empty());

    // A horizon drops boundaries at or past it.
    const sim::RateEpochs bounded =
        fault::buildChipEpochs(tr, 0, 3, 0.0, 4.0);
    ASSERT_EQ(bounded.off.size(), 4u);
    EXPECT_EQ(bounded.off[1] - bounded.off[0], 0u);
    EXPECT_EQ(bounded.off[2] - bounded.off[1], 1u);
    EXPECT_EQ(bounded.at[bounded.off[1]], 2.0);
    EXPECT_EQ(bounded.off[3] - bounded.off[2], 0u);
}

TEST(ChipEpochs, HorizonBoundedTableReplaysBitIdentically)
{
    // A replay that finishes before the horizon never reaches the
    // dropped boundaries: bounded and unbounded tables give the same
    // makespan to the bit.
    const HksParams &par = benchmarkByName("ARK");
    RpuConfig chip;
    chip.bandwidthGBps = 4.0;
    ExperimentRunner runner(2);
    const auto exp = runner.experiment(par, Dataflow::OC,
                                       MemoryConfig{chip.dataMemBytes,
                                                    false});
    const sim::CompiledSchedule cs = RpuEngine(chip).compile(exp->graph());
    sim::ReplayRates rates;
    RpuEngine(chip).rates(cs, rates);
    sim::ReplayScratch scratch;
    const double healthy = cs.replay(rates, scratch);

    fault::FaultTrace tr;
    tr.events.push_back({0.3 * healthy, fault::FaultKind::ChannelDegrade,
                         0, 0, 0.5, 0.0});
    tr.events.push_back({1000.0 * healthy,
                         fault::FaultKind::ChannelDegrade, 0, 0, 0.5,
                         0.0});
    tr.normalize();

    const sim::RateEpochs full =
        fault::buildChipEpochs(tr, 0, cs.resourceCount());
    const sim::RateEpochs bounded = fault::buildChipEpochs(
        tr, 0, cs.resourceCount(), 0.0, 10.0 * healthy);
    EXPECT_LT(bounded.at.size(), full.at.size());
    const double mFull = cs.replayPiecewise(rates, full, nullptr, scratch);
    const double mBounded =
        cs.replayPiecewise(rates, bounded, nullptr, scratch);
    EXPECT_EQ(mFull, mBounded);
    EXPECT_GT(mFull, healthy);
}

TEST(ChipEpochs, ShiftedFutureDegradeIsKept)
{
    // (at - shift) + shift rounds below `at` for this pair: testing
    // activity back in the absolute clock dropped the degrade and left
    // the table empty. The local clock keeps it at its shifted edge.
    const double at = 47.075213249023243;
    const double shift = 7.435061503109555;
    ASSERT_LT((at - shift) + shift, at);
    fault::FaultTrace tr;
    tr.events.push_back(
        {at, fault::FaultKind::ChannelDegrade, 0, 0, 0.5, 0.0});
    const sim::RateEpochs ep = fault::buildChipEpochs(tr, 0, 2, shift);
    ASSERT_EQ(ep.off.size(), 3u);
    ASSERT_EQ(ep.off[1] - ep.off[0], 1u);
    EXPECT_EQ(ep.at[0], at - shift);
    EXPECT_EQ(ep.mult[0], 0.5);
    EXPECT_EQ(ep.off[2] - ep.off[1], 0u);
}

TEST(ChipEpochs, ShiftedFutureStallEnds)
{
    // Here the stall's end rounds back below its absolute end, so the
    // stall read as still active at its own end edge and never ended.
    const double at = 98.24211088259253;
    const double dur = 4.363314749529641;
    const double shift = 28.421950368700585;
    const double end = at + dur;
    ASSERT_LT((end - shift) + shift, end);
    fault::FaultTrace tr;
    tr.events.push_back(
        {at, fault::FaultKind::TransientStall, 0, 0, 0.25, dur});
    const sim::RateEpochs ep = fault::buildChipEpochs(tr, 0, 1, shift);
    ASSERT_EQ(ep.at.size(), 2u);
    EXPECT_EQ(ep.at[0], at - shift);
    EXPECT_EQ(ep.mult[0], 0.25);
    EXPECT_EQ(ep.at[1], end - shift);
    EXPECT_EQ(ep.mult[1], 1.0);
}

TEST(ChromeTrace, CutSegmentClampsStraddlingOps)
{
    // An op straddling the segment cut renders only up to the cut; an
    // op starting past the cut is dropped.
    obs::ScenarioTrace t;
    t.resourceNames = {"r0"};
    obs::TraceSegment seg;
    seg.cutSec = 0.5;
    obs::TraceOp a;
    a.ready = a.start = 0.25;
    a.finish = a.visible = 1.0;
    obs::TraceOp b;
    b.ready = b.start = 0.75;
    b.finish = b.visible = 0.9;
    seg.buf.ops = {a, b};
    seg.buf.makespan = 1.0;
    t.segments.push_back(std::move(seg));

    std::ostringstream os;
    obs::writeChromeTrace(os, t);
    const std::string s = os.str();
    // 0.25 s to the cut = 250000 us; the unclamped 0.75 s duration
    // (and op b, whose ts would also be 750000 us) must not appear.
    EXPECT_NE(s.find("250000.000000000"), std::string::npos);
    EXPECT_EQ(s.find("750000.000000000"), std::string::npos);
}

} // namespace
