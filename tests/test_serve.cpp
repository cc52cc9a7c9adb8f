/**
 * @file
 * Tests for the serving layer: seeded Poisson arrival determinism and
 * tenant-stream independence, spec/stream validation, bit-identity of
 * serving runs across repeats and estimator thread counts, the
 * batch-target-1 scheduler against a hand-rolled sequential reference
 * (per-op accumulation over standalone experiments and an LRU
 * replica), cross-layer agreement with simulateWorkload for a lone
 * cold job, gang-scheduled classes against a sharded-replay
 * reference, traced per-job segments, the batching throughput win at
 * saturation, EvalCache sharing across simulators, and the healthy
 * loop against the pre-merge loop kept in tests/legacy_serving.h on
 * randomized fleets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <list>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "legacy_serving.h"

#include "obs/chrome_trace.h"
#include "rpu/experiment.h"
#include "rpu/workload.h"
#include "serve/arrivals.h"
#include "serve/serving.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"
#include "tune/eval_cache.h"

using namespace ciflow;
using namespace ciflow::serve;

namespace
{

/**
 * Two-class serving spec on ARK under the OC dataflow at a starved
 * bandwidth — the configuration where evk streaming dominates and a
 * warm key cache pays the most (miss/hit runtime ratio > 3x).
 */
ServeSpec
twoClassSpec(std::size_t chips, std::size_t targetBatch)
{
    const HksParams &par = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce8", HeWorkload::reduction(8), par, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec4", HeWorkload::matVec(4), par, Dataflow::OC, 1});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = chips;
    sp.fleet.keyCacheBytes = par.evkBytes() * 8;
    sp.batch.targetBatch = targetBatch;
    return sp;
}

/** A class-alternating all-at-t=0 stream (tenant i keeps sort order). */
std::vector<JobArrival>
saturatedStream(std::size_t n)
{
    std::vector<JobArrival> arr;
    for (std::size_t i = 0; i < n; ++i)
        arr.push_back({0.0, static_cast<std::uint32_t>(i % 2),
                       static_cast<std::uint32_t>(i)});
    normalizeArrivals(arr);
    return arr;
}

bool
sameResults(const std::vector<JobResult> &a,
            const std::vector<JobResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const JobResult &x = a[i], &y = b[i];
        if (x.arriveSec != y.arriveSec || x.startSec != y.startSec ||
            x.finishSec != y.finishSec || x.klass != y.klass ||
            x.tenant != y.tenant || x.chip != y.chip ||
            x.batch != y.batch || x.warmStart != y.warmStart)
            return false;
    }
    return true;
}

/** FNV-1a 64 of every JobResult field and every ServeStats field,
 * doubles as hex floats: equal runs hash equal. */
std::uint64_t
runHash(const std::vector<JobResult> &v, const ServeStats &st)
{
    std::string s;
    char line[512];
    for (const JobResult &r : v) {
        std::snprintf(line, sizeof line, "%a %a %a %u %u %u %u %d %u %d %d\n",
                      r.arriveSec, r.startSec, r.finishSec, r.klass,
                      r.tenant, r.chip, r.batch,
                      static_cast<int>(r.warmStart), r.retries,
                      static_cast<int>(r.rejected),
                      static_cast<int>(r.degraded));
        s += line;
    }
    std::snprintf(line, sizeof line,
                  "%zu %zu %zu %zu %zu %zu %zu %a %a %a %a %a %a %a\n",
                  st.jobs, st.batches, st.batchedJobs, st.warmJobs,
                  st.keyCacheHitOps, st.totalOps, st.maxQueueDepth,
                  st.makespanSec, st.qps, st.meanLatencySec,
                  st.p50LatencySec, st.p99LatencySec, st.p999LatencySec,
                  st.maxLatencySec);
    s += line;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Arrivals, SeededStreamsAreBitReproducible)
{
    ArrivalSpec as;
    as.horizonSec = 0.25;
    as.tenants.push_back({200.0, {1.0, 3.0}});
    as.tenants.push_back({50.0, {2.0, 1.0}});
    const auto a = poissonArrivals(as, 7);
    const auto b = poissonArrivals(as, 7);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(serializeArrivals(a), serializeArrivals(b));
    EXPECT_TRUE(checkArrivals(a, 2).ok());

    const auto c = poissonArrivals(as, 8);
    EXPECT_NE(serializeArrivals(a), serializeArrivals(c));
}

TEST(Arrivals, TenantStreamsAreIndependent)
{
    // Adding a third tenant must not perturb the first two: each
    // tenant draws from its own derived generator.
    ArrivalSpec two;
    two.horizonSec = 0.2;
    two.tenants.push_back({150.0, {1.0}});
    two.tenants.push_back({80.0, {1.0}});
    ArrivalSpec three = two;
    three.tenants.push_back({300.0, {1.0}});

    const auto a = poissonArrivals(two, 42);
    const auto b = poissonArrivals(three, 42);
    const auto only = [](const std::vector<JobArrival> &v,
                         std::uint32_t t) {
        std::vector<JobArrival> out;
        for (const JobArrival &x : v)
            if (x.tenant == t)
                out.push_back(x);
        return out;
    };
    for (std::uint32_t t : {0u, 1u})
        EXPECT_EQ(serializeArrivals(only(a, t)),
                  serializeArrivals(only(b, t)))
            << "tenant " << t;
}

TEST(Arrivals, CheckRejectsMalformedStreams)
{
    std::vector<JobArrival> ok{{0.1, 0, 0}, {0.2, 1, 0}};
    EXPECT_TRUE(checkArrivals(ok, 2).ok());

    std::vector<JobArrival> unsorted{{0.2, 0, 0}, {0.1, 0, 0}};
    EXPECT_EQ(checkArrivals(unsorted, 2).code,
              sim::ErrorCode::BadServeSpec);

    std::vector<JobArrival> badClass{{0.1, 5, 0}};
    EXPECT_EQ(checkArrivals(badClass, 2).code,
              sim::ErrorCode::BadServeSpec);

    std::vector<JobArrival> negative{{-0.5, 0, 0}};
    EXPECT_EQ(checkArrivals(negative, 2).code,
              sim::ErrorCode::BadServeSpec);
}

TEST(Serve, CheckSpecRejectsDegenerateSpecs)
{
    ServeSpec sp = twoClassSpec(1, 1);
    EXPECT_TRUE(checkSpec(sp).ok());

    ServeSpec empty = sp;
    empty.classes.clear();
    EXPECT_EQ(checkSpec(empty).code, sim::ErrorCode::BadServeSpec);

    ServeSpec zeroBatch = sp;
    zeroBatch.batch.targetBatch = 0;
    EXPECT_EQ(checkSpec(zeroBatch).code, sim::ErrorCode::BadServeSpec);

    ServeSpec wideGang = sp;
    wideGang.classes[0].shards = 4; // fleet has 1 chip
    EXPECT_EQ(checkSpec(wideGang).code, sim::ErrorCode::BadServeSpec);

    ServeSpec badOverride = sp;
    badOverride.fleet.chipBandwidthGBps = {8.0, 16.0}; // 1 chip
    EXPECT_EQ(checkSpec(badOverride).code,
              sim::ErrorCode::BadServeSpec);

    // Gang classes ship values over the interconnect, so it must pass
    // shard::checkInterconnect; a fleet with no gang never uses it.
    ServeSpec nanLink = sp;
    nanLink.fleet.chips = 2;
    nanLink.fleet.interconnect.latencySec =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(checkSpec(nanLink).ok());
    nanLink.classes[0].shards = 2;
    const sim::Error err = checkSpec(nanLink);
    EXPECT_EQ(err.code, sim::ErrorCode::BadServeSpec);
    EXPECT_NE(err.context.find("link latency"), std::string::npos)
        << err.context;

    // Gang classes partition with the fleet's load cap: NaN or a
    // negative tolerance is rejected, +inf (no cap) is valid, and a
    // fleet with no gang never reads it.
    ServeSpec badTol = sp;
    badTol.fleet.chips = 2;
    badTol.fleet.imbalanceTol = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(checkSpec(badTol).ok());
    badTol.classes[0].shards = 2;
    const sim::Error nanTol = checkSpec(badTol);
    EXPECT_EQ(nanTol.code, sim::ErrorCode::BadServeSpec);
    EXPECT_NE(nanTol.context.find("imbalanceTol"), std::string::npos)
        << nanTol.context;
    badTol.fleet.imbalanceTol = -5.0;
    EXPECT_EQ(checkSpec(badTol).code, sim::ErrorCode::BadServeSpec);
    badTol.fleet.imbalanceTol = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(checkSpec(badTol).ok());
    badTol.fleet.imbalanceTol = 0.0;
    EXPECT_TRUE(checkSpec(badTol).ok());
}

TEST(Serve, LoneColdJobMatchesWorkloadLayer)
{
    // One job arriving at t=0 on an idle chip is exactly the workload
    // layer's single-workload simulation: same per-op hit/miss
    // runtimes, same LRU, same accumulation order.
    ServeSpec sp = twoClassSpec(1, 1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);

    std::vector<JobArrival> arr{{0.0, 0, 0}};
    std::vector<JobResult> out;
    ServeStats st;
    ASSERT_TRUE(sim.run(arr, out, st).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].warmStart);
    EXPECT_EQ(out[0].startSec, 0.0);

    const KeyCacheConfig kc{sp.fleet.keyCacheBytes};
    const WorkloadStats ws = simulateWorkload(
        runner, sp.classes[0].workload, sp.classes[0].params,
        sp.classes[0].dataflow,
        MemoryConfig{sp.fleet.chip.dataMemBytes, false},
        sp.fleet.chip.bandwidthGBps, kc);
    EXPECT_EQ(out[0].finishSec, ws.runtime);
    EXPECT_EQ(st.keyCacheHitOps, ws.keyCacheHits);
    EXPECT_EQ(st.totalOps, ws.keySwitches);
    EXPECT_EQ(st.jobs, 1u);
    EXPECT_EQ(st.qps, 1.0 / ws.runtime);
}

TEST(Serve, BatchTargetOneMatchesSequentialReference)
{
    // batch target 1 on one chip is plain FIFO: replicate it with
    // standalone per-op experiments and an LRU replica, accumulating
    // finishes op by op exactly as the scheduler does.
    ServeSpec sp = twoClassSpec(1, 1);
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);

    ArrivalSpec as;
    as.horizonSec = 0.4;
    as.tenants.push_back({120.0, {1.0, 1.0}});
    as.tenants.push_back({60.0, {3.0, 1.0}});
    const auto arr = poissonArrivals(as, 3);
    ASSERT_GT(arr.size(), 10u);

    std::vector<JobResult> out;
    ServeStats st;
    ASSERT_TRUE(sim.run(arr, out, st).ok());

    // Reference per-op runtimes from the experiment layer.
    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    MemoryConfig hitMem = missMem;
    hitMem.evkOnChip = true;
    std::vector<double> missRt, hitRt;
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        RpuConfig cfg = sp.fleet.chip;
        missRt.push_back(runner
                             .experiment(sp.classes[k].params,
                                         sp.classes[k].dataflow,
                                         missMem)
                             ->simulateRuntime(cfg));
        hitRt.push_back(runner
                            .experiment(sp.classes[k].params,
                                        sp.classes[k].dataflow, hitMem)
                            ->simulateRuntime(cfg));
    }

    // Reference scheduler: FIFO, one chip, LRU key cache flushed on
    // class switch (warm = previous job ran the same class).
    const auto keyId = [](const HeOp &op) {
        return op.kind == HeOpKind::Multiply ? -1L : op.rotation;
    };
    double freeAt = 0.0;
    long last = -1;
    std::list<long> lru;
    for (std::size_t j = 0; j < arr.size(); ++j) {
        const std::size_t k = arr[j].klass;
        const HeWorkload &wl = sp.classes[k].workload;
        const std::uint64_t evk = sp.classes[k].params.evkBytes();
        const std::size_t slots = static_cast<std::size_t>(
            sp.fleet.keyCacheBytes / evk);
        if (last != static_cast<long>(k))
            lru.clear(); // class switch flushes the key cache
        double t = std::max(arr[j].atSec, freeAt);
        const double start = t;
        for (const HeOp &op : wl.ops) {
            bool hit = false;
            for (auto it = lru.begin(); it != lru.end(); ++it)
                if (*it == keyId(op)) {
                    lru.erase(it);
                    hit = true;
                    break;
                }
            lru.push_front(keyId(op));
            if (lru.size() > slots)
                lru.pop_back();
            t += hit ? hitRt[k] : missRt[k];
        }
        EXPECT_EQ(out[j].startSec, start) << "job " << j;
        EXPECT_EQ(out[j].finishSec, t) << "job " << j;
        freeAt = t;
        last = static_cast<long>(k);
    }
    EXPECT_EQ(st.batches, arr.size());
    EXPECT_EQ(st.batchedJobs, 0u);
}

TEST(Serve, BitIdenticalAcrossRepeatsAndThreadCounts)
{
    ServeSpec sp = twoClassSpec(2, 4);
    ArrivalSpec as;
    as.horizonSec = 0.3;
    as.tenants.push_back({150.0, {1.0, 2.0}});
    as.tenants.push_back({90.0, {1.0, 0.5}});
    const auto arr = poissonArrivals(as, 11);
    ASSERT_GT(arr.size(), 20u);

    std::vector<std::vector<JobResult>> results;
    std::vector<ServeStats> statss;
    for (std::size_t threads : {1u, 2u, 5u}) {
        ExperimentRunner runner(threads);
        ServingSim sim(sp, runner);
        std::vector<JobResult> out;
        ServeStats st;
        ASSERT_TRUE(sim.run(arr, out, st).ok());
        // Same simulator, same stream, run again: identical.
        std::vector<JobResult> out2;
        ServeStats st2;
        ASSERT_TRUE(sim.run(arr, out2, st2).ok());
        EXPECT_TRUE(sameResults(out, out2));
        EXPECT_EQ(st.qps, st2.qps);
        results.push_back(std::move(out));
        statss.push_back(st);
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_TRUE(sameResults(results[0], results[i]))
            << "thread variant " << i;
        EXPECT_EQ(statss[0].qps, statss[i].qps);
        EXPECT_EQ(statss[0].p50LatencySec, statss[i].p50LatencySec);
        EXPECT_EQ(statss[0].p99LatencySec, statss[i].p99LatencySec);
        EXPECT_EQ(statss[0].p999LatencySec, statss[i].p999LatencySec);
    }
}

TEST(Serve, BatchingBeatsNoBatchingAtSaturation)
{
    const auto arr = saturatedStream(160);
    ExperimentRunner runner(2);

    ServeStats noBatch, batched;
    std::vector<JobResult> out;
    {
        ServingSim sim(twoClassSpec(1, 1), runner);
        ASSERT_TRUE(sim.run(arr, out, noBatch).ok());
        EXPECT_EQ(noBatch.batchedJobs, 0u);
    }
    {
        ServingSim sim(twoClassSpec(1, 8), runner);
        ASSERT_TRUE(sim.run(arr, out, batched).ok());
        EXPECT_GT(batched.batchedJobs, 100u);
        EXPECT_GT(batched.warmJobs, batched.jobs / 2);
    }
    // The class-alternating stream defeats FIFO key reuse entirely;
    // an 8-deep batch runs one cold leader and seven warm followers.
    EXPECT_GT(batched.qps, 1.5 * noBatch.qps);
    EXPECT_LT(batched.p99LatencySec, noBatch.p99LatencySec);
}

TEST(Serve, TracedSegmentsMatchJobLatencies)
{
    // Single-op class: each job renders as exactly one trace segment
    // whose buffer makespan is the job's service time.
    const HksParams &par = benchmarkByName("BTS1");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce2", HeWorkload::reduction(2), par, Dataflow::MP, 1});
    sp.fleet.chip.bandwidthGBps = 8.0;
    sp.fleet.chips = 2;
    sp.fleet.keyCacheBytes = par.evkBytes() * 2;
    sp.batch.targetBatch = 2;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);

    std::vector<JobArrival> arr{{0.0, 0, 0}, {0.0, 0, 1}, {0.001, 0, 2}};
    normalizeArrivals(arr);
    std::vector<JobResult> out;
    ServeStats st;
    obs::ScenarioTrace viz;
    ASSERT_TRUE(sim.run(arr, out, st, &viz).ok());

    ASSERT_EQ(viz.segments.size(), 3u); // one op per job
    const std::size_t perChip =
        viz.resourceNames.size() / sp.fleet.chips;
    ASSERT_GT(perChip, 0u);
    // Segments are emitted in dispatch order, which here is arrival
    // order: each job's segment starts at its startSec and its traced
    // makespan reproduces the scheduler's own finish accumulation
    // (finish = start + makespan, the identical expression) — so the
    // comparison is exact, not approximate.
    for (std::size_t i = 0; i < out.size(); ++i) {
        const obs::TraceSegment &seg = viz.segments[i];
        EXPECT_EQ(seg.resourceBase % perChip, 0u);
        EXPECT_EQ(seg.baseSec, out[i].startSec) << "job " << i;
        EXPECT_EQ(out[i].finishSec, out[i].startSec + seg.buf.makespan)
            << "job " << i;
    }
    // The late job landed on the second chip's track block.
    EXPECT_EQ(viz.segments[2].resourceBase, perChip);
    // Chip-qualified track names and batch marks made it out.
    EXPECT_EQ(viz.resourceNames[0].rfind("chip0/", 0), 0u);
    ASSERT_GE(viz.marks.size(), st.batches);
}

TEST(Serve, GangClassMatchesShardedReference)
{
    const HksParams &par = benchmarkByName("BTS1");
    ServeSpec sp;
    sp.classes.push_back(
        {"gang", HeWorkload::reduction(4), par, Dataflow::MP, 2});
    sp.fleet.chip.bandwidthGBps = 8.0;
    sp.fleet.chips = 2;
    sp.batch.targetBatch = 1;
    ExperimentRunner runner(2);
    ServingSim sim(sp, runner);

    std::vector<JobArrival> arr{{0.0, 0, 0}};
    std::vector<JobResult> out;
    ServeStats st;
    ASSERT_TRUE(sim.run(arr, out, st).ok());
    ASSERT_EQ(out.size(), 1u);

    // Reference: the sharded compiled replay of the miss graph (no
    // key cache, so every op misses), accumulated per op.
    const MemoryConfig mem{sp.fleet.chip.dataMemBytes, false};
    const auto exp = runner.experiment(par, Dataflow::MP, mem);
    const std::vector<double> w =
        shard::taskWeights(exp->graph(), sp.fleet.chip);
    const shard::Partition part = shard::partitionGraph(
        exp->graph(),
        shard::placementShardSpec(
            par, 2, shard::PartitionStrategy::MinCutGreedy, 0.10),
        w);
    const shard::ShardedEngine eng(sp.fleet.chip,
                                   sp.fleet.interconnect);
    const double opRt = eng.replayRuntime(eng.compile(exp->graph(), part));
    double t = 0.0;
    for (std::size_t i = 0; i < sp.classes[0].workload.ops.size(); ++i)
        t += opRt;
    EXPECT_EQ(out[0].finishSec, t);
}

TEST(Serve, GoldenStreamPin)
{
    // An overloaded three-class fleet (a gang class included) with both
    // batch caps active: the queue runs thousands deep. Every result
    // and stats field is pinned by hash, so any change to admission
    // order, batching or pricing shows up here.
    const HksParams &ark = benchmarkByName("ARK");
    ServeSpec sp = twoClassSpec(3, 8);
    sp.classes.push_back({"gang2", HeWorkload::reduction(2),
                          benchmarkByName("BTS1"), Dataflow::MP, 2});
    sp.fleet.keyCacheBytes = ark.evkBytes() * 6;
    ExperimentRunner runner(2);
    ServingSim probe(sp, runner);
    sp.batch.targetBatchSec = 5.0 * probe.classServiceSec(0, true);
    ServingSim sim(sp, runner);

    ArrivalSpec as;
    as.tenants.push_back({16.0, {3.0, 1.0, 1.0}});
    as.tenants.push_back({16.0, {1.0, 3.0, 1.0}});
    as.tenants.push_back({8.0, {1.0, 1.0, 2.0}});
    as.horizonSec = 100.0;
    const std::vector<JobArrival> arr = poissonArrivals(as, 2024);

    std::vector<JobResult> out;
    ServeStats st;
    ASSERT_TRUE(sim.run(arr, out, st).ok());
    EXPECT_GE(st.maxQueueDepth, 1000u);
    EXPECT_GT(st.batchedJobs, 0u);
    EXPECT_EQ(runHash(out, st), 0xac53a3d5638b86c1ull)
        << std::hex << "0x" << runHash(out, st);
}

TEST(Serve, EvalCacheSharedAcrossSimulators)
{
    ServeSpec sp = twoClassSpec(1, 4);
    ExperimentRunner runner(2);
    tune::EvalCache cache;

    ServingSim first(sp, runner, &cache);
    EXPECT_GT(first.estimatorEvals(), 0u);
    ServingSim second(sp, runner, &cache);
    EXPECT_EQ(second.estimatorEvals(), 0u); // fully served by cache
    for (std::size_t k = 0; k < sp.classes.size(); ++k)
        for (bool warm : {false, true})
            EXPECT_EQ(first.classServiceSec(k, warm),
                      second.classServiceSec(k, warm))
                << "class " << k << " warm " << warm;
    EXPECT_GE(cache.hits(), 4u);
}

/**
 * The price table the pre-merge healthy loop read, rebuilt from public
 * APIs: per-op runtimes from HksExperiment::simulateRuntime at every
 * distinct chip bandwidth (gang classes: the sharded compiled replay
 * of the partitioned graph), key-cache masks from an LRU replica run
 * cold and then once more on the same state, and whole-job service
 * sums accumulated in op order.
 */
legacy::Prices
referencePrices(const ServeSpec &sp, ExperimentRunner &runner)
{
    std::vector<double> uniqBw = sp.fleet.chipBandwidthGBps;
    if (uniqBw.empty())
        uniqBw.push_back(sp.fleet.chip.bandwidthGBps);
    std::sort(uniqBw.begin(), uniqBw.end());
    uniqBw.erase(std::unique(uniqBw.begin(), uniqBw.end()), uniqBw.end());
    legacy::Prices p;
    p.chipBw.assign(sp.fleet.chips, 0);
    for (std::size_t c = 0; c < sp.fleet.chipBandwidthGBps.size(); ++c)
        p.chipBw[c] = static_cast<std::size_t>(
            std::lower_bound(uniqBw.begin(), uniqBw.end(),
                             sp.fleet.chipBandwidthGBps[c]) -
            uniqBw.begin());

    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    MemoryConfig hitMem = missMem;
    hitMem.evkOnChip = true;
    for (const JobClass &jc : sp.classes) {
        legacy::ClassPrices m;
        m.shards = jc.shards;
        const std::size_t slots = static_cast<std::size_t>(
            sp.fleet.keyCacheBytes / jc.params.evkBytes());
        std::list<long> lru; // front = most recent
        for (std::vector<std::uint8_t> *mask : {&m.coldMask, &m.warmMask})
            for (const HeOp &op : jc.workload.ops) {
                const long id =
                    op.kind == HeOpKind::Multiply ? -1L : op.rotation;
                const auto it = std::find(lru.begin(), lru.end(), id);
                const bool hit = it != lru.end();
                if (hit)
                    lru.erase(it);
                lru.push_front(id);
                if (lru.size() > slots)
                    lru.pop_back();
                mask->push_back(hit ? 1 : 0);
            }
        for (std::uint8_t h : m.coldMask)
            m.coldHits += h;
        for (std::uint8_t h : m.warmMask)
            m.warmHits += h;
        for (int variant = 0; variant < 2; ++variant) {
            const auto exp = runner.experiment(jc.params, jc.dataflow,
                                               variant ? hitMem : missMem);
            std::vector<double> &rt = variant ? m.hitRt : m.missRt;
            for (double bw : uniqBw) {
                RpuConfig cfg = sp.fleet.chip;
                cfg.bandwidthGBps = bw;
                if (jc.shards == 1) {
                    rt.push_back(exp->simulateRuntime(cfg));
                    continue;
                }
                const shard::Partition part = shard::partitionGraph(
                    exp->graph(),
                    shard::placementShardSpec(jc.params, jc.shards,
                                              sp.fleet.strategy,
                                              sp.fleet.imbalanceTol),
                    shard::taskWeights(exp->graph(), cfg));
                const shard::ShardedEngine eng(cfg, sp.fleet.interconnect);
                rt.push_back(eng.replayRuntime(eng.compile(*exp, part)));
            }
        }
        m.coldSvc.assign(uniqBw.size(), 0.0);
        m.warmSvc.assign(uniqBw.size(), 0.0);
        for (std::size_t b = 0; b < uniqBw.size(); ++b)
            for (std::size_t i = 0; i < m.coldMask.size(); ++i) {
                m.coldSvc[b] += m.coldMask[i] ? m.hitRt[b] : m.missRt[b];
                m.warmSvc[b] += m.warmMask[i] ? m.hitRt[b] : m.missRt[b];
            }
        p.models.push_back(std::move(m));
    }
    return p;
}

TEST(Serve, HealthyLoopMatchesLegacyLoopOnRandomFleets)
{
    // Random fleets of 1-4 chips, heterogeneous bandwidths or a gang
    // class, batch targets 1-8 with and without a duration cap, at
    // offered loads from light to overloaded, with and without job
    // deadlines: every JobResult and ServeStats field equals the
    // pre-merge loop's, bit for bit.
    const HksParams &ark = benchmarkByName("ARK");
    const HksParams &bts = benchmarkByName("BTS1");
    const std::vector<HeWorkload> shapes{
        HeWorkload::reduction(2), HeWorkload::reduction(8),
        HeWorkload::matVec(3), HeWorkload::matVec(4)};
    const std::vector<double> bws{4.0, 8.0, 16.0};
    std::mt19937_64 rng(20261017);
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    ExperimentRunner runner(2);
    bool sawGang = false, sawHetero = false, sawCap = false;
    bool sawDeadlines = false;
    for (int trial = 0; trial < 16; ++trial) {
        ServeSpec sp;
        sp.fleet.chips = 1 + pick(4);
        sp.fleet.chip.bandwidthGBps = bws[pick(bws.size())];
        const bool hetero = sp.fleet.chips > 1 && pick(2) == 1;
        if (hetero)
            for (std::size_t c = 0; c < sp.fleet.chips; ++c)
                sp.fleet.chipBandwidthGBps.push_back(bws[pick(bws.size())]);
        const std::size_t classes = 1 + pick(3);
        for (std::size_t k = 0; k < classes; ++k) {
            const bool onArk = pick(2) == 1;
            sp.classes.push_back({std::to_string(k),
                                  shapes[pick(shapes.size())],
                                  onArk ? ark : bts,
                                  onArk ? Dataflow::OC : Dataflow::MP, 1});
        }
        if (!hetero && sp.fleet.chips > 1 && pick(2) == 1)
            sp.classes.push_back({"gang", HeWorkload::reduction(4), bts,
                                  Dataflow::MP, 2 + pick(sp.fleet.chips - 1)});
        sp.fleet.keyCacheBytes = ark.evkBytes() * pick(9);
        sp.batch.targetBatch = 1 + pick(8);
        const legacy::Prices p = referencePrices(sp, runner);
        if (pick(2) == 1)
            sp.batch.targetBatchSec =
                static_cast<double>(1 + pick(4)) * p.models[0].warmSvc[0];

        // Offered load 0.5-2x of the fleet's cold-service capacity,
        // about 150 jobs.
        double meanSvc = 0.0;
        for (const legacy::ClassPrices &m : p.models)
            meanSvc += m.coldSvc[0] / static_cast<double>(p.models.size());
        const double load = 0.5 + 0.5 * static_cast<double>(pick(4));
        const double rate =
            load * static_cast<double>(sp.fleet.chips) / meanSvc;
        ArrivalSpec as;
        as.horizonSec = 150.0 / rate;
        for (std::uint32_t tn = 0; tn < 2; ++tn)
            as.tenants.push_back(
                {rate / 2.0, std::vector<double>(sp.classes.size(), 1.0)});
        std::vector<JobArrival> arr = poissonArrivals(as, rng());
        ASSERT_FALSE(arr.empty());
        // The healthy loop ignores deadlines, however tight.
        const bool deadlines = pick(2) == 1;
        if (deadlines)
            for (JobArrival &a : arr)
                a.deadlineSec = 1e-9;

        ServingSim sim(sp, runner);
        std::vector<JobResult> out, ref;
        ServeStats st, rst;
        ASSERT_TRUE(sim.run(arr, out, st).ok());
        legacy::serveRun(sp, p, arr, ref, rst);

        SCOPED_TRACE(testing::Message() << "trial " << trial);
        ASSERT_EQ(out.size(), ref.size());
        for (std::size_t j = 0; j < out.size(); ++j) {
            const JobResult &a = out[j], &b = ref[j];
            const bool same =
                a.arriveSec == b.arriveSec && a.startSec == b.startSec &&
                a.finishSec == b.finishSec && a.klass == b.klass &&
                a.tenant == b.tenant && a.chip == b.chip &&
                a.batch == b.batch && a.warmStart == b.warmStart &&
                a.retries == b.retries && a.rejected == b.rejected &&
                a.degraded == b.degraded;
            ASSERT_TRUE(same) << "job " << j;
        }
        EXPECT_EQ(st.jobs, rst.jobs);
        EXPECT_EQ(st.batches, rst.batches);
        EXPECT_EQ(st.batchedJobs, rst.batchedJobs);
        EXPECT_EQ(st.warmJobs, rst.warmJobs);
        EXPECT_EQ(st.keyCacheHitOps, rst.keyCacheHitOps);
        EXPECT_EQ(st.totalOps, rst.totalOps);
        EXPECT_EQ(st.maxQueueDepth, rst.maxQueueDepth);
        EXPECT_EQ(st.makespanSec, rst.makespanSec);
        EXPECT_EQ(st.qps, rst.qps);
        EXPECT_EQ(st.meanLatencySec, rst.meanLatencySec);
        EXPECT_EQ(st.p50LatencySec, rst.p50LatencySec);
        EXPECT_EQ(st.p99LatencySec, rst.p99LatencySec);
        EXPECT_EQ(st.p999LatencySec, rst.p999LatencySec);
        EXPECT_EQ(st.maxLatencySec, rst.maxLatencySec);
        sawGang = sawGang || sp.classes.back().shards > 1;
        sawHetero = sawHetero || hetero;
        sawCap = sawCap || sp.batch.targetBatchSec > 0.0;
        sawDeadlines = sawDeadlines || deadlines;
    }
    // The seed covers every axis.
    EXPECT_TRUE(sawGang);
    EXPECT_TRUE(sawHetero);
    EXPECT_TRUE(sawCap);
    EXPECT_TRUE(sawDeadlines);
}

} // namespace
