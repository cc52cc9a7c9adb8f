/**
 * @file
 * Request-level serving study: multi-tenant job streams against an
 * RPU fleet, emitted to BENCH_serve.json for the CI artifact trail.
 *
 * Five sections. The first four are deterministic (seeded arrival
 * streams, pure arithmetic scheduling over compiled-replay prices);
 * the fifth times the loops themselves:
 *
 *  1. Determinism: the same seeded Poisson stream served twice and
 *     across estimator thread counts must produce byte-identical
 *     serialized JobResults — asserted here before anything else and
 *     gated in CI (.deterministic_identical == true).
 *
 *  2. Serving matrix: {open-loop Poisson, trace-driven} x {1 chip,
 *     4 chips} rows with nearest-rank p50/p99/p999 latency, sustained
 *     QPS, warm-start fraction and peak queue depth.
 *
 *  3. Admission batching at saturation: p4db-style target-8 batching
 *     vs pure FIFO on a saturated alternating-class stream. One cold
 *     leader warms the key cache for seven followers; CI gates
 *     .batching_qps_win >= 1.5 (measured ~2.6x: ARK under OC at
 *     4 GB/s has a >3x evk-miss/hit runtime ratio).
 *
 *  4. Serving under faults: the same fleet plus a gang-scheduled
 *     class, driven by a seeded fault trace (stalls sampled from the
 *     disjoint faultStreamSeed stream, chip failures and channel
 *     degrades scripted mid-run so three of four chips die and the
 *     gang class fails over: planFailover plus a rebind).
 *     Before any number is reported, two invariants are asserted:
 *     the zero-fault fault-serving run is byte-identical to the
 *     healthy serving loop (.zero_fault_serving_identical), and no
 *     arrival is silently lost (.lost_jobs == 0) — every job either
 *     completes or is explicitly rejected. The degraded-tail SLO
 *     headline (.degraded_p99_over_healthy_p99) and the failover
 *     recovery time (.fault_recovery_sec) are CI-gated to stay
 *     present and finite, and the degraded run's Perfetto trace is
 *     written to serve_degraded.trace.json for the artifact trail.
 *
 *  5. Scaling along the jobs axis: both serving loops at 10^4, 10^5
 *     and 10^6 jobs in one process, on perfbench's serve_faults fleet
 *     (two ARK/OC classes plus a 4-wide gang class on 4 chips) at 40
 *     jobs/s offered. Stalls arrive with a fixed 30 s MTBF, so the
 *     trace grows with the horizon; chip 0's channel 0 degrades at
 *     15 s and chip 3 dies at 30 s. Each row reports the trace's
 *     event count and each loop's wall-clock ns per job (best of a
 *     few runs). CI gates .fault_loop_scaling — the fault loop's
 *     10^6 / 10^4 ns/job ratio — at <= 3: a loop whose per-job cost
 *     grows with the trace shows here first. The healthy loop's ratio
 *     is reported ungated.
 *
 * Exits nonzero when a gate fails: a serving run that drifts across
 * thread counts, a batching path that lost its win, a zero-fault run
 * that diverged from the healthy loop, a lost job, or a fault loop
 * that stopped scaling is a regression, not a warning.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "fault/fault_trace.h"
#include "obs/chrome_trace.h"
#include "serve/fault_serving.h"
#include "serve/serving.h"

using namespace ciflow;
using namespace ciflow::serve;

namespace
{

/**
 * The two-class serving spec every section uses: ARK-shaped jobs
 * under the OC dataflow on bandwidth-starved (4 GB/s) chips — the
 * regime where evk streaming dominates and a warm key cache pays the
 * most — with an 8-key per-chip cache.
 */
ServeSpec
servingSpec(std::size_t chips, std::size_t targetBatch)
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

/** Three-tenant open-loop mix, load scaled with the fleet size. */
ArrivalSpec
poissonSpec(std::size_t chips)
{
    ArrivalSpec as;
    as.tenants.push_back({1.2 * static_cast<double>(chips), {3.0, 1.0}});
    as.tenants.push_back({1.2 * static_cast<double>(chips), {1.0, 3.0}});
    as.tenants.push_back({1.2 * static_cast<double>(chips), {1.0, 1.0}});
    as.horizonSec = 20.0;
    return as;
}

/**
 * Trace-driven stand-in for a replayed production stream: periodic
 * bursts of mixed-class jobs from round-robin tenants.
 */
std::vector<JobArrival>
burstTrace(std::size_t chips)
{
    std::vector<JobArrival> arr;
    for (std::size_t b = 0; b < 16; ++b)
        for (std::size_t j = 0; j < 3 * chips; ++j)
            arr.push_back({0.4 * static_cast<double>(b),
                           static_cast<std::uint32_t>(j % 2),
                           static_cast<std::uint32_t>(j % 3)});
    normalizeArrivals(arr);
    return arr;
}

/** Saturated alternating-class stream: everything queued at t = 0. */
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

/**
 * Canonical byte form of a serving outcome (hex-float times): equal
 * runs serialize to equal bytes, the determinism comparison.
 */
std::string
serializeResults(const std::vector<JobResult> &out)
{
    std::string s;
    char line[160];
    for (const JobResult &r : out) {
        std::snprintf(line, sizeof line, "%a %a %a k%u t%u c%u b%u w%d\n",
                      r.arriveSec, r.startSec, r.finishSec, r.klass,
                      r.tenant, r.chip, r.batch,
                      r.warmStart ? 1 : 0);
        s += line;
    }
    return s;
}

/** One serving-matrix row. */
struct Row
{
    std::string scenario;
    std::size_t chips = 0;
    ServeStats st;
};

void
runRow(ExperimentRunner &runner, tune::EvalCache &cache,
       const std::string &scenario, std::size_t chips,
       const std::vector<JobArrival> &arr, std::vector<Row> &rows)
{
    ServingSim sim(servingSpec(chips, 4), runner, &cache);
    std::vector<JobResult> out;
    Row r;
    r.scenario = scenario;
    r.chips = chips;
    const sim::Error err = sim.run(arr, out, r.st);
    if (!err.ok()) {
        std::fprintf(stderr, "FAIL: %s\n", err.message().c_str());
        std::exit(1);
    }
    std::printf("  %-8s %5zu | %5zu %7zu | %7.1f %7.1f %7.1f | "
                "%6.2f | %4.0f%% %5zu\n",
                scenario.c_str(), chips, r.st.jobs, r.st.batches,
                r.st.p50LatencySec * 1e3, r.st.p99LatencySec * 1e3,
                r.st.p999LatencySec * 1e3, r.st.qps,
                100.0 * static_cast<double>(r.st.warmJobs) /
                    static_cast<double>(r.st.jobs),
                r.st.maxQueueDepth);
    rows.push_back(std::move(r));
}

/** One row of the jobs-axis scaling curve. */
struct ScaleRow
{
    std::size_t jobs = 0;
    std::size_t events = 0;
    double faultNsPerJob = 0.0;
    double healthyNsPerJob = 0.0;
};

/** Best-of-`reps` wall-clock seconds of `run()`. */
template <typename F>
double
bestSeconds(int reps, F run)
{
    using Clock = std::chrono::steady_clock;
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        run();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        best = i == 0 ? s : std::min(best, s);
    }
    return best;
}

/**
 * Both loops on about `jobs` arrivals of the serve_faults fleet at 40
 * jobs/s offered, under a trace whose stalls (30 s MTBF per chip,
 * 2 s at 0.3x) span 90% of the horizon, plus a permanent degrade of
 * chip 0's channel 0 at 15 s and chip 3's death at 30 s.
 */
ScaleRow
scalingRow(ExperimentRunner &runner, std::size_t jobs, int reps)
{
    const HksParams &ark = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce8", HeWorkload::reduction(8), ark, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec4", HeWorkload::matVec(4), ark, Dataflow::OC, 1});
    sp.classes.push_back({"gang4", HeWorkload::reduction(2),
                          benchmarkByName("BTS1"), Dataflow::MP, 4});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 4;
    sp.fleet.keyCacheBytes = ark.evkBytes() * 8;
    sp.batch.targetBatch = 8;

    const double horizon = static_cast<double>(jobs) / 40.0;
    ArrivalSpec as;
    as.tenants.push_back({16.0, {3.0, 1.0, 1.0}});
    as.tenants.push_back({16.0, {1.0, 3.0, 1.0}});
    as.tenants.push_back({8.0, {1.0, 1.0, 2.0}});
    as.horizonSec = horizon;
    const std::vector<JobArrival> arr = poissonArrivals(as, 2026);

    ServingSim sim(sp, runner);
    FaultServingSim fsim(sim);
    fault::FaultModel fm;
    fm.stallMtbfSec = 30.0;
    fm.stallFactor = 0.3;
    fm.stallDurSec = 2.0;
    fm.horizonSec = 0.9 * horizon;
    fault::FaultTrace tr =
        fault::sampleTrace(fm, fsim.shape(), faultStreamSeed(2026, 0));
    tr.events.push_back(
        {15.0, fault::FaultKind::ChannelDegrade, 0, 0, 0.6, 0.0});
    tr.events.push_back({30.0, fault::FaultKind::ChipFail, 3, 0, 1.0, 0.0});
    tr.normalize();
    RetryPolicy pol;
    pol.maxRetries = 3;
    pol.backoffSec = 1.0;

    std::vector<JobResult> out;
    ServeStats st;
    FaultServeStats fst;
    bool ok = true;
    const double healthy = bestSeconds(
        reps, [&] { ok = ok && sim.run(arr, out, st).ok(); });
    const double faulty = bestSeconds(
        reps, [&] { ok = ok && fsim.run(arr, tr, pol, out, fst).ok(); });
    if (!ok || fst.lostJobs != 0) {
        std::fprintf(stderr, "FAIL: scaling run at %zu jobs rejected\n",
                     arr.size());
        std::exit(1);
    }
    ScaleRow r;
    r.jobs = arr.size();
    r.events = tr.events.size();
    r.faultNsPerJob = 1e9 * faulty / static_cast<double>(r.jobs);
    r.healthyNsPerJob = 1e9 * healthy / static_cast<double>(r.jobs);
    return r;
}

} // namespace

int
main()
{
    benchutil::header("Request-level serving: multi-tenant streams, "
                      "latency percentiles, admission batching");

    // 1. Determinism, asserted before anything is reported: the same
    // seeded stream, served by fresh simulators on 1-thread and
    // 4-thread estimator pools (and twice on the same simulator),
    // must serialize to identical bytes.
    bool deterministic_identical = true;
    {
        const std::vector<JobArrival> arr =
            poissonArrivals(poissonSpec(2), 2026);
        std::vector<std::string> serialized;
        for (std::size_t threads : {1ul, 4ul, 4ul}) {
            ExperimentRunner runner(threads);
            ServingSim sim(servingSpec(2, 4), runner);
            std::vector<JobResult> out;
            ServeStats st;
            const sim::Error err = sim.run(arr, out, st);
            if (!err.ok()) {
                std::fprintf(stderr, "FAIL: %s\n",
                             err.message().c_str());
                return 1;
            }
            serialized.push_back(serializeResults(out));
            // Second run on the same simulator joins the comparison.
            const sim::Error err2 = sim.run(arr, out, st);
            if (!err2.ok()) {
                std::fprintf(stderr, "FAIL: %s\n",
                             err2.message().c_str());
                return 1;
            }
            serialized.push_back(serializeResults(out));
        }
        for (const std::string &s : serialized)
            deterministic_identical =
                deterministic_identical && s == serialized.front();
        std::printf("determinism (%zu jobs, threads {1,4}, repeated "
                    "runs): %s\n\n",
                    arr.size(),
                    deterministic_identical ? "bit-identical"
                                            : "BROKEN");
    }

    // Sections 2 and 3 share one estimator pool and one EvalCache, so
    // every (class, warmness, bandwidth) price is replayed once.
    ExperimentRunner runner(4);
    tune::EvalCache cache;

    // 2. Serving matrix.
    std::printf("serving matrix (ARK/OC fleet @4 GB/s, batch target "
                "4, 8-key cache):\n");
    std::printf("  %-8s %5s | %5s %7s | %7s %7s %7s | %6s | %5s %5s\n",
                "stream", "chips", "jobs", "batches", "p50ms", "p99ms",
                "p999ms", "qps", "warm", "maxq");
    benchutil::rule();
    std::vector<Row> rows;
    for (std::size_t chips : {1ul, 4ul}) {
        runRow(runner, cache, "poisson", chips,
               poissonArrivals(poissonSpec(chips), 2026), rows);
        runRow(runner, cache, "trace", chips, burstTrace(chips), rows);
    }
    benchutil::rule();

    // 3. Batching vs FIFO at saturation (single chip, 256 queued
    // jobs, classes alternating so FIFO never keeps a warm cache).
    const std::vector<JobArrival> sat = saturatedStream(256);
    ServingSim fifo(servingSpec(1, 1), runner, &cache);
    ServingSim batched(servingSpec(1, 8), runner, &cache);
    std::vector<JobResult> out;
    ServeStats fifoSt, batchSt;
    if (!fifo.run(sat, out, fifoSt).ok() ||
        !batched.run(sat, out, batchSt).ok()) {
        std::fprintf(stderr, "FAIL: saturation run rejected\n");
        return 1;
    }
    const double batching_qps_win =
        fifoSt.qps > 0.0 ? batchSt.qps / fifoSt.qps : 0.0;
    std::printf("\nsaturation (%zu queued jobs, 1 chip): FIFO %.2f "
                "qps (p99 %.0f ms), target-8 batching %.2f qps "
                "(p99 %.0f ms) -> %s\n",
                sat.size(), fifoSt.qps, fifoSt.p99LatencySec * 1e3,
                batchSt.qps, batchSt.p99LatencySec * 1e3,
                benchutil::times(batching_qps_win).c_str());

    // 4. Serving under faults: 4 chips, the two single-chip classes
    // plus a 2-wide gang class; three chips die mid-run on top of
    // channel degrades and seeded stalls.
    ServeSpec fsp = servingSpec(4, 4);
    fsp.classes.push_back({"gang2", HeWorkload::reduction(2),
                           benchmarkByName("BTS1"), Dataflow::MP, 2});
    ArrivalSpec fas;
    fas.tenants.push_back({4.0, {3.0, 1.0, 1.0}});
    fas.tenants.push_back({4.0, {1.0, 3.0, 1.0}});
    fas.tenants.push_back({2.0, {1.0, 1.0, 2.0}});
    fas.horizonSec = 20.0;
    const std::vector<JobArrival> farr = poissonArrivals(fas, 2026);

    ServingSim healthySim(fsp, runner, &cache);
    std::vector<JobResult> healthyOut;
    ServeStats healthySt;
    if (!healthySim.run(farr, healthyOut, healthySt).ok()) {
        std::fprintf(stderr, "FAIL: healthy fault-spec run rejected\n");
        return 1;
    }

    // Gate 1, before any fault number is reported: an empty trace
    // must reproduce the healthy serving loop byte for byte.
    FaultServingSim faultSim(healthySim);
    std::vector<JobResult> zeroFaultOut;
    FaultServeStats zeroFaultSt;
    if (!faultSim
             .run(farr, fault::FaultTrace{}, RetryPolicy{},
                  zeroFaultOut, zeroFaultSt)
             .ok()) {
        std::fprintf(stderr, "FAIL: zero-fault serving run rejected\n");
        return 1;
    }
    bool zero_fault_serving_identical =
        serializeResults(healthyOut) == serializeResults(zeroFaultOut);
    for (const JobResult &r : zeroFaultOut)
        zero_fault_serving_identical = zero_fault_serving_identical &&
                                       !r.rejected && !r.degraded &&
                                       r.retries == 0;

    // The fault script, scaled by the healthy makespan: seeded
    // transient stalls (from the tenant-disjoint fault seed stream)
    // plus scripted channel degrades and three chip deaths — the last
    // one pushes the gang class below its width and forces a gang
    // failover.
    const double M = healthySt.makespanSec;
    fault::FaultModel fm;
    fm.stallMtbfSec = 3.0 * M;
    fm.stallFactor = 0.3;
    fm.stallDurSec = 0.02 * M;
    fm.horizonSec = 0.9 * M;
    fault::FaultTrace ftr = fault::sampleTrace(fm, faultSim.shape(),
                                               faultStreamSeed(2026, 0));
    ftr.events.push_back(
        {0.15 * M, fault::FaultKind::ChannelDegrade, 0, 0, 0.6, 0.0});
    ftr.events.push_back(
        {0.25 * M, fault::FaultKind::ChannelDegrade, 1, 0, 0.5, 0.0});
    ftr.events.push_back(
        {0.30 * M, fault::FaultKind::ChipFail, 3, 0, 1.0, 0.0});
    ftr.events.push_back(
        {0.50 * M, fault::FaultKind::ChipFail, 2, 0, 1.0, 0.0});
    ftr.events.push_back(
        {0.70 * M, fault::FaultKind::ChipFail, 1, 0, 1.0, 0.0});
    ftr.normalize();
    RetryPolicy pol;
    pol.maxRetries = 3;
    pol.backoffSec = 0.01 * M;

    std::vector<JobResult> faultOut;
    FaultServeStats faultSt;
    obs::ScenarioTrace faultViz;
    if (!faultSim.run(farr, ftr, pol, faultOut, faultSt, &faultViz)
             .ok()) {
        std::fprintf(stderr, "FAIL: degraded serving run rejected\n");
        return 1;
    }
    const double degraded_over_healthy_p99 =
        faultSt.degradedOverHealthyP99;

    std::printf("\nfault-aware serving (%zu jobs, 4 chips + gang "
                "class, 3 chip fails + degrades + stalls):\n",
                farr.size());
    std::printf("  zero-fault identity: %s | completed %zu, rejected "
                "%zu (timeouts %zu), lost %zu\n",
                zero_fault_serving_identical ? "bit-identical"
                                             : "BROKEN",
                faultSt.completedJobs, faultSt.rejectedJobs,
                faultSt.timedOutJobs, faultSt.lostJobs);
    std::printf("  retries %zu (salvaged %zu), chip failures %zu, "
                "failovers %zu (%.0f KB migrated, %.2f ms pause)\n",
                faultSt.retries, faultSt.salvagedJobs,
                faultSt.chipFailures, faultSt.failovers,
                static_cast<double>(faultSt.migratedBytes) / 1024.0,
                faultSt.migrationSec * 1e3);
    std::printf("  healthy window p50/p99 %.1f/%.1f ms (%zu jobs) | "
                "degraded window p50/p99 %.1f/%.1f ms (%zu jobs) -> "
                "tail ratio %s | recovery %.2f s\n",
                faultSt.healthyP50Sec * 1e3, faultSt.healthyP99Sec * 1e3,
                faultSt.healthyJobs, faultSt.degradedP50Sec * 1e3,
                faultSt.degradedP99Sec * 1e3, faultSt.degradedJobs,
                benchutil::times(degraded_over_healthy_p99).c_str(),
                faultSt.recoverySec);

    // Perfetto artifact of exactly this degraded outcome.
    {
        std::ofstream tf("serve_degraded.trace.json");
        if (tf) {
            obs::writeChromeTrace(tf, faultViz);
            std::printf("wrote serve_degraded.trace.json (%zu "
                        "segments, %zu marks)\n",
                        faultViz.segments.size(), faultViz.marks.size());
        }
    }

    // 5. Scaling along the jobs axis, every size in this process.
    std::printf("\nscaling (serve_faults fleet, 40 jobs/s offered, "
                "stalls every 30 s per chip):\n");
    std::printf("  %9s %7s | %14s %16s\n", "jobs", "events",
                "fault ns/job", "healthy ns/job");
    benchutil::rule();
    std::vector<ScaleRow> scaling;
    for (const auto &[jobs, reps] :
         {std::pair<std::size_t, int>{10000, 15}, {100000, 5},
          {1000000, 3}}) {
        scaling.push_back(scalingRow(runner, jobs, reps));
        const ScaleRow &r = scaling.back();
        std::printf("  %9zu %7zu | %14.0f %16.0f\n", r.jobs, r.events,
                    r.faultNsPerJob, r.healthyNsPerJob);
    }
    benchutil::rule();
    const double fault_loop_scaling =
        scaling.back().faultNsPerJob / scaling.front().faultNsPerJob;
    const double healthy_loop_scaling =
        scaling.back().healthyNsPerJob / scaling.front().healthyNsPerJob;
    std::printf("  ns/job at 10^6 over 10^4 jobs: fault loop %s "
                "(gate <= 3), healthy loop %s\n",
                benchutil::times(fault_loop_scaling).c_str(),
                benchutil::times(healthy_loop_scaling).c_str());

    // Machine-readable counters: the batched simulator's cumulative
    // serving totals, the fault-serving ledger, plus the shared
    // estimator pool's replay counters.
    obs::MetricsRegistry metrics;
    batched.exportMetrics(metrics);
    faultSim.exportMetrics(metrics);
    runner.exportMetrics(metrics);

    std::ofstream jf("BENCH_serve.json");
    if (jf) {
        benchutil::JsonWriter w(jf);
        w.field("bench", "serving");
        w.field("deterministic_identical", deterministic_identical);
        w.field("batching_qps_win", batching_qps_win);
        w.field("fifo_qps", fifoSt.qps);
        w.field("batched_qps", batchSt.qps);
        w.field("fifo_p99_ms", fifoSt.p99LatencySec * 1e3);
        w.field("batched_p99_ms", batchSt.p99LatencySec * 1e3);
        w.field("saturated_jobs",
                static_cast<std::uint64_t>(sat.size()));
        w.field("zero_fault_serving_identical",
                zero_fault_serving_identical);
        w.field("lost_jobs",
                static_cast<std::uint64_t>(faultSt.lostJobs));
        w.field("completed_jobs",
                static_cast<std::uint64_t>(faultSt.completedJobs));
        w.field("rejected_jobs",
                static_cast<std::uint64_t>(faultSt.rejectedJobs));
        w.field("timed_out_jobs",
                static_cast<std::uint64_t>(faultSt.timedOutJobs));
        w.field("job_retries",
                static_cast<std::uint64_t>(faultSt.retries));
        w.field("salvaged_jobs",
                static_cast<std::uint64_t>(faultSt.salvagedJobs));
        w.field("chip_failures",
                static_cast<std::uint64_t>(faultSt.chipFailures));
        w.field("failovers",
                static_cast<std::uint64_t>(faultSt.failovers));
        w.field("migrated_bytes",
                static_cast<std::uint64_t>(faultSt.migratedBytes));
        w.field("migration_sec", faultSt.migrationSec);
        w.field("fault_recovery_sec", faultSt.recoverySec);
        w.field("healthy_jobs",
                static_cast<std::uint64_t>(faultSt.healthyJobs));
        w.field("degraded_jobs",
                static_cast<std::uint64_t>(faultSt.degradedJobs));
        w.field("healthy_p99_ms", faultSt.healthyP99Sec * 1e3);
        w.field("degraded_p99_ms", faultSt.degradedP99Sec * 1e3);
        w.field("degraded_p99_over_healthy_p99",
                degraded_over_healthy_p99);
        w.beginArray("rows");
        for (const Row &r : rows) {
            w.beginObject();
            w.field("scenario", r.scenario);
            w.field("chips", static_cast<std::uint64_t>(r.chips));
            w.field("jobs", static_cast<std::uint64_t>(r.st.jobs));
            w.field("batches",
                    static_cast<std::uint64_t>(r.st.batches));
            w.field("batched_jobs",
                    static_cast<std::uint64_t>(r.st.batchedJobs));
            w.field("warm_jobs",
                    static_cast<std::uint64_t>(r.st.warmJobs));
            w.field("p50_ms", r.st.p50LatencySec * 1e3);
            w.field("p99_ms", r.st.p99LatencySec * 1e3);
            w.field("p999_ms", r.st.p999LatencySec * 1e3);
            w.field("max_ms", r.st.maxLatencySec * 1e3);
            w.field("qps", r.st.qps);
            w.field("max_queue_depth",
                    static_cast<std::uint64_t>(r.st.maxQueueDepth));
            w.endObject();
        }
        w.endArray();
        w.field("fault_loop_scaling", fault_loop_scaling);
        w.field("healthy_loop_scaling", healthy_loop_scaling);
        w.beginArray("scaling");
        for (const ScaleRow &r : scaling) {
            w.beginObject();
            w.field("jobs", static_cast<std::uint64_t>(r.jobs));
            w.field("trace_events", static_cast<std::uint64_t>(r.events));
            w.field("fault_ns_per_job", r.faultNsPerJob);
            w.field("healthy_ns_per_job", r.healthyNsPerJob);
            w.endObject();
        }
        w.endArray();
        w.metrics("metrics", metrics);
        w.finish();
        jf.close();
        std::printf("wrote BENCH_serve.json\n");
    }

    bool pass = deterministic_identical;
    if (!deterministic_identical)
        std::fprintf(stderr, "FAIL: seeded serving runs are no longer "
                             "bit-identical across thread counts\n");
    if (batching_qps_win < 1.5) {
        std::fprintf(stderr,
                     "FAIL: admission batching wins only %.2fx QPS "
                     "over FIFO at saturation (floor: 1.5x)\n",
                     batching_qps_win);
        pass = false;
    }
    if (!zero_fault_serving_identical) {
        std::fprintf(stderr,
                     "FAIL: zero-fault fault-serving run diverged "
                     "from the healthy serving loop\n");
        pass = false;
    }
    if (faultSt.lostJobs != 0) {
        std::fprintf(stderr,
                     "FAIL: %zu jobs silently lost under faults "
                     "(every job must complete or be rejected)\n",
                     faultSt.lostJobs);
        pass = false;
    }
    if (faultSt.healthyJobs == 0 || faultSt.degradedJobs == 0 ||
        !std::isfinite(degraded_over_healthy_p99)) {
        std::fprintf(stderr,
                     "FAIL: degraded-tail SLO is vacuous (healthy %zu "
                     "jobs, degraded %zu jobs, p99 ratio %f)\n",
                     faultSt.healthyJobs, faultSt.degradedJobs,
                     degraded_over_healthy_p99);
        pass = false;
    }
    if (faultSt.chipFailures == 0 || faultSt.failovers == 0) {
        std::fprintf(stderr,
                     "FAIL: fault script exercised no chip failure "
                     "(%zu) or gang failover (%zu)\n",
                     faultSt.chipFailures, faultSt.failovers);
        pass = false;
    }
    if (!(fault_loop_scaling <= 3.0)) {
        std::fprintf(stderr,
                     "FAIL: the fault loop costs %.2fx more per job at "
                     "10^6 jobs than at 10^4 (ceiling: 3x)\n",
                     fault_loop_scaling);
        pass = false;
    }
    return pass ? 0 : 1;
}
