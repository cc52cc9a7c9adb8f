/**
 * @file
 * Serving workloads. Both price two ARK/OC job classes on a 4-chip
 * fleet at 4 GB/s per chip with an 8-key evk cache and target-8
 * admission batching; inputs are pools of seeded open-loop Poisson
 * streams generated before timing.
 *
 *  - `serve_light`: one query is ServingSim::run on one ~4,000-job
 *    stream at an offered load that keeps the admission queue tens of
 *    jobs deep — the healthy serving loop, with nothing priced while
 *    timed.
 *  - `serve_faults`: one query is FaultServingSim::run on the same
 *    fleet plus a 4-wide gang class, at offered load above capacity,
 *    under a fault trace with seeded stalls, a channel degrade and a
 *    chip death that forces a gang failover — deep queues, piecewise
 *    fault pricing, retries and failover.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault_replay.h"
#include "fault/fault_trace.h"
#include "harness.h"
#include "serve/fault_serving.h"
#include "serve/serving.h"

namespace perfbench
{
namespace
{

using namespace ciflow;
using namespace ciflow::serve;

/**
 * Seeded streams per workload; queries cycle through them. Overloaded
 * fault-serving cost varies by tens of percent between streams, so
 * both pools are wide enough that their mean cost barely moves with
 * the seed.
 */
constexpr std::size_t kStreams = 32;

ServeSpec
fleetSpec(bool gang)
{
    const HksParams &par = benchmarkByName("ARK");
    ServeSpec sp;
    sp.classes.push_back(
        {"reduce8", HeWorkload::reduction(8), par, Dataflow::OC, 1});
    sp.classes.push_back(
        {"matvec4", HeWorkload::matVec(4), par, Dataflow::OC, 1});
    if (gang)
        sp.classes.push_back({"gang4", HeWorkload::reduction(2),
                              benchmarkByName("BTS1"), Dataflow::MP, 4});
    sp.fleet.chip.bandwidthGBps = 4.0;
    sp.fleet.chips = 4;
    sp.fleet.keyCacheBytes = par.evkBytes() * 8;
    sp.batch.targetBatch = 8;
    return sp;
}

void
appendJobs(std::string &s, const std::vector<JobResult> &out, bool faults)
{
    for (const JobResult &r : out) {
        appendHex(s, r.arriveSec);
        appendHex(s, r.startSec);
        appendHex(s, r.finishSec);
        appendU(s, r.klass);
        appendU(s, r.tenant);
        appendU(s, r.chip);
        appendU(s, r.batch);
        if (faults) {
            appendU(s, r.retries);
            appendU(s, r.rejected);
            appendU(s, r.degraded);
        }
        appendU(s, r.warmStart, '\n');
    }
}

void
appendStats(std::string &s, const ServeStats &st)
{
    appendU(s, st.jobs);
    appendU(s, st.batches);
    appendU(s, st.batchedJobs);
    appendU(s, st.warmJobs);
    appendU(s, st.keyCacheHitOps);
    appendU(s, st.totalOps);
    appendU(s, st.maxQueueDepth);
    appendHex(s, st.makespanSec);
    appendHex(s, st.p50LatencySec);
    appendHex(s, st.p99LatencySec, '\n');
}

/** State both serving workloads share. */
class ServeBase : public Workload
{
  public:
    ServeBase(bool gang, std::size_t streams) : spec(fleetSpec(gang))
    {
        arrivals.resize(streams);
    }

    std::string
    key(std::size_t k) const override
    {
        return "stream" + std::to_string(k);
    }

    std::size_t distinct() const override { return arrivals.size(); }

  protected:
    void
    buildSim(Tracer &t)
    {
        runner = std::make_unique<ExperimentRunner>(1);
        Scope s(t, "serve.ServingSim");
        sim = std::make_unique<ServingSim>(spec, *runner);
    }

    void
    commonMetrics(const SpanIndex &ix, Report &r) const
    {
        r.set("serve.ctor_ms",
              1e3 * ix.get("setup", "serve.ServingSim").mean(), "ms",
              "(n=" + std::to_string(setupReps()) + " set-ups)");
        r.set("serve.estimator_evals",
              static_cast<double>(sim->estimatorEvals()), "count",
              "(per set-up)");
    }

    ServeSpec spec;
    std::vector<std::vector<JobArrival>> arrivals;
    std::unique_ptr<ExperimentRunner> runner;
    std::unique_ptr<ServingSim> sim;
    std::vector<JobResult> out;
    sim::Error err;
    /** Sums over traced queries. */
    double jobs = 0.0, batches = 0.0, maxQueue = 0.0;
};

class ServeLight final : public ServeBase
{
  public:
    explicit ServeLight(std::uint64_t seed) : ServeBase(false, kStreams)
    {
        // Two tenants of 25 jobs/s, each favouring one class: ~4,000
        // jobs over 80 s, the queue tens of jobs deep.
        ArrivalSpec as;
        as.tenants.push_back({25.0, {3.0, 1.0}});
        as.tenants.push_back({25.0, {1.0, 3.0}});
        as.horizonSec = 80.0;
        for (std::size_t i = 0; i < arrivals.size(); ++i)
            arrivals[i] = poissonArrivals(as, fault::deriveSeed(seed, i));
    }

    std::size_t setupReps() const override { return 61; }

    void setup(Tracer &t) override { buildSim(t); }

    void
    teardown() override
    {
        sim.reset();
        runner.reset();
    }

    bool prepare() override { return true; }

    void
    query(std::size_t k, Tracer &t) override
    {
        Scope s(t, "serve.run");
        err = sim->run(arrivals[k], out, stats);
    }

    bool
    check(std::size_t k, std::string &ser) override
    {
        const std::size_t n = arrivals[k].size();
        appendJobs(ser, out, false);
        appendStats(ser, stats);
        return err.ok() && out.size() == n && stats.jobs == n;
    }

    void
    probe(std::size_t, Tracer &) override
    {
        jobs += static_cast<double>(stats.jobs);
        batches += static_cast<double>(stats.batches);
        maxQueue =
            std::max(maxQueue, static_cast<double>(stats.maxQueueDepth));
    }

    void
    layerMetrics(const SpanIndex &ix, std::size_t queries,
                 Report &r) override
    {
        const std::string nq = "(n=" + std::to_string(queries) + " queries)";
        commonMetrics(ix, r);
        r.set("serve.run_ns_per_job",
              1e9 * ratio(ix.get("query", "serve.run").total, jobs),
              "ns/job", nq);
        r.set("serve.batches_per_job", ratio(batches, jobs), "ratio", nq);
        r.set("serve.max_queue_depth", maxQueue, "jobs", nq);
    }

  private:
    ServeStats stats;
};

class ServeFaults final : public ServeBase
{
  public:
    explicit ServeFaults(std::uint64_t seed) : ServeBase(true, kStreams)
    {
        // 40 jobs/s offered against a fleet that serves ~27: the
        // queue grows into the thousands.
        constexpr double horizon = 100.0;
        degradeAt = 0.15 * horizon;
        ArrivalSpec as;
        as.tenants.push_back({16.0, {3.0, 1.0, 1.0}});
        as.tenants.push_back({16.0, {1.0, 3.0, 1.0}});
        as.tenants.push_back({8.0, {1.0, 1.0, 2.0}});
        as.horizonSec = horizon;
        const fault::MachineShape shape{spec.fleet.chips,
                                        spec.fleet.chip.memChannels, 0};
        fault::FaultModel fm;
        fm.stallMtbfSec = 0.3 * horizon;
        fm.stallFactor = 0.3;
        fm.stallDurSec = 0.02 * horizon;
        fm.horizonSec = 0.9 * horizon;
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
            const std::uint64_t s = fault::deriveSeed(seed, i);
            arrivals[i] = poissonArrivals(as, s);
            fault::FaultTrace tr =
                fault::sampleTrace(fm, shape, faultStreamSeed(s, 0));
            tr.events.push_back({degradeAt,
                                 fault::FaultKind::ChannelDegrade, 0, 0,
                                 0.6, 0.0});
            tr.events.push_back({0.30 * horizon, fault::FaultKind::ChipFail,
                                 3, 0, 1.0, 0.0});
            tr.normalize();
            traces.push_back(std::move(tr));
        }
        policy.maxRetries = 3;
        policy.backoffSec = 0.01 * horizon;
    }

    std::size_t setupReps() const override { return 61; }

    void
    setup(Tracer &t) override
    {
        buildSim(t);
        Scope s(t, "serve.FaultServingSim");
        fsim = std::make_unique<FaultServingSim>(*sim);
    }

    void
    teardown() override
    {
        fsim.reset();
        sim.reset();
        runner.reset();
    }

    bool
    prepare() override
    {
        ExperimentRunner r(1);
        ServingSim healthySim(spec, r);
        FaultServingSim faultSim(healthySim);
        for (const fault::FaultTrace &tr : traces)
            if (!fault::checkTrace(tr, faultSim.shape()).ok())
                return false;
        // The zero-fault run must equal the healthy loop byte for byte.
        std::vector<JobResult> healthy;
        ServeStats hs;
        if (!healthySim.run(arrivals[0], healthy, hs).ok() ||
            !faultSim
                 .run(arrivals[0], fault::FaultTrace{}, RetryPolicy{}, out,
                      stats)
                 .ok())
            return false;
        std::string a, b;
        appendJobs(a, healthy, false);
        appendJobs(b, out, false);
        bool ok = a == b && stats.lostJobs == 0;
        for (const JobResult &r : out)
            ok = ok && !r.rejected && !r.degraded && r.retries == 0;
        if (!ok)
            std::fprintf(stderr, "FAIL: zero-fault serving diverged from "
                                 "ServingSim::run\n");
        return ok;
    }

    void
    query(std::size_t k, Tracer &t) override
    {
        Scope s(t, "serve.faultRun");
        err = fsim->run(arrivals[k], traces[k], policy, out, stats);
    }

    bool
    check(std::size_t k, std::string &ser) override
    {
        const std::size_t n = arrivals[k].size();
        appendJobs(ser, out, true);
        appendStats(ser, stats.done);
        appendU(ser, stats.completedJobs);
        appendU(ser, stats.rejectedJobs);
        appendU(ser, stats.retries);
        appendU(ser, stats.failovers);
        appendU(ser, stats.degradedJobs);
        appendHex(ser, stats.recoverySec, '\n');
        return err.ok() && out.size() == n &&
               stats.completedJobs + stats.rejectedJobs == n &&
               stats.lostJobs == 0;
    }

    void
    probe(std::size_t k, Tracer &t) override
    {
        jobs += static_cast<double>(arrivals[k].size());
        maxQueue = std::max(maxQueue,
                            static_cast<double>(stats.done.maxQueueDepth));
        retries += static_cast<double>(stats.retries);
        failovers += static_cast<double>(stats.failovers);
        completed += static_cast<double>(stats.completedJobs);
        degraded += static_cast<double>(stats.degradedJobs);
        rejected += static_cast<double>(stats.rejectedJobs);
        // Per-op cost of the piecewise replay that prices degraded
        // ops: a class schedule replayed across chip 0's epochs of
        // this query's trace, started mid-way through the degrade.
        if (!piece)
            piece = runner->experiment(spec.classes[0].params,
                                       spec.classes[0].dataflow,
                                       MemoryConfig{});
        const sim::CompiledSchedule &cs = piece->compiled();
        RpuConfig cfg = spec.fleet.chip;
        RpuEngine(cfg).rates(cs, rates);
        const double mid = 0.5 * cs.replay(rates, scratch);
        const sim::RateEpochs ep = fault::buildChipEpochs(
            traces[k], 0, cs.resourceCount(), degradeAt - mid);
        Scope s(t, "calib.sim.replayPiecewise");
        (void)cs.replayPiecewise(rates, ep, nullptr, scratch);
        pieceOps += static_cast<double>(cs.opCount());
    }

    void
    layerMetrics(const SpanIndex &ix, std::size_t queries,
                 Report &r) override
    {
        const double q = static_cast<double>(queries);
        const std::string nq = "(n=" + std::to_string(queries) + " queries)";
        commonMetrics(ix, r);
        r.set("serve.fault_ctor_ms",
              1e3 * ix.get("setup", "serve.FaultServingSim").mean(), "ms",
              "(n=" + std::to_string(setupReps()) + " set-ups)");
        r.set("serve.fault_run_ns_per_job",
              1e9 * ratio(ix.get("query", "serve.faultRun").total, jobs),
              "ns/job", nq);
        r.set("serve.max_queue_depth", maxQueue, "jobs", nq);
        r.set("sim.replay_piecewise_ns_per_op",
              1e9 * ratio(ix.get("probe", "calib.sim.replayPiecewise").total,
                          pieceOps),
              "ns/op", nq);
        r.set("serve_fault.retries", ratio(retries, q), "count/query", nq);
        r.set("serve_fault.failovers", ratio(failovers, q), "count/query",
              nq);
        r.set("serve_fault.degraded_frac", ratio(degraded, completed), "frac",
              nq);
        r.set("serve_fault.rejected_frac", ratio(rejected, jobs), "frac", nq);
    }

  private:
    std::vector<fault::FaultTrace> traces;
    /** When chip 0's channel degrade starts (seconds). */
    double degradeAt = 0.0;
    RetryPolicy policy;
    std::unique_ptr<FaultServingSim> fsim;
    FaultServeStats stats;

    std::shared_ptr<const HksExperiment> piece;
    sim::ReplayRates rates;
    sim::ReplayScratch scratch;
    double retries = 0.0, failovers = 0.0, completed = 0.0;
    double degraded = 0.0, rejected = 0.0, pieceOps = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeServeLight(std::uint64_t seed)
{
    return std::make_unique<ServeLight>(seed);
}

std::unique_ptr<Workload>
makeServeFaults(std::uint64_t seed)
{
    return std::make_unique<ServeFaults>(seed);
}

} // namespace perfbench
