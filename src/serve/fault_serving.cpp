#include "serve/fault_serving.h"

#include <cmath>

#include "rpu/experiment.h"
#include "serve/serve_loop.h"
#include "shard/placement_search.h"

namespace ciflow::serve
{

sim::Error
checkRetryPolicy(const RetryPolicy &policy)
{
    const auto bad = [](const std::string &ctx) {
        return sim::Error{sim::ErrorCode::BadServeSpec, ctx};
    };
    if (!(std::isfinite(policy.backoffSec) && policy.backoffSec >= 0.0))
        return bad("retry backoff must be finite and >= 0");
    if (std::isnan(policy.deadlineSec) || policy.deadlineSec <= 0.0)
        return bad("retry deadline must be positive (+inf = none)");
    return {};
}

FaultServingSim::FaultServingSim(ServingSim &s)
    : sim(s), assets(std::make_unique<detail::FaultAssets>())
{
    const ServeSpec &sp = sim.sp;
    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    MemoryConfig hitMem = missMem;
    hitMem.evkOnChip = true;

    assets->ops.resize(sp.classes.size() * 2);
    assets->gang.resize(sp.classes.size());
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        const JobClass &jc = sp.classes[k];
        if (jc.shards <= 1) {
            for (int variant = 0; variant < 2; ++variant) {
                detail::FaultAssets::OpSched &os =
                    assets->ops[k * 2 + static_cast<std::size_t>(variant)];
                os.exp = sim.runnerRef.experiment(
                    jc.params, jc.dataflow, variant ? hitMem : missMem);
                os.cs = &os.exp->compiled(sim.chipAt(0));
                os.rates.resize(sim.uniqBw.size());
                for (std::size_t b = 0; b < sim.uniqBw.size(); ++b)
                    RpuEngine(sim.chipAt(b))
                        .rates(*os.cs, os.rates[b]);
            }
            continue;
        }
        // Only gang classes use the interconnect, so only they build
        // the engine (checkSpec validated the network for them).
        if (!assets->eng)
            assets->eng = std::make_unique<shard::ShardedEngine>(
                sp.fleet.chip, sp.fleet.interconnect);
        auto g = std::make_unique<detail::FaultAssets::Gang>();
        g->spec = shard::placementShardSpec(jc.params, jc.shards,
                                            sp.fleet.strategy,
                                            sp.fleet.imbalanceTol);
        g->expMiss =
            sim.runnerRef.experiment(jc.params, jc.dataflow, missMem);
        g->expHit =
            sim.runnerRef.experiment(jc.params, jc.dataflow, hitMem);
        g->wMiss = shard::taskWeights(g->expMiss->graph(), sp.fleet.chip);
        g->wHit = shard::taskWeights(g->expHit->graph(), sp.fleet.chip);
        g->baseMiss =
            shard::partitionGraph(g->expMiss->graph(), g->spec, g->wMiss);
        g->baseHit =
            shard::partitionGraph(g->expHit->graph(), g->spec, g->wHit);
        g->psMiss = assets->eng->compilePatchable(*g->expMiss, g->baseMiss);
        g->psHit = assets->eng->compilePatchable(*g->expHit, g->baseHit);
        assets->eng->rates(g->psMiss.compiled, g->rMiss);
        assets->eng->rates(g->psHit.compiled, g->rHit);
        g->slotAlive.assign(jc.shards, 1);
        g->activeSlots = jc.shards;
        g->liveMiss = sim.models[k].missRt[0];
        g->liveHit = sim.models[k].hitRt[0];
        assets->gang[k] = std::move(g);
    }
}

FaultServingSim::~FaultServingSim() = default;

fault::MachineShape
FaultServingSim::shape() const
{
    return {sim.sp.fleet.chips, sim.sp.fleet.chip.channelCount(), 0};
}

sim::Error
FaultServingSim::run(const std::vector<JobArrival> &arrivals,
                     const fault::FaultTrace &trace,
                     const RetryPolicy &policy, std::vector<JobResult> &out,
                     FaultServeStats &stats, obs::ScenarioTrace *viz)
{
    const ServeSpec &sp = sim.sp;
    if (sim::Error err = checkStreams(arrivals, sp.classes.size()))
        return err;
    if (sim::Error err = checkRetryPolicy(policy))
        return err;
    fault::FaultTrace tr = trace;
    if (sim::Error err = fault::checkTrace(tr, shape()))
        return err;
    tr.normalize();

    // Reset gang bindings a previous run's failovers moved.
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        detail::FaultAssets::Gang *g = assets->gang[k].get();
        if (!g || !g->failedOver)
            continue;
        assets->eng->recompilePartition(g->psMiss, g->baseMiss);
        assets->eng->recompilePartition(g->psHit, g->baseHit);
        assets->eng->rates(g->psMiss.compiled, g->rMiss);
        assets->eng->rates(g->psHit.compiled, g->rHit);
        g->slotAlive.assign(sim.models[k].shards, 1);
        g->activeSlots = sim.models[k].shards;
        g->liveMiss = sim.models[k].missRt[0];
        g->liveHit = sim.models[k].hitRt[0];
        g->failedOver = false;
    }

    detail::FaultRun fr{tr, policy, *assets};
    sim.serveLoop<true>(arrivals, out, stats, viz, &fr);

    nPiecewiseReplays += fr.piecewiseReplays;
    nMemoHits += fr.memoHits;
    nEpochTables += fr.epochTables;
    nCompleted += stats.completedJobs;
    nRejected += stats.rejectedJobs;
    nTimedOut += stats.timedOutJobs;
    nLost += stats.lostJobs;
    nRetries += stats.retries;
    nSalvaged += stats.salvagedJobs;
    nChipFailures += stats.chipFailures;
    nFailovers += stats.failovers;
    nMigratedBytes += stats.migratedBytes;
    lastStats = stats;
    return {};
}

void
FaultServingSim::exportMetrics(obs::MetricsRegistry &m,
                               const std::string &prefix) const
{
    m.count(prefix + "completed_jobs", nCompleted);
    m.count(prefix + "rejected_jobs", nRejected);
    m.count(prefix + "timed_out_jobs", nTimedOut);
    m.count(prefix + "lost_jobs", nLost);
    m.count(prefix + "retries", nRetries);
    m.count(prefix + "salvaged_jobs", nSalvaged);
    m.count(prefix + "chip_failures", nChipFailures);
    m.count(prefix + "failovers", nFailovers);
    m.count(prefix + "migrated_bytes", nMigratedBytes);
    m.count(prefix + "piecewise_replays", nPiecewiseReplays);
    m.count(prefix + "price_memo_hits", nMemoHits);
    m.count(prefix + "epoch_tables", nEpochTables);
    m.gauge(prefix + "healthy_p99_sec", lastStats.healthyP99Sec);
    m.gauge(prefix + "degraded_p99_sec", lastStats.degradedP99Sec);
    m.gauge(prefix + "degraded_over_healthy_p99",
            lastStats.degradedOverHealthyP99);
    m.gauge(prefix + "recovery_sec", lastStats.recoverySec);
    m.gauge(prefix + "migration_sec", lastStats.migrationSec);
}

sim::Error
trySimulateFaultServing(const ServeSpec &spec,
                        const std::vector<JobArrival> &arrivals,
                        const fault::FaultTrace &trace,
                        const RetryPolicy &policy, ExperimentRunner &runner,
                        std::vector<JobResult> &out, FaultServeStats &stats,
                        tune::EvalCache *cache)
{
    if (sim::Error err = checkSpec(spec))
        return err;
    if (sim::Error err = checkStreams(arrivals, spec.classes.size()))
        return err;
    if (sim::Error err = checkRetryPolicy(policy))
        return err;
    ServingSim base(spec, runner, cache);
    FaultServingSim faulty(base);
    return faulty.run(arrivals, trace, policy, out, stats);
}

} // namespace ciflow::serve
