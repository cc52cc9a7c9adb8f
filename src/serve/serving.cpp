#include "serve/serving.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "obs/traced_replay.h"
#include "rpu/experiment.h"
#include "serve/serve_loop.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"

namespace ciflow::serve
{

namespace
{

/**
 * Whether an estimator point is representable as a tune::EvalKey,
 * i.e. every chip/interconnect knob the key does *not* carry sits at
 * its default. Off-key configurations are still priced (directly);
 * they just bypass the shared cache instead of poisoning it.
 */
bool
cacheKeyable(const FleetConfig &fleet, std::size_t shards)
{
    const RpuConfig def;
    const RpuConfig &c = fleet.chip;
    if (c.hples != def.hples || c.freqGHz != def.freqGHz ||
        c.vectorLen != def.vectorLen ||
        c.cyclesPerModOp != def.cyclesPerModOp || c.splitComputePipes ||
        !c.channelGBps.empty())
        return false;
    if (shards > 1) {
        const shard::InterconnectConfig dnet;
        if (fleet.interconnect.linkGBps != dnet.linkGBps ||
            fleet.interconnect.latencySec != dnet.latencySec ||
            fleet.imbalanceTol != 0.10)
            return false;
    }
    return true;
}

/** The tuner's canonical EvalKey for one serving estimator point. */
tune::EvalKey
keyOf(const FleetConfig &fleet, const HksParams &par, Dataflow d,
      const MemoryConfig &mem, double bw, std::size_t shards)
{
    tune::EvalKey key;
    key.graph = ExperimentKey::of(par, d, mem);
    key.bandwidthGBps = bw;
    key.modopsMult = fleet.chip.modopsMult;
    key.memChannels = fleet.chip.channelCount();
    if (fleet.chip.channelCount() > 1)
        key.channelPolicy = fleet.chip.channelPolicy;
    if (shards > 1) {
        key.shards = shards;
        key.topology = fleet.interconnect.topology;
        key.strategy = fleet.strategy;
    }
    return key;
}

} // namespace

sim::Error
checkSpec(const ServeSpec &spec)
{
    const auto bad = [](const std::string &ctx) {
        return sim::Error{sim::ErrorCode::BadServeSpec, ctx};
    };
    if (spec.fleet.chips == 0)
        return bad("fleet needs at least one chip");
    if (spec.classes.empty())
        return bad("serving spec needs at least one job class");
    bool anyGang = false;
    for (std::size_t k = 0; k < spec.classes.size(); ++k) {
        const JobClass &jc = spec.classes[k];
        if (jc.workload.ops.empty())
            return bad("class " + std::to_string(k) +
                       " has an empty workload");
        if (jc.shards == 0)
            return bad("class " + std::to_string(k) +
                       " has zero shards");
        if (jc.shards > spec.fleet.chips)
            return bad("class " + std::to_string(k) + " gangs " +
                       std::to_string(jc.shards) + " chips of " +
                       std::to_string(spec.fleet.chips));
        anyGang = anyGang || jc.shards > 1;
    }
    const std::vector<double> &ovr = spec.fleet.chipBandwidthGBps;
    if (!ovr.empty()) {
        if (ovr.size() != spec.fleet.chips)
            return bad("chipBandwidthGBps has " +
                       std::to_string(ovr.size()) + " entries for " +
                       std::to_string(spec.fleet.chips) + " chips");
        for (double b : ovr)
            if (!(std::isfinite(b) && b > 0.0))
                return bad("chip bandwidth overrides must be finite "
                           "and positive");
        if (!spec.fleet.chip.channelGBps.empty())
            return bad("per-chip bandwidth overrides and per-channel "
                       "bandwidths are mutually exclusive");
        if (anyGang)
            return bad("gang-scheduled classes require a homogeneous "
                       "fleet (no chip bandwidth overrides)");
    }
    if (anyGang && !spec.fleet.chip.channelGBps.empty())
        return bad("gang-scheduled classes require symmetric DRAM "
                   "channels");
    if (anyGang) {
        if (const sim::Error err =
                shard::checkInterconnect(spec.fleet.interconnect))
            return bad("gang-scheduled classes need a valid "
                       "interconnect: " +
                       err.context);
        // The partitioner's load cap; +inf means no cap.
        if (std::isnan(spec.fleet.imbalanceTol) ||
            spec.fleet.imbalanceTol < 0.0)
            return bad("gang-scheduled classes need imbalanceTol >= 0");
    }
    if (ovr.empty() && !(std::isfinite(spec.fleet.chip.bandwidthGBps) &&
                         spec.fleet.chip.bandwidthGBps > 0.0) &&
        spec.fleet.chip.channelGBps.empty())
        return bad("chip bandwidth must be finite and positive");
    if (spec.batch.targetBatch == 0)
        return bad("batch target must be at least 1");
    if (!(std::isfinite(spec.batch.targetBatchSec) &&
          spec.batch.targetBatchSec >= 0.0))
        return bad("targetBatchSec must be finite and >= 0");
    return {};
}

ServingSim::ServingSim(const ServeSpec &spec, ExperimentRunner &runner,
                       tune::EvalCache *cache)
    : sp(spec), runnerRef(runner)
{
    const sim::Error err = checkSpec(sp);
    panicIf(bool(err), err.message());

    if (sp.fleet.chipBandwidthGBps.empty()) {
        uniqBw.assign(1, sp.fleet.chip.bandwidthGBps);
        chipBw.assign(sp.fleet.chips, 0);
    } else {
        uniqBw = sp.fleet.chipBandwidthGBps;
        std::sort(uniqBw.begin(), uniqBw.end());
        uniqBw.erase(std::unique(uniqBw.begin(), uniqBw.end()),
                     uniqBw.end());
        chipBw.resize(sp.fleet.chips);
        for (std::size_t c = 0; c < sp.fleet.chips; ++c)
            chipBw[c] = static_cast<std::size_t>(
                std::lower_bound(uniqBw.begin(), uniqBw.end(),
                                 sp.fleet.chipBandwidthGBps[c]) -
                uniqBw.begin());
    }
    buildModels(runner, cache);
}

ServingSim::~ServingSim() = default;

RpuConfig
ServingSim::chipAt(std::size_t bwIdx) const
{
    RpuConfig cfg = sp.fleet.chip;
    if (!sp.fleet.chipBandwidthGBps.empty())
        cfg.bandwidthGBps = uniqBw[bwIdx];
    return cfg;
}

void
ServingSim::buildModels(ExperimentRunner &runner, tune::EvalCache *cache)
{
    models.resize(sp.classes.size());
    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    MemoryConfig hitMem = missMem;
    hitMem.evkOnChip = true;

    // Masks are cheap and serial; runtimes fan out below.
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        const JobClass &jc = sp.classes[k];
        ClassModel &m = models[k];
        m.shards = jc.shards;
        const std::uint64_t evk = jc.params.evkBytes();
        const std::size_t slots =
            evk ? static_cast<std::size_t>(sp.fleet.keyCacheBytes / evk)
                : 0;
        // Cold from an empty cache, then warm: one more job on the
        // same state (the previous job on the chip ran this class).
        std::vector<long> lru;
        keyCacheHitMask(jc.workload, slots, lru, m.coldMask);
        keyCacheHitMask(jc.workload, slots, lru, m.warmMask);
        for (std::uint8_t h : m.coldMask)
            m.coldHits += h;
        for (std::uint8_t h : m.warmMask)
            m.warmHits += h;
        m.missRt.assign(uniqBw.size(), 0.0);
        m.hitRt.assign(uniqBw.size(), 0.0);
    }

    // One pool job per (class, key-cache variant); each lands results
    // into its own pre-sized slots, so the fan-out is bit-identical
    // for any thread count (the runner/monte-carlo pattern).
    std::vector<std::size_t> evalCount(sp.classes.size() * 2, 0);
    std::vector<std::function<void()>> jobs;
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        for (int variant = 0; variant < 2; ++variant) {
            jobs.push_back([this, &runner, cache, &evalCount, &missMem,
                            &hitMem, k, variant] {
                const JobClass &jc = sp.classes[k];
                ClassModel &m = models[k];
                const MemoryConfig &mem =
                    variant ? hitMem : missMem;
                std::vector<double> &out =
                    variant ? m.hitRt : m.missRt;
                const bool keyable =
                    cache && cacheKeyable(sp.fleet, jc.shards);
                std::vector<std::size_t> missing;
                for (std::size_t i = 0; i < uniqBw.size(); ++i) {
                    tune::Measurement meas;
                    if (keyable &&
                        cache->lookup(keyOf(sp.fleet, jc.params,
                                            jc.dataflow, mem,
                                            uniqBw[i], jc.shards),
                                      meas)) {
                        out[i] = meas.runtime;
                        continue;
                    }
                    missing.push_back(i);
                }
                if (missing.empty())
                    return;
                evalCount[k * 2 + static_cast<std::size_t>(variant)] =
                    missing.size();
                const auto exp = runner.experiment(
                    jc.params, jc.dataflow, mem);
                std::vector<double> rt(missing.size());
                std::uint64_t cutBytes = 0;
                std::size_t transferTasks = 0;
                if (jc.shards <= 1) {
                    // Batched compiled replay across the missing
                    // bandwidths (the replayMany fast path).
                    std::vector<RpuConfig> cfgs;
                    cfgs.reserve(missing.size());
                    for (std::size_t i : missing)
                        cfgs.push_back(chipAt(i));
                    exp->simulateRuntimeMany(cfgs.data(), cfgs.size(),
                                             rt.data());
                } else {
                    // Gang-scheduled classes price through the
                    // sharded compiled-replay path (homogeneous
                    // fleet, so exactly one bandwidth).
                    const std::vector<double> w = shard::taskWeights(
                        exp->graph(), sp.fleet.chip);
                    const shard::Partition part = shard::partitionGraph(
                        exp->graph(),
                        shard::placementShardSpec(
                            jc.params, jc.shards, sp.fleet.strategy,
                            sp.fleet.imbalanceTol),
                        w);
                    const shard::ShardedEngine eng(
                        sp.fleet.chip, sp.fleet.interconnect);
                    const shard::ShardedCompiled sc =
                        eng.compile(*exp, part);
                    for (std::size_t j = 0; j < missing.size(); ++j)
                        rt[j] = eng.replayRuntime(sc);
                    cutBytes = part.cutBytes;
                    transferTasks = part.cutEdges.size();
                }
                for (std::size_t j = 0; j < missing.size(); ++j) {
                    out[missing[j]] = rt[j];
                    if (!keyable)
                        continue;
                    // Mirror the tuner's Measurement shape so a
                    // shared cache stays consistent between layers.
                    tune::Measurement meas;
                    meas.runtime = rt[j];
                    meas.aggregateGBps =
                        uniqBw[missing[j]] *
                        static_cast<double>(jc.shards);
                    meas.capacityBytes =
                        static_cast<double>(
                            sp.fleet.chip.dataMemBytes) *
                        static_cast<double>(jc.shards);
                    meas.cutBytes = cutBytes;
                    meas.transferTasks = transferTasks;
                    cache->insert(keyOf(sp.fleet, jc.params,
                                        jc.dataflow, mem,
                                        uniqBw[missing[j]], jc.shards),
                                  meas);
                }
            });
        }
    }
    runner.runAll(jobs);
    for (std::size_t n : evalCount)
        nEvals += n;

    // Whole-job service sums, accumulated in op order — the exact
    // order run() accumulates per-op finishes, so the two agree
    // bitwise.
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        ClassModel &m = models[k];
        m.coldSvc.assign(uniqBw.size(), 0.0);
        m.warmSvc.assign(uniqBw.size(), 0.0);
        for (std::size_t b = 0; b < uniqBw.size(); ++b) {
            for (std::size_t i = 0; i < m.coldMask.size(); ++i) {
                m.coldSvc[b] +=
                    m.coldMask[i] ? m.hitRt[b] : m.missRt[b];
                m.warmSvc[b] +=
                    m.warmMask[i] ? m.hitRt[b] : m.missRt[b];
            }
        }
    }
}

void
ServingSim::buildViz(ExperimentRunner &runner)
{
    if (viz_)
        return;
    auto va = std::make_shared<VizAssets>();
    va->bufs.resize(sp.classes.size());
    const MemoryConfig missMem{sp.fleet.chip.dataMemBytes, false};
    MemoryConfig hitMem = missMem;
    hitMem.evkOnChip = true;

    sim::ReplayRates rates;
    sim::ReplayScratch scratch;
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        const JobClass &jc = sp.classes[k];
        if (jc.shards > 1)
            continue; // rendered as scenario marks
        for (int variant = 0; variant < 2; ++variant) {
            const auto exp = runner.experiment(
                jc.params, jc.dataflow, variant ? hitMem : missMem);
            const sim::CompiledSchedule &cs =
                exp->compiled(chipAt(0));
            if (va->names.empty()) {
                va->perChip = cs.resourceCount();
                for (std::size_t r = 0; r < cs.resourceCount(); ++r)
                    va->names.push_back(cs.resourceName(
                        static_cast<sim::ResourceId>(r)));
            } else {
                fatalIf(cs.resourceCount() != va->perChip,
                        "serving viz: chip resource blocks disagree "
                        "across classes");
            }
            auto &slot =
                va->bufs[k][static_cast<std::size_t>(variant)];
            slot.resize(uniqBw.size());
            for (std::size_t b = 0; b < uniqBw.size(); ++b) {
                RpuEngine(chipAt(b))
                    .rates(cs, rates);
                obs::replayTraced(cs, rates, scratch, slot[b]);
            }
        }
    }
    viz_ = va;
}

sim::Error
ServingSim::run(const std::vector<JobArrival> &arrivals,
                std::vector<JobResult> &out, ServeStats &stats,
                obs::ScenarioTrace *viz)
{
    if (sim::Error err = checkArrivals(arrivals, sp.classes.size()))
        return err;
    FaultServeStats all;
    serveLoop<false>(arrivals, out, all, viz, nullptr);
    stats = all.done;
    nJobs += stats.jobs;
    nBatches += stats.batches;
    nBatchedJobs += stats.batchedJobs;
    nWarmJobs += stats.warmJobs;
    nHitOps += stats.keyCacheHitOps;
    nOps += stats.totalOps;
    lastStats = stats;
    return {};
}

void
ServingSim::exportMetrics(obs::MetricsRegistry &m,
                          const std::string &prefix) const
{
    m.count(prefix + "jobs", nJobs);
    m.count(prefix + "batches", nBatches);
    m.count(prefix + "batched_jobs", nBatchedJobs);
    m.count(prefix + "warm_jobs", nWarmJobs);
    m.count(prefix + "key_cache_hit_ops", nHitOps);
    m.count(prefix + "total_ops", nOps);
    m.count(prefix + "estimator_evals", nEvals);
    m.gauge(prefix + "qps", lastStats.qps);
    m.gauge(prefix + "p50_latency_sec", lastStats.p50LatencySec);
    m.gauge(prefix + "p99_latency_sec", lastStats.p99LatencySec);
    m.gauge(prefix + "p999_latency_sec", lastStats.p999LatencySec);
    m.gauge(prefix + "max_queue_depth",
            static_cast<double>(lastStats.maxQueueDepth));
}

double
ServingSim::classServiceSec(std::size_t klass, bool warm,
                            std::size_t chip) const
{
    panicIf(klass >= models.size(), "class index out of range");
    panicIf(chip >= chipBw.size(), "chip index out of range");
    const ClassModel &m = models[klass];
    const std::size_t b = m.shards > 1 ? 0 : chipBw[chip];
    return warm ? m.warmSvc[b] : m.coldSvc[b];
}

std::size_t
ServingSim::estimatorEvals() const
{
    return nEvals;
}

sim::Error
trySimulateServing(const ServeSpec &spec,
                   const std::vector<JobArrival> &arrivals,
                   ExperimentRunner &runner, std::vector<JobResult> &out,
                   ServeStats &stats, tune::EvalCache *cache)
{
    if (sim::Error err = checkSpec(spec))
        return err;
    if (sim::Error err = checkStreams(arrivals, spec.classes.size()))
        return err;
    ServingSim sim(spec, runner, cache);
    return sim.run(arrivals, out, stats);
}

} // namespace ciflow::serve
