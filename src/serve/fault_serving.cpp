#include "serve/fault_serving.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "common/stats.h"
#include "fault/failover.h"
#include "fault/fault_replay.h"
#include "obs/traced_replay.h"
#include "rpu/experiment.h"
#include "serve/admission.h"
#include "shard/placement_search.h"
#include "shard/sharded_engine.h"

namespace ciflow::serve
{

namespace
{

constexpr std::uint32_t kNoRec = ~std::uint32_t{0};
const double kInf = std::numeric_limits<double>::infinity();

/**
 * Earliest epoch boundary in the table (+inf when empty). An op whose
 * clean duration ends at or before every boundary replays
 * bit-identically to the clean scalar (epochs past the makespan change
 * nothing), so the serving loop prices it clean and leaves it
 * unflagged — which is what makes rate events beyond the run's last
 * departure *cleanly* ignored rather than merely harmless.
 */
double
firstBoundary(const sim::RateEpochs &ep)
{
    double first = kInf;
    for (double a : ep.at)
        first = std::min(first, a);
    return first;
}

} // namespace

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

/** Per-class replay assets of one FaultServingSim (see header). */
struct FaultServingSim::Assets
{
    /** Single-chip degraded pricing: the class's HKS compiled once,
     * replayable piecewise at every fleet bandwidth. */
    struct OpSched
    {
        std::shared_ptr<const HksExperiment> exp;
        sim::CompiledSchedule cs;
        /** Replay rates per distinct chip bandwidth. */
        std::vector<sim::ReplayRates> rates;
    };

    /** Gang-class failover state: patchable sharded compiles (one per
     * key-cache variant) that chip failures re-place in place. */
    struct Gang
    {
        shard::ShardSpec spec;
        std::shared_ptr<const HksExperiment> expMiss, expHit;
        std::vector<double> wMiss, wHit;
        shard::Partition baseMiss, baseHit;
        shard::ShardedPatchable psMiss, psHit;
        sim::ReplayRates rMiss, rHit;
        /** Live slots; failovers retire the highest slots first, so
         * slots [0, activeSlots) are exactly the live ones. */
        std::vector<char> slotAlive;
        std::size_t activeSlots = 0;
        /** Per-op service under the current binding (the healthy model
         * scalars until the first failover). */
        double liveMiss = 0.0, liveHit = 0.0;
        bool failedOver = false;
    };

    /** The gang classes' engine; null when no class gangs. */
    std::unique_ptr<shard::ShardedEngine> eng;
    /** ops[k * 2 + variant]; variant 0 = miss, 1 = hit. Unused (empty)
     * for gang classes. */
    std::vector<OpSched> ops;
    /** gang[k]; null for single-chip classes. */
    std::vector<std::unique_ptr<Gang>> gang;
    sim::ReplayScratch scratch;
};

FaultServingSim::FaultServingSim(ServingSim &s)
    : sim(s), assets(std::make_unique<Assets>())
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
                Assets::OpSched &os =
                    assets->ops[k * 2 + static_cast<std::size_t>(variant)];
                os.exp = sim.runnerRef.experiment(
                    jc.params, jc.dataflow, variant ? hitMem : missMem);
                os.cs = RpuEngine(sim.chipAt(0))
                            .compile(os.exp->graph());
                os.rates.resize(sim.uniqBw.size());
                for (std::size_t b = 0; b < sim.uniqBw.size(); ++b)
                    RpuEngine(sim.chipAt(b))
                        .rates(os.cs, os.rates[b]);
            }
            continue;
        }
        // Only gang classes use the interconnect, so only they build
        // the engine (checkSpec validated the network for them).
        if (!assets->eng)
            assets->eng = std::make_unique<shard::ShardedEngine>(
                sp.fleet.chip, sp.fleet.interconnect);
        auto g = std::make_unique<Assets::Gang>();
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
    const std::size_t K = sp.fleet.chips;
    if (sim::Error err = checkStreams(arrivals, sp.classes.size()))
        return err;
    if (sim::Error err = checkRetryPolicy(policy))
        return err;
    fault::FaultTrace tr = trace;
    if (sim::Error err = fault::checkTrace(tr, shape()))
        return err;
    tr.normalize();

    if (viz) {
        sim.buildViz(sim.runnerRef);
        *viz = obs::ScenarioTrace{};
        if (sim.viz_ && !sim.viz_->names.empty())
            for (std::size_t c = 0; c < K; ++c)
                for (const std::string &nm : sim.viz_->names)
                    viz->resourceNames.push_back(
                        "chip" + std::to_string(c) + "/" + nm);
    }

    const std::size_t n = arrivals.size();
    out.assign(n, JobResult{});
    stats = FaultServeStats{};

    // Reset gang bindings a previous run's failovers moved.
    for (std::size_t k = 0; k < sp.classes.size(); ++k) {
        Assets::Gang *g = assets->gang[k].get();
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

    // The scripted chip failures, in time order; every chip's degrades
    // and stalls as rate spans, which op pricing probes and the epoch
    // builders fold.
    struct Fail
    {
        double at;
        std::uint32_t shard;
    };
    std::vector<Fail> fails;
    for (const fault::FaultEvent &e : tr.events)
        if (e.kind == fault::FaultKind::ChipFail)
            fails.push_back({e.atSec, e.shard});
    std::vector<std::vector<fault::ChipSpan>> spans(K);
    for (std::size_t c = 0; c < K; ++c)
        spans[c] = fault::chipSpans(tr, static_cast<std::uint32_t>(c));
    // Is chip c serving at degraded rate at time t? (Admission
    // deprioritizes such chips.)
    const auto degradedAt = [&](std::size_t c, double t) {
        for (const fault::ChipSpan &s : spans[c])
            if (s.atSec <= t && t < s.endSec)
                return true;
        return false;
    };

    // Effective deadline per job (absolute seconds).
    const auto deadlineOf = [&](std::uint32_t j) {
        return arrivals[j].atSec +
               std::min(arrivals[j].deadlineSec, policy.deadlineSec);
    };

    struct ChipState
    {
        double freeAt = 0.0;
        std::int64_t lastClass = -1;
        bool alive = true;
        std::uint32_t rec = kNoRec;
    };
    // One dispatched batch: who ran, where, and each job's simulated
    // finish — what a chip failure consults to split completed from
    // salvageable work.
    struct Rec
    {
        double end = 0.0;
        bool open = true;
        std::uint32_t klass = 0;
        std::vector<std::size_t> chips;
        std::vector<std::uint32_t> jobs;
        std::vector<double> fin;
    };
    using Item = AdmissionQueue::Item;
    const auto itemLess = [](const Item &a, const Item &b) {
        if (a.ready != b.ready)
            return a.ready < b.ready;
        return a.job < b.job;
    };

    std::vector<ChipState> chips(K);
    std::vector<Rec> recs;
    AdmissionQueue queue;
    queue.reset(sp.classes.size());
    std::vector<Item> retryQ;
    std::vector<std::uint8_t> jstate(n, 0); // 0 open, 1 done, 2 rejected
    std::vector<std::uint8_t> salvaged(n, 0);
    std::size_t next = 0, failIdx = 0, aliveCount = K;
    std::uint32_t batchSeq = 0;
    bool fleetDead = false;
    bool anySalvage = false;
    double firstFailAt = 0.0;
    std::vector<std::size_t> chosen;
    std::vector<std::uint32_t> batchIds;
    char label[160];

    const auto enqueue = [&](const Item &it) {
        queue.push(arrivals[it.job].klass, it);
    };
    const auto admitArrival = [&] {
        enqueue({arrivals[next].atSec, static_cast<std::uint32_t>(next)});
        ++next;
    };
    const auto admitRetry = [&] {
        enqueue(retryQ.front());
        retryQ.erase(retryQ.begin());
    };

    const auto reject = [&](std::uint32_t j, double at, bool timedOut) {
        JobResult &r = out[j];
        r.arriveSec = arrivals[j].atSec;
        r.startSec = r.finishSec = at;
        r.klass = arrivals[j].klass;
        r.tenant = arrivals[j].tenant;
        r.rejected = true;
        r.degraded = r.degraded || r.retries > 0;
        jstate[j] = 2;
        ++stats.rejectedJobs;
        if (timedOut)
            ++stats.timedOutJobs;
        if (viz) {
            std::snprintf(label, sizeof label, "%s job %u",
                          timedOut ? "timeout" : "reject", j);
            viz->marks.push_back({label, at, 0.0});
        }
    };

    // Salvage one in-flight job off a failing chip: bounded retries,
    // exponential backoff, per-job deadline — rejected, never lost.
    const auto salvage = [&](std::uint32_t j, double failAt) {
        jstate[j] = 0;
        salvaged[j] = 1;
        ++stats.salvagedJobs;
        if (!anySalvage) {
            anySalvage = true;
            firstFailAt = failAt;
        }
        JobResult &r = out[j];
        if (r.retries >= policy.maxRetries) {
            reject(j, failAt, false);
            return;
        }
        const double ready =
            failAt +
            std::ldexp(policy.backoffSec, static_cast<int>(r.retries));
        if (ready > deadlineOf(j)) {
            reject(j, failAt, true);
            return;
        }
        r.retries += 1;
        ++stats.retries;
        const Item it{ready, j};
        retryQ.insert(std::upper_bound(retryQ.begin(), retryQ.end(), it,
                                       itemLess),
                      it);
        if (viz) {
            std::snprintf(label, sizeof label, "retry job %u (#%u)", j,
                          r.retries);
            viz->marks.push_back({label, failAt, 0.0});
        }
    };

    const auto processFail = [&](const Fail &f) {
        if (!chips[f.shard].alive)
            return;
        chips[f.shard].alive = false;
        --aliveCount;
        ++stats.chipFailures;
        if (viz) {
            std::snprintf(label, sizeof label, "chip %u failed", f.shard);
            viz->marks.push_back({label, f.at, 0.0});
        }
        // Revoke the dead chip's in-flight batch: jobs simulated to
        // finish after the failure restart; earlier ones completed.
        const std::uint32_t ri = chips[f.shard].rec;
        if (ri != kNoRec && recs[ri].open && recs[ri].end > f.at) {
            Rec &r = recs[ri];
            r.open = false;
            for (std::size_t i = 0; i < r.jobs.size(); ++i)
                if (r.fin[i] > f.at)
                    salvage(r.jobs[i], f.at);
            // Surviving gang members drop the cut batch and free up.
            for (std::size_t c : r.chips)
                if (c != f.shard && chips[c].alive) {
                    chips[c].freeAt = f.at;
                    chips[c].rec = kNoRec;
                }
        }
        chips[f.shard].rec = kNoRec;
        if (aliveCount == 0) {
            // Fleet death: every open job is rejected, never lost —
            // queued ones in queue order.
            fleetDead = true;
            queue.drain([&](const Item &it) {
                if (jstate[it.job] == 0)
                    reject(it.job, std::max(f.at, arrivals[it.job].atSec),
                           false);
            });
            for (const Item &it : retryQ)
                if (jstate[it.job] == 0)
                    reject(it.job, std::max(f.at, arrivals[it.job].atSec),
                           false);
            for (std::size_t j = next; j < n; ++j)
                reject(static_cast<std::uint32_t>(j),
                       std::max(f.at, arrivals[j].atSec), false);
            retryQ.clear();
            next = n;
            return;
        }
        // Gang classes wider than the surviving fleet fail over
        // through the partition patch path, paying migration as a
        // wall-clock pause on every survivor.
        for (std::size_t k = 0; k < sp.classes.size(); ++k) {
            Assets::Gang *g = assets->gang[k].get();
            if (!g || g->activeSlots <= aliveCount)
                continue;
            std::uint64_t bytes = 0;
            while (g->activeSlots > aliveCount) {
                const std::uint32_t dead =
                    static_cast<std::uint32_t>(g->activeSlots - 1);
                g->slotAlive[dead] = 0;
                --g->activeSlots;
                fault::FailoverPlan plan;
                sim::Error err = fault::planFailover(
                    g->expMiss->graph(), g->spec, g->psMiss.part, dead,
                    g->slotAlive, nullptr, g->wMiss, plan);
                panicIf(bool(err), "gang failover planning failed");
                assets->eng->recompilePartition(g->psMiss, plan.part);
                bytes += plan.migrationBytes;
                fault::FailoverPlan planHit;
                err = fault::planFailover(
                    g->expHit->graph(), g->spec, g->psHit.part, dead,
                    g->slotAlive, nullptr, g->wHit, planHit);
                panicIf(bool(err), "gang failover planning failed");
                assets->eng->recompilePartition(g->psHit, planHit.part);
            }
            ++stats.failovers;
            g->failedOver = true;
            g->liveMiss = assets->eng->replayRuntime(g->psMiss.compiled);
            g->liveHit = assets->eng->replayRuntime(g->psHit.compiled);
            assets->eng->rates(g->psMiss.compiled, g->rMiss);
            assets->eng->rates(g->psHit.compiled, g->rHit);
            const double mig = fault::migrationSeconds(
                bytes, sp.fleet.interconnect, aliveCount);
            stats.migratedBytes += bytes;
            stats.migrationSec += mig;
            if (mig > 0.0) {
                for (std::size_t c = 0; c < K; ++c)
                    if (chips[c].alive)
                        chips[c].freeAt =
                            std::max(chips[c].freeAt, f.at) + mig;
                if (viz) {
                    std::snprintf(label, sizeof label,
                                  "migrate %llu B (%s)",
                                  static_cast<unsigned long long>(bytes),
                                  sp.classes[k].name.c_str());
                    viz->marks.push_back({label, f.at, mig});
                }
            }
        }
    };

    // Would this failure revoke any in-flight work? (The drain phase
    // ignores trailing failures that cannot — events beyond the last
    // departure leave the run untouched.)
    const auto failRevokes = [&](const Fail &f) {
        if (!chips[f.shard].alive)
            return false;
        const std::uint32_t ri = chips[f.shard].rec;
        return ri != kNoRec && recs[ri].open && recs[ri].end > f.at;
    };

    // Degraded prices of this run. A replay that finished no later
    // than its table's first edge past local time 0 depended on the
    // table's entries at 0 alone, so its price serves every op of the
    // same (class, variant, schedule) with the same entries whose own
    // first later edge lies at or past it. A schedule is its bandwidth
    // index (single-chip) or the gang binding's layout tag.
    struct PriceMemo
    {
        std::uint32_t klass;
        std::uint32_t variant;
        std::uint64_t sched;
        std::vector<fault::EpochAtZero> at0;
        double dur;
    };
    std::vector<PriceMemo> memo;
    std::vector<fault::EpochAtZero> at0;

    fault::FaultTrace remapped; // gang-slot view of the fleet trace
    sim::RateEpochs ep;

    while (!fleetDead) {
        if (next >= n && queue.empty() && retryQ.empty()) {
            // Only failures remain: process up to the next one that
            // revokes in-flight work; ignore the rest.
            std::size_t scan = failIdx;
            while (scan < fails.size() && !failRevokes(fails[scan]))
                ++scan;
            if (scan >= fails.size())
                break;
            for (; failIdx <= scan; ++failIdx)
                processFail(fails[failIdx]);
            continue;
        }
        if (queue.empty()) {
            if (next < n && (retryQ.empty() ||
                             arrivals[next].atSec <= retryQ.front().ready))
                admitArrival();
            else
                admitRetry();
        }
        const std::uint32_t k = queue.headClass();
        const Item head = queue.front(k);
        const ServingSim::ClassModel &m = sim.models[k];
        Assets::Gang *g = assets->gang[k].get();
        const std::size_t width = g ? g->activeSlots : 1;

        // The `width` least-loaded *alive* chips, degraded chips
        // deprioritized, ties to the lowest id.
        chosen.clear();
        for (std::size_t c = 0; c < K; ++c)
            if (chips[c].alive)
                chosen.push_back(c);
        std::sort(chosen.begin(), chosen.end(),
                  [&](std::size_t a, std::size_t b) {
                      const bool da = degradedAt(
                          a, std::max(head.ready, chips[a].freeAt));
                      const bool db = degradedAt(
                          b, std::max(head.ready, chips[b].freeAt));
                      if (da != db)
                          return !da;
                      if (chips[a].freeAt != chips[b].freeAt)
                          return chips[a].freeAt < chips[b].freeAt;
                      return a < b;
                  });
        chosen.resize(width);
        double start = head.ready;
        for (std::size_t c : chosen)
            start = std::max(start, chips[c].freeAt);

        // Failures due by the dispatch time land first; the fleet
        // they leave behind re-selects from scratch.
        if (failIdx < fails.size() && fails[failIdx].at <= start) {
            processFail(fails[failIdx]);
            ++failIdx;
            continue;
        }
        if (start > deadlineOf(head.job)) {
            reject(head.job, start, true);
            queue.pop(k);
            continue;
        }

        while (next < n && arrivals[next].atSec <= start)
            admitArrival();
        while (!retryQ.empty() && retryQ.front().ready <= start)
            admitRetry();
        stats.done.maxQueueDepth =
            std::max(stats.done.maxQueueDepth, queue.size());

        const std::size_t bwIdx =
            m.shards > 1 ? 0
                         : sim.chipBw[*std::min_element(chosen.begin(),
                                                        chosen.end())];
        bool warmCtx = true;
        for (std::size_t c : chosen)
            warmCtx = warmCtx &&
                      chips[c].lastClass == static_cast<std::int64_t>(k);

        // p4db-style batch formation, exactly as the healthy loop;
        // candidates past their deadline stay queued (they reject when
        // they reach the head).
        queue.takeBatch(
            k, sp.batch, warmCtx ? m.warmSvc[bwIdx] : m.coldSvc[bwIdx],
            m.warmSvc[bwIdx],
            [&](std::uint32_t j) { return start > deadlineOf(j); },
            batchIds);

        // Only chips with rate spans can price an op off its clean
        // scalar. A gang remaps their events once per dispatch into
        // slot coordinates (chosen[i] -> slot i).
        bool affected = false;
        for (std::size_t c : chosen)
            affected = affected || !spans[c].empty();
        if (g && affected) {
            remapped.events.clear();
            for (const fault::FaultEvent &e : tr.events) {
                if (e.kind != fault::FaultKind::ChannelDegrade &&
                    e.kind != fault::FaultKind::TransientStall)
                    continue;
                for (std::size_t i = 0; i < width; ++i)
                    if (chosen[i] == e.shard) {
                        fault::FaultEvent ev = e;
                        ev.shard = static_cast<std::uint32_t>(i);
                        remapped.events.push_back(ev);
                        break;
                    }
            }
            remapped.normalize();
        }
        const bool gangFo = g && g->activeSlots < m.shards;

        const std::uint32_t firstChip = static_cast<std::uint32_t>(
            *std::min_element(chosen.begin(), chosen.end()));
        // A single-chip op priced clean renders as the class's clean
        // replay placed on its chip.
        const auto cleanSegment = [&](std::uint32_t variant, double t) {
            if (!viz || !sim.viz_ || g)
                return;
            obs::TraceSegment seg;
            seg.baseSec = t;
            seg.resourceBase =
                static_cast<std::uint32_t>(firstChip * sim.viz_->perChip);
            seg.buf = sim.viz_->bufs[k][variant][bwIdx];
            viz->segments.push_back(std::move(seg));
        };
        // Price one op starting at t: its clean scalar, or a piecewise
        // replay when a fault epoch overlaps it (`degraded`).
        const auto priceOp = [&](std::uint32_t variant, double t,
                                 bool &degraded) {
            const Assets::OpSched *os =
                g ? nullptr : &assets->ops[k * 2 + variant];
            const double clean =
                g ? (variant ? g->liveHit : g->liveMiss)
                  : (variant ? m.hitRt[bwIdx] : m.missRt[bwIdx]);
            degraded = false;
            if (!affected) {
                cleanSegment(variant, t);
                return clean;
            }
            // The op's epoch table up to the first span edge past its
            // start holds only its entries at local time 0.
            at0.clear();
            double edge = kInf;
            if (!g) {
                edge = fault::probeChipSpans(spans[chosen[0]],
                                             os->cs.resourceCount(), t, 0,
                                             at0);
            } else {
                const std::size_t per = g->psMiss.compiled.perChip;
                for (std::size_t s = 0; s < width; ++s)
                    edge = std::min(
                        edge, fault::probeChipSpans(
                                  spans[chosen[s]], per, t,
                                  static_cast<std::uint32_t>(s * per),
                                  at0));
            }
            // The table's first boundary is 0 when it has entries
            // there, else at or past `edge`: with no entry at 0 and the
            // edge at or past the clean finish the op prices clean, no
            // table needed.
            if (at0.empty() && edge >= clean) {
                cleanSegment(variant, t);
                return clean;
            }
            const sim::CompiledSchedule &cs =
                g ? (variant ? g->psHit : g->psMiss).compiled.schedule
                  : os->cs;
            const sim::ReplayRates &rates =
                g ? (variant ? g->rHit : g->rMiss) : os->rates[bwIdx];
            const std::uint64_t sched = g ? cs.layoutTag() : bwIdx;
            // A viz run records each degraded single-chip op's own
            // replay, so it reads no memo there.
            const bool traced = viz && !g;
            if (!at0.empty() && !traced)
                for (const PriceMemo &e : memo)
                    if (e.klass == k && e.variant == variant &&
                        e.sched == sched && e.at0 == at0) {
                        if (e.dur > edge)
                            break;
                        ++nMemoHits;
                        degraded = true;
                        return e.dur;
                    }
            ep = g ? fault::buildEpochs(remapped, g->psMiss.compiled, t)
                   : fault::buildChipEpochs(
                         tr, static_cast<std::uint32_t>(chosen[0]),
                         os->cs.resourceCount(), t);
            ++nEpochTables;
            if (!(firstBoundary(ep) < clean)) {
                cleanSegment(variant, t);
                return clean;
            }
            degraded = true;
            ++nPiecewiseReplays;
            double dur;
            if (traced) {
                obs::TraceSegment seg;
                seg.baseSec = t;
                seg.resourceBase = static_cast<std::uint32_t>(
                    firstChip * (sim.viz_ ? sim.viz_->perChip
                                          : cs.resourceCount()));
                seg.epochs = ep;
                dur = obs::replayPiecewiseTraced(cs, rates, ep, nullptr,
                                                 assets->scratch, seg.buf);
                viz->segments.push_back(std::move(seg));
            } else {
                dur = cs.replayPiecewise(rates, ep, nullptr,
                                         assets->scratch);
            }
            if (!at0.empty() && dur <= edge)
                memo.push_back({k, variant, sched, at0, dur});
            return dur;
        };

        // Execute the batch; each job's ops price in order.
        const std::uint32_t recIdx =
            static_cast<std::uint32_t>(recs.size());
        recs.emplace_back();
        Rec &rec = recs.back();
        rec.klass = k;
        rec.chips.assign(chosen.begin(), chosen.end());
        double t = start;
        for (std::size_t b = 0; b < batchIds.size(); ++b) {
            const std::uint32_t j = batchIds[b];
            const bool warm = b > 0 || warmCtx;
            const std::vector<std::uint8_t> &mask =
                warm ? m.warmMask : m.coldMask;
            const double jobStart = t;
            bool jobDegraded = false;
            for (std::size_t i = 0; i < mask.size(); ++i) {
                bool opDegraded = false;
                t += priceOp(mask[i] ? 1 : 0, t, opDegraded);
                jobDegraded = jobDegraded || opDegraded;
            }
            JobResult &res = out[j];
            res.arriveSec = arrivals[j].atSec;
            res.startSec = jobStart;
            res.finishSec = t;
            res.klass = k;
            res.tenant = arrivals[j].tenant;
            res.chip = firstChip;
            res.batch = batchSeq;
            res.warmStart = warm;
            res.rejected = false;
            res.degraded = jobDegraded || res.retries > 0 || gangFo;
            jstate[j] = 1;
            rec.jobs.push_back(j);
            rec.fin.push_back(t);
        }
        rec.end = t;
        for (std::size_t c : chosen) {
            chips[c].freeAt = t;
            chips[c].lastClass = static_cast<std::int64_t>(k);
            chips[c].rec = recIdx;
        }
        if (viz) {
            std::snprintf(label, sizeof label,
                          "batch %u: %zux %s @chip%u%s", batchSeq,
                          batchIds.size(), sp.classes[k].name.c_str(),
                          firstChip, m.shards > 1 ? " (gang)" : "");
            viz->marks.push_back({label, start, t - start});
        }
        ++batchSeq;
        ++stats.done.batches;
        if (batchIds.size() > 1)
            stats.done.batchedJobs += batchIds.size();
    }

    // Aggregate. Completed jobs reproduce the healthy aggregation
    // arithmetic (out order, same sums) so an empty trace yields the
    // identical ServeStats; the fault ledger and the healthy/degraded
    // latency split ride alongside.
    std::vector<double> lat, healthyLat, degradedLat;
    double sum = 0.0;
    double maxSalvagedSettle = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const JobResult &r = out[j];
        if (jstate[j] == 2) {
            if (salvaged[j])
                maxSalvagedSettle =
                    std::max(maxSalvagedSettle, r.finishSec);
            continue;
        }
        if (jstate[j] == 0) {
            ++stats.lostJobs; // must stay 0 (CI-gated)
            continue;
        }
        ++stats.completedJobs;
        if (salvaged[j])
            maxSalvagedSettle = std::max(maxSalvagedSettle, r.finishSec);
        const ServingSim::ClassModel &m = sim.models[r.klass];
        stats.done.warmJobs += r.warmStart ? 1 : 0;
        stats.done.keyCacheHitOps +=
            r.warmStart ? m.warmHits : m.coldHits;
        stats.done.totalOps += m.coldMask.size();
        lat.push_back(r.latencySec());
        sum += r.latencySec();
        stats.done.makespanSec =
            std::max(stats.done.makespanSec, r.finishSec);
        if (r.degraded) {
            ++stats.degradedJobs;
            degradedLat.push_back(r.latencySec());
        } else {
            ++stats.healthyJobs;
            healthyLat.push_back(r.latencySec());
        }
    }
    stats.done.jobs = stats.completedJobs;
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        stats.done.meanLatencySec =
            sum / static_cast<double>(lat.size());
        stats.done.p50LatencySec = stats::percentileSorted(lat, 0.50);
        stats.done.p99LatencySec = stats::percentileSorted(lat, 0.99);
        stats.done.p999LatencySec = stats::percentileSorted(lat, 0.999);
        stats.done.maxLatencySec = lat.back();
        if (stats.done.makespanSec > 0.0)
            stats.done.qps = static_cast<double>(stats.done.jobs) /
                             stats.done.makespanSec;
    }
    if (!healthyLat.empty()) {
        std::sort(healthyLat.begin(), healthyLat.end());
        stats.healthyP50Sec = stats::percentileSorted(healthyLat, 0.50);
        stats.healthyP99Sec = stats::percentileSorted(healthyLat, 0.99);
    }
    if (!degradedLat.empty()) {
        std::sort(degradedLat.begin(), degradedLat.end());
        stats.degradedP50Sec =
            stats::percentileSorted(degradedLat, 0.50);
        stats.degradedP99Sec =
            stats::percentileSorted(degradedLat, 0.99);
    }
    if (stats.healthyP99Sec > 0.0 && stats.degradedP99Sec > 0.0)
        stats.degradedOverHealthyP99 =
            stats.degradedP99Sec / stats.healthyP99Sec;
    if (anySalvage)
        stats.recoverySec =
            std::max(0.0, maxSalvagedSettle - firstFailAt);

    if (viz)
        for (const JobResult &r : out)
            viz->marks.push_back(
                {"arrive " + sp.classes[r.klass].name + " t" +
                     std::to_string(r.tenant),
                 r.arriveSec, 0.0});

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
