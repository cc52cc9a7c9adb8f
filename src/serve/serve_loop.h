/**
 * @file
 * The serving loop: the one admission and dispatch event loop behind
 * ServingSim::run and FaultServingSim::run.
 *
 * ServingSim::serveLoop<Faults> walks a normalized arrival stream
 * against the fleet. It picks the least-loaded chip(s) for the head
 * job's class and admits the arrivals due by the dispatch time. It
 * forms a p4db-style batch through AdmissionQueue::takeBatch and
 * accumulates each job's finish op by op from the class model's
 * prices. Last, it aggregates latency percentiles and QPS over the
 * completed jobs. The compile-time flag picks the instantiation:
 *
 *  - `serveLoop<false>` is ServingSim::run. Every fault step compiles
 *    away, so it is the plain arithmetic loop, and it ignores
 *    JobArrival::deadlineSec.
 *  - `serveLoop<true>` is FaultServingSim::run. It adds, under
 *    `if constexpr`: chip-failure processing and fleet death; deadline
 *    rejection and the takeBatch skip predicate; the retry queue;
 *    degraded-first chip order; piecewise pricing over per-chip fault
 *    timelines; the per-batch ledger a chip failure consults; and the
 *    healthy/degraded latency split.
 *
 * On an empty trace the two instantiations agree bit for bit
 * (tests/test_fault_serve.cpp), and tests/legacy_serving.h pins the
 * healthy arithmetic to the loop it replaced.
 *
 * Internal to the library: callers validate the spec, stream, policy
 * and trace first.
 */

#ifndef CIFLOW_SERVE_SERVE_LOOP_H
#define CIFLOW_SERVE_SERVE_LOOP_H

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fault/failover.h"
#include "fault/fault_replay.h"
#include "obs/traced_replay.h"
#include "serve/admission.h"
#include "serve/fault_serving.h"
#include "shard/sharded_engine.h"

namespace ciflow::serve::detail
{

/** Per-class replay assets of one FaultServingSim (see its header). */
struct FaultAssets
{
    /** Single-chip degraded pricing: the class's HKS schedule for the
     * fleet chip, from the experiment's layout cache, replayable
     * piecewise at every fleet bandwidth. */
    struct OpSched
    {
        std::shared_ptr<const HksExperiment> exp;
        /** exp->compiled(chip); lives as long as `exp`. */
        const sim::CompiledSchedule *cs = nullptr;
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

/** What the fault-aware instantiation reads beyond the healthy loop's
 * inputs, and the pricing work it reports back. */
struct FaultRun
{
    /** Checked and normalized. */
    const fault::FaultTrace &trace;
    const RetryPolicy &policy;
    FaultAssets &assets;
    /** Piecewise replays run, degraded prices reused from the run's
     * memo, epoch tables built. */
    std::size_t piecewiseReplays = 0, memoHits = 0, epochTables = 0;
};

/** Hash of a degraded-price memo key. */
struct MemoKeyHash
{
    std::size_t
    operator()(const std::vector<std::uint32_t> &key) const
    {
        std::uint64_t h = key.size();
        for (std::uint32_t x : key)
            h = splitmix64(h ^ x);
        return static_cast<std::size_t>(h);
    }
};

inline constexpr std::uint32_t kNoRec = ~std::uint32_t{0};
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Earliest epoch boundary in the table (+inf when empty). An op whose
 * clean duration ends at or before every boundary replays
 * bit-identically to the clean scalar (epochs past the makespan change
 * nothing), so the serving loop prices it clean and leaves it
 * unflagged — which is what makes rate events beyond the run's last
 * departure *cleanly* ignored rather than merely harmless.
 */
inline double
firstBoundary(const sim::RateEpochs &ep)
{
    double first = kInf;
    for (double a : ep.at)
        first = std::min(first, a);
    return first;
}

} // namespace ciflow::serve::detail

namespace ciflow::serve
{

template <bool Faults>
void
ServingSim::serveLoop(const std::vector<JobArrival> &arrivals,
                      std::vector<JobResult> &out, FaultServeStats &stats,
                      obs::ScenarioTrace *viz, detail::FaultRun *fr)
{
    using detail::kInf;
    using detail::kNoRec;
    using Gang = detail::FaultAssets::Gang;
    const std::size_t K = sp.fleet.chips;
    const std::size_t n = arrivals.size();
    if (viz) {
        buildViz(runnerRef);
        *viz = obs::ScenarioTrace{};
        if (viz_ && !viz_->names.empty())
            for (std::size_t c = 0; c < K; ++c)
                for (const std::string &nm : viz_->names)
                    viz->resourceNames.push_back(
                        "chip" + std::to_string(c) + "/" + nm);
    }
    out.assign(n, JobResult{});
    stats = FaultServeStats{};
    ServeStats &done = stats.done;

    // The scripted chip failures, in time order; every chip's degrades
    // and stalls as a timeline, which admission and op pricing probe
    // and the epoch tables fold. Its at-zero states cover every block
    // width a class prices at.
    struct Fail
    {
        double at;
        std::uint32_t shard;
    };
    std::vector<Fail> fails;
    std::optional<fault::ChipTimelines> tl;
    if constexpr (Faults) {
        for (const fault::FaultEvent &e : fr->trace.events)
            if (e.kind == fault::FaultKind::ChipFail)
                fails.push_back({e.atSec, e.shard});
        std::vector<std::size_t> widths;
        for (std::size_t k = 0; k < sp.classes.size(); ++k)
            for (std::uint32_t variant = 0; variant < 2; ++variant) {
                const Gang *g = fr->assets.gang[k].get();
                const std::size_t w =
                    g ? g->psMiss.compiled.perChip
                      : fr->assets.ops[k * 2 + variant].cs->resourceCount();
                if (std::find(widths.begin(), widths.end(), w) ==
                    widths.end())
                    widths.push_back(w);
            }
        tl.emplace(fr->trace, K, widths);
    }
    // Effective deadline per job (absolute seconds).
    const auto deadlineOf = [&](std::uint32_t j) {
        return arrivals[j].atSec +
               std::min(arrivals[j].deadlineSec, fr->policy.deadlineSec);
    };

    struct ChipState
    {
        double freeAt = 0.0;
        std::int64_t lastClass = -1;
        // Read under faults only: whether the chip is alive, and its
        // last dispatched batch in `recs` (kNoRec = none).
        bool alive = true;
        std::uint32_t rec = kNoRec;
    };
    // One dispatched batch: where it ran and each job's simulated
    // finish — what a chip failure consults to split completed from
    // salvageable work. Its chips are ledgerChips[chip0, chip0 +
    // nChips), its jobs and their finishes ledgerJobs and ledgerFin
    // [job0, job0 + nJobs): run-level arrays, so a batch allocates
    // nothing of its own.
    struct Rec
    {
        double end = 0.0;
        bool open = true;
        std::uint32_t chip0 = 0, nChips = 0, job0 = 0, nJobs = 0;
    };
    using Item = AdmissionQueue::Item;
    const auto itemLess = [](const Item &a, const Item &b) {
        if (a.ready != b.ready)
            return a.ready < b.ready;
        return a.job < b.job;
    };

    std::vector<ChipState> chips(K);
    std::vector<Rec> recs;
    std::vector<std::uint32_t> ledgerChips, ledgerJobs;
    std::vector<double> ledgerFin;
    AdmissionQueue queue;
    queue.reset(sp.classes.size());
    std::vector<Item> retryQ;
    // Per job: 0 open, 1 done, 2 rejected; and whether it was salvaged.
    std::vector<std::uint8_t> jstate(Faults ? n : 0), salvaged(jstate);
    std::size_t next = 0, failIdx = 0, aliveCount = K;
    std::uint32_t batchSeq = 0;
    bool anySalvage = false;
    double firstFailAt = 0.0;
    std::vector<std::size_t> chosen;
    // Per chip: degraded at its would-be start of the batch forming.
    std::vector<char> late(Faults ? K : 0);
    std::vector<std::uint32_t> batchIds;
    char label[160];

    const auto admitArrival = [&] {
        queue.push(arrivals[next].klass,
                   {arrivals[next].atSec, static_cast<std::uint32_t>(next)});
        ++next;
    };
    const auto admitRetry = [&] {
        queue.push(arrivals[retryQ.front().job].klass, retryQ.front());
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
        if (r.retries >= fr->policy.maxRetries) {
            reject(j, failAt, false);
            return;
        }
        const double ready =
            failAt + std::ldexp(fr->policy.backoffSec,
                                static_cast<int>(r.retries));
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

    // Would this failure revoke any in-flight work? (The drain phase
    // ignores trailing failures that cannot — events beyond the last
    // departure leave the run untouched.)
    const auto failRevokes = [&](const Fail &f) {
        if (!chips[f.shard].alive)
            return false;
        const std::uint32_t ri = chips[f.shard].rec;
        return ri != kNoRec && recs[ri].open && recs[ri].end > f.at;
    };

    const auto processFail = [&](const Fail &f) {
        if (!chips[f.shard].alive)
            return;
        const bool revokes = failRevokes(f);
        chips[f.shard].alive = false;
        --aliveCount;
        ++stats.chipFailures;
        if (viz) {
            std::snprintf(label, sizeof label, "chip %u failed", f.shard);
            viz->marks.push_back({label, f.at, 0.0});
        }
        // Revoke the dead chip's in-flight batch: jobs simulated to
        // finish after the failure restart; earlier ones completed.
        if (revokes) {
            Rec &r = recs[chips[f.shard].rec];
            r.open = false;
            for (std::uint32_t i = r.job0; i < r.job0 + r.nJobs; ++i)
                if (ledgerFin[i] > f.at)
                    salvage(ledgerJobs[i], f.at);
            // Surviving gang members drop the cut batch and free up.
            for (std::uint32_t i = r.chip0; i < r.chip0 + r.nChips; ++i) {
                const std::uint32_t c = ledgerChips[i];
                if (c != f.shard && chips[c].alive) {
                    chips[c].freeAt = f.at;
                    chips[c].rec = kNoRec;
                }
            }
        }
        chips[f.shard].rec = kNoRec;
        if (aliveCount == 0) {
            // Fleet death: every open job is rejected, never lost —
            // queued ones in queue order. The loop then finds nothing
            // left to serve and no failure left to revoke work.
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
            Gang *g = fr->assets.gang[k].get();
            if (!g || g->activeSlots <= aliveCount)
                continue;
            shard::ShardedEngine &eng = *fr->assets.eng;
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
                eng.recompilePartition(g->psMiss, plan.part);
                bytes += plan.migrationBytes;
                fault::FailoverPlan planHit;
                err = fault::planFailover(
                    g->expHit->graph(), g->spec, g->psHit.part, dead,
                    g->slotAlive, nullptr, g->wHit, planHit);
                panicIf(bool(err), "gang failover planning failed");
                eng.recompilePartition(g->psHit, planHit.part);
            }
            ++stats.failovers;
            g->failedOver = true;
            g->liveMiss = eng.replayRuntime(g->psMiss.compiled);
            g->liveHit = eng.replayRuntime(g->psHit.compiled);
            eng.rates(g->psMiss.compiled, g->rMiss);
            eng.rates(g->psHit.compiled, g->rHit);
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

    // Degraded prices of this run. A replay that finished no later
    // than its table's first edge past local time 0 depended on the
    // table's entries at 0 alone, so its price serves every op of the
    // same (class, variant, schedule) with the same entries whose own
    // first later edge lies at or past it. A schedule is its bandwidth
    // index (single-chip) or the gang binding's layout tag; the
    // entries are the slot chips' interned at-zero states, trailing
    // empty ones dropped, so equal keys mean equal entries. The first
    // price stored under a key is the one every later lookup reads.
    std::unordered_map<std::vector<std::uint32_t>, double,
                       detail::MemoKeyHash>
        memo;
    std::vector<std::uint32_t> memoKey;
    sim::RateEpochs ep;

    for (;;) {
        if (next >= n && queue.empty() && retryQ.empty()) {
            if constexpr (Faults) {
                // Only failures remain: process up to the next one
                // that revokes in-flight work; ignore the rest.
                std::size_t scan = failIdx;
                while (scan < fails.size() && !failRevokes(fails[scan]))
                    ++scan;
                if (scan < fails.size()) {
                    for (; failIdx <= scan; ++failIdx)
                        processFail(fails[failIdx]);
                    continue;
                }
            }
            break;
        }
        if (queue.empty()) {
            // The healthy loop never retries: with the queue empty, an
            // arrival is left (else the loop ended above).
            if (!Faults ||
                (next < n && (retryQ.empty() ||
                              arrivals[next].atSec <= retryQ.front().ready)))
                admitArrival();
            else
                admitRetry();
        }
        const std::uint32_t k = queue.headClass();
        const Item head = queue.front(k);
        const ClassModel &m = models[k];
        Gang *g = nullptr;
        if constexpr (Faults)
            g = fr->assets.gang[k].get();
        const std::size_t width = g ? g->activeSlots : m.shards;

        // The `width` least-loaded alive chips, ties to the lowest id;
        // under faults, chips degraded at their would-be start go last.
        // The order is strict and total, so a partial sort picks the
        // same chips a full sort would.
        chosen.clear();
        for (std::size_t c = 0; c < K; ++c)
            if (!Faults || chips[c].alive) {
                chosen.push_back(c);
                if constexpr (Faults)
                    late[c] = tl->degradedAt(
                        c, std::max(head.ready, chips[c].freeAt));
            }
        const auto before = [&](std::size_t a, std::size_t b) {
            if constexpr (Faults)
                if (late[a] != late[b])
                    return !late[a];
            if (chips[a].freeAt != chips[b].freeAt)
                return chips[a].freeAt < chips[b].freeAt;
            return a < b;
        };
        std::partial_sort(chosen.begin(),
                          chosen.begin() + static_cast<std::ptrdiff_t>(width),
                          chosen.end(), before);
        chosen.resize(width);
        double start = head.ready;
        for (std::size_t c : chosen)
            start = std::max(start, chips[c].freeAt);

        if constexpr (Faults) {
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
        }

        // Jobs arriving (and retries coming due) while the chips drain
        // are admission candidates: they may join this batch.
        while (next < n && arrivals[next].atSec <= start)
            admitArrival();
        if constexpr (Faults)
            while (!retryQ.empty() && retryQ.front().ready <= start)
                admitRetry();
        done.maxQueueDepth = std::max(done.maxQueueDepth, queue.size());

        const std::uint32_t firstChip = static_cast<std::uint32_t>(
            *std::min_element(chosen.begin(), chosen.end()));
        const std::size_t bwIdx = m.shards > 1 ? 0 : chipBw[firstChip];
        bool warmCtx = true;
        for (std::size_t c : chosen)
            warmCtx = warmCtx &&
                      chips[c].lastClass == static_cast<std::int64_t>(k);

        // p4db-style target batch: coalesce queued same-class jobs
        // behind the head until the size target or the estimated batch
        // duration is reached. Under faults, candidates past their
        // deadline stay queued (they reject when they reach the head).
        queue.takeBatch(
            k, sp.batch, warmCtx ? m.warmSvc[bwIdx] : m.coldSvc[bwIdx],
            m.warmSvc[bwIdx],
            [&](std::uint32_t j) { return Faults && start > deadlineOf(j); },
            batchIds);

        // Only chips with rate spans can price an op off its clean
        // scalar. A gang's slot i runs on chip chosen[i].
        bool affected = false, gangFo = false;
        if constexpr (Faults) {
            for (std::size_t c : chosen)
                affected = affected || !tl->spans(c).empty();
            gangFo = g && g->activeSlots < m.shards;
        }

        // A single-chip op priced clean renders as the class's clean
        // replay placed on its chip.
        const auto cleanSegment = [&](std::uint32_t variant, double t) {
            if (!viz || !viz_ || m.shards > 1)
                return;
            obs::TraceSegment seg;
            seg.baseSec = t;
            seg.resourceBase =
                static_cast<std::uint32_t>(firstChip * viz_->perChip);
            seg.buf = viz_->bufs[k][variant][bwIdx];
            viz->segments.push_back(std::move(seg));
        };
        // Under faults, the price of an op starting at t that a fault
        // epoch overlaps: a piecewise replay, or the memoized price of
        // one. Returns false when the op prices clean after all.
        const auto degradedPrice = [&](std::uint32_t variant, double t,
                                       double clean, double &dur) {
            const detail::FaultAssets::OpSched *os =
                g ? nullptr : &fr->assets.ops[k * 2 + variant];
            const std::size_t per =
                g ? g->psMiss.compiled.perChip : os->cs->resourceCount();
            const sim::CompiledSchedule &cs =
                g ? (variant ? g->psHit : g->psMiss).compiled.schedule
                  : *os->cs;
            const std::uint64_t sched = g ? cs.layoutTag() : bwIdx;
            // The op's epoch table up to the first span edge past its
            // start holds only its entries at local time 0: each slot
            // chip's at-zero state.
            memoKey.assign({k, variant, static_cast<std::uint32_t>(sched),
                            static_cast<std::uint32_t>(sched >> 32)});
            double edge = kInf;
            for (std::size_t s = 0; s < width; ++s) {
                std::uint32_t state = 0;
                edge = std::min(edge, tl->probe(chosen[s], per, t, state));
                memoKey.push_back(state);
            }
            while (memoKey.size() > 4 && memoKey.back() == 0)
                memoKey.pop_back();
            const bool atZero = memoKey.size() > 4;
            // The table's first boundary is 0 when it has entries
            // there, else at or past `edge`: with no entry at 0 and the
            // edge at or past the clean finish the op prices clean, no
            // table needed.
            if (!atZero && edge >= clean)
                return false;
            const sim::ReplayRates &rates =
                g ? (variant ? g->rHit : g->rMiss) : os->rates[bwIdx];
            // A viz run records each degraded single-chip op's own
            // replay, so it reads no memo there.
            const bool traced = viz && !g;
            if (atZero && !traced) {
                const auto hit = memo.find(memoKey);
                if (hit != memo.end() && hit->second <= edge) {
                    ++fr->memoHits;
                    dur = hit->second;
                    return true;
                }
            }
            const std::size_t nres =
                g ? g->psMiss.compiled.shards * per +
                        g->psMiss.compiled.links
                  : per;
            ep = tl->epochs(chosen.data(), width, per, nres, t);
            ++fr->epochTables;
            if (!(detail::firstBoundary(ep) < clean))
                return false;
            ++fr->piecewiseReplays;
            if (traced) {
                obs::TraceSegment seg;
                seg.baseSec = t;
                seg.resourceBase = static_cast<std::uint32_t>(
                    firstChip *
                    (viz_ ? viz_->perChip : cs.resourceCount()));
                seg.epochs = ep;
                dur = obs::replayPiecewiseTraced(cs, rates, ep, nullptr,
                                                 fr->assets.scratch,
                                                 seg.buf);
                viz->segments.push_back(std::move(seg));
            } else {
                dur = cs.replayPiecewise(rates, ep, nullptr,
                                         fr->assets.scratch);
            }
            if (atZero && dur <= edge)
                memo.try_emplace(memoKey, dur);
            return true;
        };

        // Execute the batch: the leader runs cold unless the chips are
        // already warm on this class; followers inherit a warmed key
        // cache. Each job's ops price in order.
        if constexpr (Faults) {
            recs.push_back(
                {0.0, true, static_cast<std::uint32_t>(ledgerChips.size()),
                 static_cast<std::uint32_t>(width),
                 static_cast<std::uint32_t>(ledgerJobs.size()), 0});
            for (std::size_t c : chosen)
                ledgerChips.push_back(static_cast<std::uint32_t>(c));
        }
        double t = start;
        for (std::size_t b = 0; b < batchIds.size(); ++b) {
            const std::uint32_t j = batchIds[b];
            const bool warm = b > 0 || warmCtx;
            const std::vector<std::uint8_t> &mask =
                warm ? m.warmMask : m.coldMask;
            const double jobStart = t;
            bool jobDegraded = false;
            for (std::size_t i = 0; i < mask.size(); ++i) {
                const std::uint32_t variant = mask[i] ? 1 : 0;
                const double clean =
                    g ? (variant ? g->liveHit : g->liveMiss)
                      : (variant ? m.hitRt[bwIdx] : m.missRt[bwIdx]);
                double dur = clean;
                bool opDegraded = false;
                if constexpr (Faults)
                    opDegraded =
                        affected && degradedPrice(variant, t, clean, dur);
                if (!opDegraded)
                    cleanSegment(variant, t);
                jobDegraded = jobDegraded || opDegraded;
                t += dur;
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
            if constexpr (Faults) {
                res.degraded = jobDegraded || res.retries > 0 || gangFo;
                jstate[j] = 1;
                ledgerJobs.push_back(j);
                ledgerFin.push_back(t);
            }
        }
        if constexpr (Faults) {
            recs.back().end = t;
            recs.back().nJobs =
                static_cast<std::uint32_t>(ledgerJobs.size()) -
                recs.back().job0;
        }
        for (std::size_t c : chosen) {
            chips[c].freeAt = t;
            chips[c].lastClass = static_cast<std::int64_t>(k);
            if constexpr (Faults)
                chips[c].rec = static_cast<std::uint32_t>(recs.size() - 1);
        }
        if (viz) {
            std::snprintf(label, sizeof label,
                          "batch %u: %zux %s @chip%u%s", batchSeq,
                          batchIds.size(), sp.classes[k].name.c_str(),
                          firstChip, m.shards > 1 ? " (gang)" : "");
            viz->marks.push_back({label, start, t - start});
        }
        ++batchSeq;
        ++done.batches;
        if (batchIds.size() > 1)
            done.batchedJobs += batchIds.size();
    }

    // Aggregate over the completed jobs in arrival order: sustained QPS
    // and nearest-rank latency percentiles, read by selection (the mean
    // sums in arrival order, before selection reorders the sample).
    // Under faults, the fault
    // ledger and the healthy/degraded latency split ride alongside.
    std::vector<double> lat, healthyLat, degradedLat;
    lat.reserve(n);
    double sum = 0.0;
    constexpr double kDoneRanks[] = {0.50, 0.99, 0.999, 1.0};
    constexpr double kWindowRanks[] = {0.50, 0.99};
    double pct[4];
    double maxSalvagedSettle = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const JobResult &r = out[j];
        if constexpr (Faults) {
            if (jstate[j] == 0) {
                ++stats.lostJobs; // must stay 0 (CI-gated)
                continue;
            }
            if (salvaged[j])
                maxSalvagedSettle = std::max(maxSalvagedSettle, r.finishSec);
            if (jstate[j] == 2)
                continue;
            (r.degraded ? degradedLat : healthyLat)
                .push_back(r.latencySec());
        }
        const ClassModel &m = models[r.klass];
        done.warmJobs += r.warmStart ? 1 : 0;
        done.keyCacheHitOps += r.warmStart ? m.warmHits : m.coldHits;
        done.totalOps += m.coldMask.size();
        lat.push_back(r.latencySec());
        sum += r.latencySec();
        done.makespanSec = std::max(done.makespanSec, r.finishSec);
    }
    done.jobs = lat.size();
    if (!lat.empty()) {
        done.meanLatencySec = sum / static_cast<double>(lat.size());
        stats::percentilesBySelection(lat, kDoneRanks, 4, pct);
        done.p50LatencySec = pct[0];
        done.p99LatencySec = pct[1];
        done.p999LatencySec = pct[2];
        done.maxLatencySec = pct[3];
        if (done.makespanSec > 0.0)
            done.qps = static_cast<double>(done.jobs) / done.makespanSec;
    }
    if constexpr (Faults) {
        stats.completedJobs = lat.size();
        stats.healthyJobs = healthyLat.size();
        stats.degradedJobs = degradedLat.size();
        const auto window = [&](std::vector<double> &v, double &p50,
                                double &p99) {
            if (v.empty())
                return;
            stats::percentilesBySelection(v, kWindowRanks, 2, pct);
            p50 = pct[0];
            p99 = pct[1];
        };
        window(healthyLat, stats.healthyP50Sec, stats.healthyP99Sec);
        window(degradedLat, stats.degradedP50Sec, stats.degradedP99Sec);
        if (stats.healthyP99Sec > 0.0 && stats.degradedP99Sec > 0.0)
            stats.degradedOverHealthyP99 =
                stats.degradedP99Sec / stats.healthyP99Sec;
        if (anySalvage)
            stats.recoverySec =
                std::max(0.0, maxSalvagedSettle - firstFailAt);
    }

    if (viz)
        for (const JobResult &r : out)
            viz->marks.push_back(
                {"arrive " + sp.classes[r.klass].name + " t" +
                     std::to_string(r.tenant),
                 r.arriveSec, 0.0});
}

} // namespace ciflow::serve

#endif // CIFLOW_SERVE_SERVE_LOOP_H
