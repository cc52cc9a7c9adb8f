/**
 * @file
 * Test-side reference for the healthy serving loop: the scheduling
 * loop ServingSim::run carried before it became the no-fault
 * instantiation of the one serving loop (serve/serve_loop.h).
 *
 * serveRun() is that loop copied verbatim, except that it reads a
 * Prices table instead of the simulator's private class models and
 * that the Chrome-trace branches are dropped (tests compare the
 * healthy and zero-fault traces directly). Tests build the table
 * from public APIs: per-op runtimes from the experiment and sharded
 * replay layers and key-cache masks from an LRU replica. Once the
 * healthy and fault-aware runs share one template, comparing them
 * only shows that the fault steps compile away; this loop is what
 * pins the shared loop's healthy arithmetic to the loop it replaced,
 * bit for bit.
 */

#ifndef CIFLOW_TESTS_LEGACY_SERVING_H
#define CIFLOW_TESTS_LEGACY_SERVING_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "serve/admission.h"
#include "serve/serving.h"

namespace ciflow::legacy
{

/** One job class's prices, the fields of ServingSim's ClassModel. */
struct ClassPrices
{
    std::size_t shards = 1;
    /** Per-op key-cache hit flags from an empty / steady-state cache. */
    std::vector<std::uint8_t> coldMask, warmMask;
    /** Per-op runtime with missed / hit keys, per distinct bandwidth. */
    std::vector<double> missRt, hitRt;
    /** Whole-job service seconds (ordered per-op sums). */
    std::vector<double> coldSvc, warmSvc;
    std::size_t coldHits = 0, warmHits = 0;
};

/** Everything the loop prices from. */
struct Prices
{
    std::vector<ClassPrices> models;
    /** Index into the ascending distinct bandwidths, per chip. */
    std::vector<std::size_t> chipBw;
};

/** The healthy serving loop; `arrivals` must pass checkArrivals. */
inline void
serveRun(const serve::ServeSpec &sp, const Prices &p,
         const std::vector<serve::JobArrival> &arrivals,
         std::vector<serve::JobResult> &out, serve::ServeStats &stats)
{
    using namespace ciflow::serve;
    const std::vector<ClassPrices> &models = p.models;
    const std::vector<std::size_t> &chipBw = p.chipBw;

    out.assign(arrivals.size(), JobResult{});
    stats = ServeStats{};

    struct ChipState
    {
        double freeAt = 0.0;
        std::int64_t lastClass = -1;
    };
    std::vector<ChipState> chips(sp.fleet.chips);
    AdmissionQueue queue;
    queue.reset(sp.classes.size());
    std::size_t next = 0;
    std::uint32_t batchSeq = 0;
    std::vector<std::size_t> chosen;
    std::vector<std::uint32_t> batchIds;
    const auto admit = [&] {
        queue.push(arrivals[next].klass,
                   {arrivals[next].atSec, static_cast<std::uint32_t>(next)});
        ++next;
    };

    while (next < arrivals.size() || !queue.empty()) {
        if (queue.empty())
            admit();
        const std::uint32_t k = queue.headClass();
        const AdmissionQueue::Item head = queue.front(k);
        const ClassPrices &m = models[k];

        // The m.shards least-loaded chips, ties to the lowest id.
        chosen.assign(sp.fleet.chips, 0);
        for (std::size_t c = 0; c < sp.fleet.chips; ++c)
            chosen[c] = c;
        std::sort(chosen.begin(), chosen.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (chips[a].freeAt != chips[b].freeAt)
                          return chips[a].freeAt < chips[b].freeAt;
                      return a < b;
                  });
        chosen.resize(m.shards);
        double start = head.ready;
        for (std::size_t c : chosen)
            start = std::max(start, chips[c].freeAt);
        // Jobs arriving while the gang drains are admission
        // candidates: they may join this batch.
        while (next < arrivals.size() && arrivals[next].atSec <= start)
            admit();
        stats.maxQueueDepth = std::max(stats.maxQueueDepth, queue.size());

        const std::size_t bwIdx =
            m.shards > 1 ? 0
                         : chipBw[*std::min_element(chosen.begin(),
                                                    chosen.end())];
        bool warmCtx = true;
        for (std::size_t c : chosen)
            warmCtx = warmCtx &&
                      chips[c].lastClass == static_cast<std::int64_t>(k);

        // p4db-style target batch: coalesce queued same-class jobs
        // behind the head until the size target or the estimated
        // batch duration is reached.
        queue.takeBatch(
            k, sp.batch, warmCtx ? m.warmSvc[bwIdx] : m.coldSvc[bwIdx],
            m.warmSvc[bwIdx], [](std::uint32_t) { return false; },
            batchIds);

        // Execute the batch: the leader runs cold unless the gang is
        // already warm on this class; followers inherit a warmed key
        // cache.
        const std::uint32_t firstChip = static_cast<std::uint32_t>(
            *std::min_element(chosen.begin(), chosen.end()));
        double t = start;
        for (std::size_t b = 0; b < batchIds.size(); ++b) {
            const std::uint32_t j = batchIds[b];
            const bool warm = b > 0 || warmCtx;
            const std::vector<std::uint8_t> &mask =
                warm ? m.warmMask : m.coldMask;
            const double jobStart = t;
            for (std::size_t i = 0; i < mask.size(); ++i) {
                const double dur =
                    mask[i] ? m.hitRt[bwIdx] : m.missRt[bwIdx];
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
            stats.warmJobs += warm ? 1 : 0;
            stats.keyCacheHitOps += warm ? m.warmHits : m.coldHits;
            stats.totalOps += mask.size();
        }
        for (std::size_t c : chosen) {
            chips[c].freeAt = t;
            chips[c].lastClass = static_cast<std::int64_t>(k);
        }
        ++batchSeq;
        ++stats.batches;
        if (batchIds.size() > 1)
            stats.batchedJobs += batchIds.size();
    }

    // Aggregate: nearest-rank latency percentiles plus sustained QPS.
    stats.jobs = out.size();
    if (!out.empty()) {
        std::vector<double> lat;
        lat.reserve(out.size());
        double sum = 0.0;
        for (const JobResult &r : out) {
            lat.push_back(r.latencySec());
            sum += r.latencySec();
            stats.makespanSec =
                std::max(stats.makespanSec, r.finishSec);
        }
        std::sort(lat.begin(), lat.end());
        stats.meanLatencySec = sum / static_cast<double>(lat.size());
        stats.p50LatencySec = stats::percentileSorted(lat, 0.50);
        stats.p99LatencySec = stats::percentileSorted(lat, 0.99);
        stats.p999LatencySec = stats::percentileSorted(lat, 0.999);
        stats.maxLatencySec = lat.back();
        if (stats.makespanSec > 0.0)
            stats.qps = static_cast<double>(stats.jobs) /
                        stats.makespanSec;
    }
}

} // namespace ciflow::legacy

#endif // CIFLOW_TESTS_LEGACY_SERVING_H
