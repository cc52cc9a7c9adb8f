/**
 * @file
 * Test-side reference for the fault layer's epoch tables and span
 * probe: foldSpans, the per-resource span lists of buildEpochs and
 * buildChipEpochs, and probeChipSpans, as the library carried them
 * before per-chip timelines (fault/fault_replay.cpp).
 *
 * The code is copied verbatim. foldSpans rescans every span of a
 * resource at each of its bounds, and probeChipSpans walks every span
 * of a chip per probe. Only the namespace, the inline linkage and the
 * builders' default arguments differ. The timelines and the step tables
 * multiply the same factors in the same order, so these loops pin every
 * table, at-zero list and edge they produce, bit for bit.
 */

#ifndef CIFLOW_TESTS_LEGACY_FAULT_TABLES_H
#define CIFLOW_TESTS_LEGACY_FAULT_TABLES_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "fault/fault_replay.h"

namespace ciflow::legacy
{

using fault::ChipSpan;
using fault::EpochAtZero;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultTrace;
using fault::kWholeChip;

/**
 * Per-resource fault contribution, in normalized trace order so
 * multiplier products fold identically everywhere. A contribution
 * is active on [at, end); permanent degrades have end = +inf.
 */
struct Span
{
    double at;
    double end;
    double factor;
};

/**
 * An absolute span edge in the local clock of a table shifted by
 * `timeShift`; edges already past fold to 0 and +inf stays +inf. The
 * one mapping every epoch bound and activity test goes through.
 */
inline double
localEdge(double absSec, double timeShift)
{
    return std::max(0.0, absSec - timeShift);
}

/**
 * Shared fold of per-resource spans into a RateEpochs table: epoch
 * boundaries are the span edges shifted into the replay's local clock
 * (edges already past fold into one state at time 0; edges at or past
 * `horizonSec` are dropped — a replay that ends before the horizon
 * never reaches them), and the multiplier at each boundary is the
 * product of every active span's factor in span order, so the folded
 * products are reproducible to the bit across builders.
 */
inline sim::RateEpochs
foldSpans(const std::vector<std::vector<Span>> &spans, double timeShift,
          double horizonSec)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t nres = spans.size();
    sim::RateEpochs ep;
    ep.off.assign(nres + 1, 0);
    std::vector<double> bounds;
    for (std::size_t r = 0; r < nres; ++r) {
        ep.off[r] = static_cast<std::uint32_t>(ep.at.size());
        if (spans[r].empty())
            continue;
        bounds.clear();
        for (const Span &s : spans[r]) {
            bounds.push_back(localEdge(s.at, timeShift));
            if (s.end < inf)
                bounds.push_back(localEdge(s.end, timeShift));
        }
        std::sort(bounds.begin(), bounds.end());
        bounds.erase(std::unique(bounds.begin(), bounds.end()),
                     bounds.end());
        double prev = 1.0;
        for (double t : bounds) {
            if (t >= horizonSec)
                break;
            // Multiplier at local time t: the product of every active
            // span's factor, folded in trace order. Activity is tested
            // in the local clock against the shifted edges the bounds
            // came from: mapping t back to absolute time can round
            // below a span's start and drop (or never end) it.
            double m = 1.0;
            for (const Span &s : spans[r])
                if (localEdge(s.at, timeShift) <= t &&
                    t < localEdge(s.end, timeShift))
                    m *= s.factor;
            if (m == prev)
                continue;
            ep.at.push_back(t);
            ep.mult.push_back(m);
            prev = m;
        }
    }
    ep.off[nres] = static_cast<std::uint32_t>(ep.at.size());
    if (ep.mult.empty()) {
        // Every event was a ChipFail, already recovered, or beyond
        // the horizon: no epochs.
        ep.off.clear();
        ep.at.clear();
    }
    return ep;
}

/** fault::buildEpochs over foldSpans. */
inline sim::RateEpochs
buildEpochs(const FaultTrace &trace, const shard::ShardedCompiled &sc,
            double timeShift = 0.0,
            double horizonSec = std::numeric_limits<double>::infinity())
{
    const std::size_t nres =
        sc.shards * sc.perChip + sc.links;
    if (trace.events.empty())
        return {};

    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<Span>> spans(nres);
    const auto add = [&](std::size_t r, double at, double end,
                         double factor) {
        panicIf(r >= nres, "fault event outside the machine shape");
        spans[r].push_back({at, end, factor});
    };
    for (const FaultEvent &e : trace.events) {
        switch (e.kind) {
        case FaultKind::ChipFail:
            // Failure is failover's job, not a rate epoch.
            break;
        case FaultKind::ChannelDegrade:
            add(std::size_t{e.shard} * sc.perChip + e.channel, e.atSec,
                inf, e.factor);
            break;
        case FaultKind::LinkDegrade:
            add(sc.shards * sc.perChip + e.channel, e.atSec, inf,
                e.factor);
            break;
        case FaultKind::TransientStall:
            for (std::size_t r = 0; r < sc.perChip; ++r)
                add(std::size_t{e.shard} * sc.perChip + r, e.atSec,
                    e.atSec + e.durSec, e.factor);
            break;
        }
    }
    return foldSpans(spans, timeShift, horizonSec);
}

/**
 * Probe the table buildChipEpochs(trace, shard, chipResources,
 * timeShift) builds, without building it, from `spans` =
 * chipSpans(trace, shard). Appends the table's entries at local time
 * 0 to `at0` in resource order — resource ids offset by
 * `resourceBase`, multipliers folded to the same bits — and returns
 * the first span edge past local time 0 (+inf when there is none).
 * Edges are shifted exactly as the builders shift them, and every
 * later entry of the table lies at or past the returned edge, so up
 * to that edge the table holds nothing but `at0`. The same holds for
 * a chip's block of a buildEpochs table: a gang maps its slots' chips
 * onto consecutive resourceBase blocks.
 */
inline double
probeChipSpans(const std::vector<ChipSpan> &spans,
               std::size_t chipResources, double timeShift,
               std::uint32_t resourceBase, std::vector<EpochAtZero> &at0)
{
    double next = std::numeric_limits<double>::infinity();
    for (const ChipSpan &s : spans) {
        // The span's first edge past local 0: its start, or its end
        // once it has started.
        const double lo = localEdge(s.atSec, timeShift);
        const double edge = lo > 0.0 ? lo : localEdge(s.endSec, timeShift);
        if (edge > 0.0 && edge < next)
            next = edge;
    }
    // foldSpans' multiplier at local time 0, per resource: the same
    // activity test over the same spans in the same order. A state of
    // exactly 1 emits no entry there.
    for (std::size_t r = 0; r < chipResources; ++r) {
        double m = 1.0;
        for (const ChipSpan &s : spans)
            if ((s.resource == r || s.resource == kWholeChip) &&
                localEdge(s.atSec, timeShift) <= 0.0 &&
                0.0 < localEdge(s.endSec, timeShift))
                m *= s.factor;
        if (m != 1.0)
            at0.push_back(
                {resourceBase + static_cast<std::uint32_t>(r), m});
    }
    return next;
}

/** fault::buildChipEpochs over foldSpans. */
inline sim::RateEpochs
buildChipEpochs(const FaultTrace &trace, std::uint32_t shard,
                std::size_t chipResources, double timeShift = 0.0,
                double horizonSec = std::numeric_limits<double>::infinity())
{
    if (trace.events.empty())
        return {};
    std::vector<std::vector<Span>> spans(chipResources);
    for (const ChipSpan &c : fault::chipSpans(trace, shard)) {
        const Span s{c.atSec, c.endSec, c.factor};
        if (c.resource == kWholeChip) {
            for (std::vector<Span> &v : spans)
                v.push_back(s);
            continue;
        }
        panicIf(c.resource >= chipResources,
                "fault event outside the chip block");
        spans[c.resource].push_back(s);
    }
    return foldSpans(spans, timeShift, horizonSec);
}

} // namespace ciflow::legacy

#endif // CIFLOW_TESTS_LEGACY_FAULT_TABLES_H
