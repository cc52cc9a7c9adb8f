#include "fault/fault_replay.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "obs/traced_replay.h"

namespace ciflow::fault
{

using shard::Partition;
using shard::ShardedCompiled;

namespace
{

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
double
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
sim::RateEpochs
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

} // namespace

sim::RateEpochs
buildEpochs(const FaultTrace &trace, const ShardedCompiled &sc,
            double timeShift, double horizonSec)
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

std::vector<ChipSpan>
chipSpans(const FaultTrace &trace, std::uint32_t shard)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<ChipSpan> out;
    for (const FaultEvent &e : trace.events) {
        if (e.shard != shard)
            continue;
        switch (e.kind) {
        case FaultKind::ChannelDegrade:
            out.push_back({e.atSec, inf, e.factor, e.channel});
            break;
        case FaultKind::TransientStall:
            out.push_back(
                {e.atSec, e.atSec + e.durSec, e.factor, kWholeChip});
            break;
        default:
            // ChipFail is failover's job; LinkDegrade has no meaning
            // inside one chip's resource block.
            break;
        }
    }
    return out;
}

double
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

sim::RateEpochs
buildChipEpochs(const FaultTrace &trace, std::uint32_t shard,
                std::size_t chipResources, double timeShift,
                double horizonSec)
{
    if (trace.events.empty())
        return {};
    std::vector<std::vector<Span>> spans(chipResources);
    for (const ChipSpan &c : chipSpans(trace, shard)) {
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

FaultSim::FaultSim(const TaskGraph &g, const shard::ShardSpec &sp,
                   const std::vector<double> &w, const Partition &part,
                   const RpuConfig &chip,
                   const shard::InterconnectConfig &net)
    : graph(g), spec(sp), weights(w), eng(chip, net), basePart(part)
{
    panicIf(spec.shards != part.shards,
            "fault spec and partition disagree on the shard count");
    ps = eng.compilePatchable(g, part);
    eng.rates(ps.compiled, baseRates);
    doneGraph.assign(g.size(), 0);
}

MachineShape
FaultSim::shape() const
{
    return {ps.compiled.shards, eng.chip().channelCount(),
            ps.compiled.links};
}

void
FaultSim::resetBinding()
{
    if (!bindingDirty)
        return;
    eng.recompilePartition(ps, basePart);
    bindingDirty = false;
}

double
FaultSim::healthyMakespan()
{
    resetBinding();
    return ps.compiled.schedule.replay(baseRates, scratch);
}

DegradedOutcome
FaultSim::run(const FaultTrace &trace, obs::ScenarioTrace *viz)
{
    if (sim::Error e = checkTrace(trace, shape()))
        panic(e.message());
    resetBinding();
    ++statScenarios;
    if (viz != nullptr) {
        viz->segments.clear();
        viz->marks.clear();
        viz->resourceNames.clear();
        const sim::CompiledSchedule &sched = ps.compiled.schedule;
        viz->resourceNames.reserve(sched.resourceCount());
        for (std::size_t r = 0; r < sched.resourceCount(); ++r)
            viz->resourceNames.push_back(
                sched.resourceName(static_cast<sim::ResourceId>(r)));
    }

    // Earliest failure per chip, in time order; later failures of an
    // already-dead chip are no-ops.
    struct Fail
    {
        double at;
        std::uint32_t shard;
    };
    std::vector<Fail> fails;
    for (const FaultEvent &e : trace.events)
        if (e.kind == FaultKind::ChipFail)
            fails.push_back({e.atSec, e.shard});
    std::stable_sort(fails.begin(), fails.end(),
                     [](const Fail &a, const Fail &b) {
                         return a.at < b.at;
                     });

    DegradedOutcome out;
    std::fill(doneGraph.begin(), doneGraph.end(), std::uint8_t{0});
    std::vector<char> alive(ps.compiled.shards, 1);
    double tBase = 0.0;
    bool anyDone = false;
    Partition cur = basePart;

    const auto schedMask = [&]() -> const std::uint8_t * {
        if (!anyDone)
            return nullptr;
        doneSched.assign(ps.compiled.schedule.taskCount(), 0);
        for (std::uint32_t t = 0; t < graph.size(); ++t)
            doneSched[ps.newId[t]] = doneGraph[t];
        // A transfer re-ships only when its value has not been
        // produced yet; already-produced values moved in the
        // migration-bytes accounting.
        constexpr sim::TaskId kUnset = ~sim::TaskId{0};
        for (std::size_t j = 0; j < ps.transferId.size(); ++j)
            if (ps.transferId[j] != kUnset)
                doneSched[ps.transferId[j]] =
                    doneGraph[ps.part.cutEdges[j].src];
        return doneSched.data();
    };

    // One replay segment, observed or not: the traced twin is
    // bit-identical to replayPiecewise, so control flow (and the
    // outcome) cannot depend on whether a viz is attached.
    const auto segment = [&](const sim::RateEpochs &ep) {
        if (viz == nullptr)
            return ps.compiled.schedule.replayPiecewise(
                baseRates, ep, schedMask(), scratch);
        obs::TraceSegment seg;
        seg.baseSec = tBase;
        seg.epochs = ep;
        const double m = obs::replayPiecewiseTraced(
            ps.compiled.schedule, baseRates, ep, schedMask(), scratch,
            seg.buf);
        viz->segments.push_back(std::move(seg));
        return m;
    };
    const auto account = [&](const DegradedOutcome &o) {
        statCompleted += o.completed ? 1 : 0;
        statFailovers += o.failovers;
        statMigratedBytes += o.migratedBytes;
    };

    for (const Fail &f : fails) {
        if (!alive[f.shard])
            continue;
        const sim::RateEpochs ep =
            buildEpochs(trace, ps.compiled, tBase);
        const double m = segment(ep);
        const double tfRel = f.at - tBase;
        if (m <= tfRel) {
            // The run finished before this chip died.
            out.makespan = tBase + m;
            account(out);
            return out;
        }
        // Salvage: everything that finished before the failure stays
        // finished (tfRel < 0 means the chip died during a migration
        // pause — no new progress to salvage).
        if (tfRel >= 0.0) {
            for (std::uint32_t t = 0; t < graph.size(); ++t)
                if (scratch.finish[ps.newId[t]] <= tfRel)
                    doneGraph[t] = 1;
            anyDone = true;
        }
        if (viz != nullptr) {
            // The plan from the cut on is void — the next segment
            // re-schedules it. A negative cut (death mid-pause)
            // voids the whole segment.
            viz->segments.back().cutSec = tfRel >= 0.0 ? tfRel : 0.0;
            viz->marks.push_back(
                {"chip " + std::to_string(f.shard) + " failed", f.at,
                 0.0});
        }
        alive[f.shard] = 0;
        std::size_t survivors = 0;
        for (char a : alive)
            survivors += a != 0;
        if (survivors == 0) {
            out.completed = false;
            out.makespan = std::numeric_limits<double>::infinity();
            account(out);
            return out;
        }
        sim::Error err = planFailover(graph, spec, cur, f.shard, alive,
                                      doneGraph.data(), weights, plan);
        panicIf(bool(err), "failover planning failed unexpectedly");
        eng.recompilePartition(ps, plan.part);
        bindingDirty = true;
        cur = plan.part;
        const double mig =
            migrationSeconds(plan.migrationBytes, eng.interconnect(),
                             survivors);
        ++out.failovers;
        out.migratedBytes += plan.migrationBytes;
        out.migrationSec += mig;
        if (viz != nullptr && mig > 0.0)
            viz->marks.push_back(
                {"migrate " + std::to_string(plan.migrationBytes) +
                     " B off chip " + std::to_string(f.shard),
                 std::max(tBase, f.at), mig});
        tBase = std::max(tBase, f.at) + mig;
    }

    const sim::RateEpochs ep =
        buildEpochs(trace, ps.compiled, tBase);
    const double m = segment(ep);
    out.makespan = tBase + m;
    account(out);
    return out;
}

void
FaultSim::staticDegradedMakespans(const FaultTrace *traces,
                                  std::size_t n, double *out)
{
    resetBinding();
    const std::size_t nres = ps.compiled.schedule.resourceCount();
    const std::size_t chipRes = ps.compiled.shards * ps.compiled.perChip;
    if (staticRates.size() < n)
        staticRates.resize(n);
    std::vector<double> mult(nres);
    for (std::size_t i = 0; i < n; ++i) {
        if (sim::Error e = checkTrace(traces[i], shape()))
            panic(e.message());
        // Fold every degrade to time 0: accumulate each resource's
        // multiplier product first (the fold buildEpochs performs),
        // then scale the base rate by it exactly once — rate * m is
        // the arithmetic replayPiecewise's epoch path performs, so
        // each lane is bit-identical to the piecewise evaluation of
        // the same scenario. (Scaling per event instead would
        // associate the products differently and drift in the last
        // bit.)
        std::fill(mult.begin(), mult.end(), 1.0);
        for (const FaultEvent &e : traces[i].events) {
            std::size_t res;
            switch (e.kind) {
            case FaultKind::ChannelDegrade:
                res = std::size_t{e.shard} * ps.compiled.perChip +
                      e.channel;
                break;
            case FaultKind::LinkDegrade:
                res = chipRes + e.channel;
                break;
            default:
                panic("static degraded replay accepts only "
                      "channel/link degrade events");
            }
            panicIf(res >= nres,
                    "degrade event outside the machine shape");
            mult[res] *= e.factor;
        }
        sim::ReplayRates &r = staticRates[i];
        r = baseRates;
        // x * 1.0 == x exactly, so untouched resources keep their
        // base rate to the bit.
        for (std::size_t j = 0; j < nres; ++j)
            r.bytesPerSec[j] *= mult[j];
    }
    ps.compiled.schedule.replayMany(staticRates.data(), n, batch);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = batch.makespan[i];
    // Degrade-only scenarios always complete (no chip ever dies).
    statScenarios += n;
    statCompleted += n;
}

void
FaultSim::exportMetrics(obs::MetricsRegistry &m,
                        const std::string &prefix) const
{
    m.count(prefix + "scenarios_run", statScenarios);
    m.count(prefix + "scenarios_completed", statCompleted);
    m.count(prefix + "failovers", statFailovers);
    m.count(prefix + "migrated_bytes", statMigratedBytes);
}

} // namespace ciflow::fault
