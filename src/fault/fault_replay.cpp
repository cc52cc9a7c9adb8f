#include "fault/fault_replay.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
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

/** Buffers of one sweepSpans call, reused across calls. */
struct Sweep
{
    /** Sorted distinct span starts and finite ends. */
    std::vector<double> bounds;
    std::vector<std::uint32_t> byStart;
    /** Spans active at the current bound, ascending. */
    std::vector<std::uint32_t> active;
};

/**
 * The one sweep every span fold runs. Spans i in [0, n) are active on
 * [lo(i), hi(i)). Walks the sorted distinct starts and finite ends and,
 * at each bound t, hands visit(t, active) the spans active at t in
 * index (span) order. Spans join as the sweep passes their start and
 * leave at their end, so a bound costs what is active there, not every
 * span.
 */
template <typename Lo, typename Hi, typename Visit>
void
sweepSpans(std::uint32_t n, Lo lo, Hi hi, Sweep &sw, Visit visit)
{
    const double inf = std::numeric_limits<double>::infinity();
    sw.bounds.clear();
    sw.byStart.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        sw.bounds.push_back(lo(i));
        if (hi(i) < inf)
            sw.bounds.push_back(hi(i));
        sw.byStart[i] = i;
    }
    std::sort(sw.bounds.begin(), sw.bounds.end());
    sw.bounds.erase(std::unique(sw.bounds.begin(), sw.bounds.end()),
                    sw.bounds.end());
    std::sort(sw.byStart.begin(), sw.byStart.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (lo(a) != lo(b))
                      return lo(a) < lo(b);
                  return a < b;
              });
    sw.active.clear();
    std::uint32_t next = 0;
    for (double t : sw.bounds) {
        for (; next < n && lo(sw.byStart[next]) <= t; ++next)
            sw.active.insert(std::upper_bound(sw.active.begin(),
                                              sw.active.end(),
                                              sw.byStart[next]),
                             sw.byStart[next]);
        std::erase_if(sw.active, [&](std::uint32_t i) { return hi(i) <= t; });
        visit(t, sw.active);
    }
}

/**
 * Fold one resource's spans i in [0, n), active on [lo(i), hi(i)) in
 * absolute time with factor fac(i), into `out`.
 */
template <typename Lo, typename Hi, typename Fac>
void
foldSteps(std::uint32_t n, Lo lo, Hi hi, Fac fac, Sweep &sw, RateSteps &out)
{
    out.at.clear();
    out.mult.clear();
    double prev = 1.0;
    sweepSpans(n, lo, hi, sw,
               [&](double t, const std::vector<std::uint32_t> &active) {
                   double m = 1.0;
                   for (std::uint32_t i : active)
                       m *= fac(i);
                   if (m != prev) {
                       out.at.push_back(t);
                       out.mult.push_back(m);
                       prev = m;
                   }
               });
}

/**
 * Append one resource's epochs to `ep`: its steps in the local clock of
 * a table shifted by `timeShift`, boundaries at local time >=
 * `horizonSec` dropped. This equals folding the resource's spans with
 * every edge moved to max(0, edge - timeShift), bit for bit, because
 * that map is monotone: a span is active at a local bound exactly when
 * it is active at the last absolute edge that maps there. So the steps
 * at or before the shift give the multiplier at local 0, and steps
 * whose shifted times round to one local bound give the last one's.
 */
void
appendShifted(const RateSteps &s, double timeShift, double horizonSec,
              sim::RateEpochs &ep)
{
    if (0.0 >= horizonSec)
        return;
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(s.at.begin(), s.at.end(), timeShift) -
        s.at.begin());
    double prev = i > 0 ? s.mult[i - 1] : 1.0;
    if (prev != 1.0) {
        ep.at.push_back(0.0);
        ep.mult.push_back(prev);
    }
    for (; i < s.at.size(); ++i) {
        const double local = s.at[i] - timeShift;
        if (local >= horizonSec)
            break;
        while (i + 1 < s.at.size() && s.at[i + 1] - timeShift == local)
            ++i;
        if (s.mult[i] != prev) {
            ep.at.push_back(local);
            ep.mult.push_back(s.mult[i]);
            prev = s.mult[i];
        }
    }
}

/**
 * A chip's steps by local resource: steps[r] folds the spans that touch
 * resource r, its channel degrades and every stall. The last entry
 * folds the stalls alone and stands for every resource past the
 * highest degraded channel.
 */
std::vector<RateSteps>
chipSteps(const std::vector<ChipSpan> &spans, Sweep &sw)
{
    std::uint32_t channels = 0;
    for (const ChipSpan &c : spans)
        if (c.resource != kWholeChip)
            channels = std::max(channels, c.resource + 1);
    std::vector<RateSteps> steps(channels + 1);
    std::vector<std::uint32_t> touch;
    for (std::uint32_t r = 0; r <= channels; ++r) {
        touch.clear();
        for (std::uint32_t i = 0; i < spans.size(); ++i)
            if (spans[i].resource == r || spans[i].resource == kWholeChip)
                touch.push_back(i);
        foldSteps(
            static_cast<std::uint32_t>(touch.size()),
            [&](std::uint32_t i) { return spans[touch[i]].atSec; },
            [&](std::uint32_t i) { return spans[touch[i]].endSec; },
            [&](std::uint32_t i) { return spans[touch[i]].factor; }, sw,
            steps[r]);
    }
    return steps;
}

/** Close a table of `nres` resources whose entries end at resource
 * `from`: later resources are empty, and a table with no entry at all
 * is the empty table (every event was a ChipFail, already recovered,
 * or beyond the horizon). */
void
finishTable(sim::RateEpochs &ep, std::size_t from, std::size_t nres)
{
    for (std::size_t r = from; r <= nres; ++r)
        ep.off[r] = static_cast<std::uint32_t>(ep.at.size());
    if (ep.mult.empty()) {
        ep.off.clear();
        ep.at.clear();
    }
}

/** An nres-resource table whose slot s holds stepsOf(s), one chip's
 * steps (chipSteps), shifted onto resources [s * chipResources,
 * (s + 1) * chipResources). */
template <typename StepsOf>
sim::RateEpochs
chipBlockTable(std::size_t slots, StepsOf stepsOf, std::size_t chipResources,
               std::size_t nres, double timeShift, double horizonSec)
{
    if (slots * chipResources > nres)
        panic("chip blocks overrun the epoch table");
    sim::RateEpochs ep;
    ep.off.assign(nres + 1, 0);
    for (std::size_t s = 0; s < slots; ++s) {
        const std::vector<RateSteps> &steps = stepsOf(s);
        if (steps.size() - 1 > chipResources)
            panic("fault event outside the chip block");
        for (std::size_t r = 0; r < chipResources; ++r) {
            ep.off[s * chipResources + r] =
                static_cast<std::uint32_t>(ep.at.size());
            appendShifted(steps[std::min(r, steps.size() - 1)], timeShift,
                          horizonSec, ep);
        }
    }
    finishTable(ep, slots * chipResources, nres);
    return ep;
}

/** Hash of an at-zero entry list, for interning. */
struct AtZeroHash
{
    std::size_t
    operator()(const std::vector<EpochAtZero> &v) const
    {
        std::uint64_t h = v.size();
        for (const EpochAtZero &e : v)
            h = splitmix64(splitmix64(h ^ e.resource) ^
                           std::bit_cast<std::uint64_t>(e.mult));
        return static_cast<std::size_t>(h);
    }
};

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
        if (r >= nres)
            panic("fault event outside the machine shape");
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
    sim::RateEpochs ep;
    ep.off.assign(nres + 1, 0);
    Sweep sw;
    RateSteps steps;
    for (std::size_t r = 0; r < nres; ++r) {
        ep.off[r] = static_cast<std::uint32_t>(ep.at.size());
        const std::vector<Span> &sr = spans[r];
        foldSteps(
            static_cast<std::uint32_t>(sr.size()),
            [&](std::uint32_t i) { return sr[i].at; },
            [&](std::uint32_t i) { return sr[i].end; },
            [&](std::uint32_t i) { return sr[i].factor; }, sw, steps);
        appendShifted(steps, timeShift, horizonSec, ep);
    }
    finishTable(ep, nres, nres);
    return ep;
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

sim::RateEpochs
buildChipEpochs(const FaultTrace &trace, std::uint32_t shard,
                std::size_t chipResources, double timeShift,
                double horizonSec)
{
    if (trace.events.empty())
        return {};
    Sweep sw;
    const std::vector<RateSteps> steps = chipSteps(chipSpans(trace, shard), sw);
    return chipBlockTable(
        1,
        [&](std::size_t) -> const std::vector<RateSteps> & { return steps; },
        chipResources, chipResources, timeShift, horizonSec);
}

ChipTimelines::ChipTimelines(const FaultTrace &trace, std::size_t chipCount,
                             const std::vector<std::size_t> &w)
    : widths(w), chips(chipCount), states(1)
{
    std::unordered_map<std::vector<EpochAtZero>, std::uint32_t, AtZeroHash>
        ids;
    ids.emplace(std::vector<EpochAtZero>{}, 0);
    std::vector<EpochAtZero> at0;
    Sweep sw;
    for (std::size_t c = 0; c < chipCount; ++c) {
        Chip &ch = chips[c];
        ch.spans = chipSpans(trace, static_cast<std::uint32_t>(c));
        const std::vector<ChipSpan> &sp = ch.spans;
        // Interval i >= 1 starts at the i-th bound. A span is active
        // on [atSec, endSec) and both are bounds, so what is active at
        // an interval's first bound is active throughout it; nothing
        // is active in interval 0.
        ch.active.assign(1, 0);
        ch.state.assign(widths.size(), 0);
        sweepSpans(
            static_cast<std::uint32_t>(sp.size()),
            [&](std::uint32_t i) { return sp[i].atSec; },
            [&](std::uint32_t i) { return sp[i].endSec; }, sw,
            [&](double, const std::vector<std::uint32_t> &act) {
                ch.active.push_back(!act.empty());
                // The fold's multiplier at local time 0, per resource
                // of the block: the active spans' factors in span
                // order. A state of exactly 1 emits no entry there.
                for (std::size_t wi = 0; wi < widths.size(); ++wi) {
                    at0.clear();
                    for (std::size_t r = 0; r < widths[wi]; ++r) {
                        double m = 1.0;
                        for (std::uint32_t k : act)
                            if (sp[k].resource == r ||
                                sp[k].resource == kWholeChip)
                                m *= sp[k].factor;
                        if (m != 1.0)
                            at0.push_back(
                                {static_cast<std::uint32_t>(r), m});
                    }
                    const auto [it, fresh] = ids.try_emplace(
                        at0, static_cast<std::uint32_t>(states.size()));
                    if (fresh)
                        states.push_back(at0);
                    ch.state.push_back(it->second);
                }
            });
        ch.edges = sw.bounds;
        ch.steps = chipSteps(sp, sw);
    }
}

std::size_t
ChipTimelines::interval(std::size_t c, double t) const
{
    const std::vector<double> &e = chips[c].edges;
    return static_cast<std::size_t>(
        std::upper_bound(e.begin(), e.end(), t) - e.begin());
}

double
ChipTimelines::probe(std::size_t c, std::size_t width, double t,
                     std::uint32_t &state) const
{
    const std::size_t wi = static_cast<std::size_t>(
        std::find(widths.begin(), widths.end(), width) - widths.begin());
    if (wi == widths.size())
        panic("probe at a block width the timelines were not built for");
    const Chip &ch = chips[c];
    const std::size_t i = interval(c, t);
    state = ch.state[i * widths.size() + wi];
    return i < ch.edges.size() ? ch.edges[i] - t
                               : std::numeric_limits<double>::infinity();
}

sim::RateEpochs
ChipTimelines::epochs(const std::size_t *slotChips, std::size_t slots,
                      std::size_t chipResources, std::size_t nres,
                      double timeShift) const
{
    return chipBlockTable(
        slots,
        [&](std::size_t s) -> const std::vector<RateSteps> & {
            return chips[slotChips[s]].steps;
        },
        chipResources, nres, timeShift,
        std::numeric_limits<double>::infinity());
}

FaultSim::FaultSim(const TaskGraph &g, const shard::ShardSpec &sp,
                   const std::vector<double> &w, const Partition &part,
                   const RpuConfig &chip,
                   const shard::InterconnectConfig &net)
    : graph(g), spec(sp), weights(w), eng(chip, net), basePart(part)
{
    panicIf(spec.shards != part.shards,
            "fault spec and partition disagree on the shard count");
    source = RpuEngine(chip).compile(g);
    eng.bind(g, source, part, sc);
    eng.rates(sc, baseRates);
    doneGraph.assign(g.size(), 0);
}

MachineShape
FaultSim::shape() const
{
    return {sc.shards, eng.chip().channelCount(), sc.links};
}

void
FaultSim::resetBinding()
{
    if (!bindingDirty)
        return;
    eng.bind(graph, source, basePart, sc);
    bindingDirty = false;
}

double
FaultSim::healthyMakespan()
{
    resetBinding();
    return sc.schedule.replay(baseRates, scratch);
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
        const sim::CompiledSchedule &sched = sc.schedule;
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
    std::vector<char> alive(sc.shards, 1);
    double tBase = 0.0;
    bool anyDone = false;
    Partition cur = basePart;

    const auto schedMask = [&]() -> const std::uint8_t * {
        if (!anyDone)
            return nullptr;
        doneSched.assign(sc.schedule.taskCount(), 0);
        for (std::uint32_t t = 0; t < graph.size(); ++t)
            doneSched[sc.newId[t]] = doneGraph[t];
        // A transfer re-ships only when its value has not been
        // produced yet; already-produced values moved in the
        // migration-bytes accounting. transferId indexes the cut of
        // the partition in force.
        constexpr sim::TaskId kUnset = ~sim::TaskId{0};
        for (std::size_t j = 0; j < sc.transferId.size(); ++j)
            if (sc.transferId[j] != kUnset)
                doneSched[sc.transferId[j]] =
                    doneGraph[cur.cutEdges[j].src];
        return doneSched.data();
    };

    // One replay segment, observed or not: the traced twin is
    // bit-identical to replayPiecewise, so control flow (and the
    // outcome) cannot depend on whether a viz is attached.
    const auto segment = [&](const sim::RateEpochs &ep) {
        if (viz == nullptr)
            return sc.schedule.replayPiecewise(
                baseRates, ep, schedMask(), scratch);
        obs::TraceSegment seg;
        seg.baseSec = tBase;
        seg.epochs = ep;
        const double m = obs::replayPiecewiseTraced(
            sc.schedule, baseRates, ep, schedMask(), scratch,
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
            buildEpochs(trace, sc, tBase);
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
                if (scratch.finish[sc.newId[t]] <= tfRel)
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
        eng.bind(graph, source, plan.part, sc);
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
        buildEpochs(trace, sc, tBase);
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
    const std::size_t nres = sc.schedule.resourceCount();
    const std::size_t chipRes = sc.shards * sc.perChip;
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
                res = std::size_t{e.shard} * sc.perChip +
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
    sc.schedule.replayMany(staticRates.data(), n, batch);
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
