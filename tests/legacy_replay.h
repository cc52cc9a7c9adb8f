/**
 * @file
 * Test-side reference for the replay recurrence: the scalar replay
 * loops CompiledSchedule carried before its replays became
 * instantiations of one kernel (sim/replay_kernel.h).
 *
 * replayCore() is the constant-rate replay loop and replayPiecewise()
 * the piecewise loop (epoch cursors, fractional epoch crossing, done
 * mask), copied verbatim over a ScheduleView instead of the class's
 * member arrays. Neither validates its inputs: callers pass rates and
 * epochs the library accepts. The only addition is the optional `ops`
 * output, one (start, finish, visible) record per executed op in
 * issue order, so traced replays can be compared op by op. Once the
 * plain and traced replays share one template, comparing them only
 * shows that recording changes nothing; these loops are what pins the
 * kernel's arithmetic to the recurrence it replaced, bit for bit.
 */

#ifndef CIFLOW_TESTS_LEGACY_REPLAY_H
#define CIFLOW_TESTS_LEGACY_REPLAY_H

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/compiled_schedule.h"

namespace ciflow::legacy
{

/** One executed op's schedule, in issue order. */
struct OpTimes
{
    double start = 0.0;
    double finish = 0.0;
    double visible = 0.0;
};

/** The constant-rate replay loop; returns the makespan. */
inline double
replayCore(const sim::ScheduleView &v, const sim::ReplayRates &rates,
           sim::ReplayScratch &s, std::vector<OpTimes> *ops = nullptr)
{
    const std::size_t nt = v.taskCount;
    const std::size_t nr = v.resourceCount;

    // finish[t] is written before any read (deps point backward), so a
    // plain resize suffices; the per-resource accumulators need zeroing.
    if (s.finish.size() < nt)
        s.finish.resize(nt);
    s.freeAt.assign(nr, 0.0);
    s.busy.assign(nr, 0.0);
    s.jobs.assign(nr, 0);

    const double *bps = rates.bytesPerSec.data();
    const double w0 = rates.workPerSec[0];
    const double w1 = rates.workPerSec[1];

    double makespan = 0.0;
    for (std::size_t t = 0; t < nt; ++t) {
        double ready = 0.0;
        for (std::uint32_t i = v.depOff[t]; i < v.depOff[t + 1]; ++i) {
            const double f = s.finish[v.depIds[i]];
            if (f > ready)
                ready = f;
        }
        double task_fin = 0.0;
        for (std::uint32_t i = v.opOff[t]; i < v.opOff[t + 1]; ++i) {
            const sim::ResourceId res = v.opRes[i];
            // max over components; all are >= 0 and max is exact, so
            // the result is bit-identical to evaluating only the
            // component(s) the op actually carries. Zero numerators
            // are skipped rather than divided: 0/rate is +0 exactly
            // and can never raise the max, so an op pays one divide
            // per component it carries, not one per class.
            double dur = v.opSec[i];
            if (v.opWork0[i] != 0.0) {
                const double da = v.opWork0[i] / w0;
                if (da > dur)
                    dur = da;
            }
            if (v.opWork1[i] != 0.0) {
                const double ds = v.opWork1[i] / w1;
                if (ds > dur)
                    dur = ds;
            }
            if (v.opBytes[i] != 0.0) {
                const double db = v.opBytes[i] / bps[res];
                if (db > dur)
                    dur = db;
            }
            const double start =
                s.freeAt[res] > ready ? s.freeAt[res] : ready;
            // The resource frees after the service duration; dependents
            // additionally wait out the op's propagation delay. With
            // postSeconds == 0 both times are the same double, so the
            // pre-latency replay results are reproduced bit-exactly.
            const double fin = start + dur;
            s.freeAt[res] = fin;
            s.busy[res] += dur;
            ++s.jobs[res];
            const double vis = fin + v.opPost[i];
            if (vis > task_fin)
                task_fin = vis;
            if (ops != nullptr)
                ops->push_back({start, fin, vis});
        }
        s.finish[t] = task_fin;
        // Every op finish is bounded by its task finish, so the latest
        // task finish dominates every resource's freeAt.
        if (task_fin > makespan)
            makespan = task_fin;
    }
    return makespan;
}

/**
 * The piecewise replay loop; returns the makespan. With no epochs and
 * no done mask it delegates to replayCore(), as the library did.
 */
inline double
replayPiecewise(const sim::ScheduleView &v, const sim::ReplayRates &rates,
                const sim::RateEpochs &ep, const std::uint8_t *done,
                sim::ReplayScratch &s, std::vector<OpTimes> *ops = nullptr)
{
    // The zero-fault path must be *the* replay, not a twin of it: with
    // no epochs and no done mask there is nothing piecewise to do, so
    // delegate and inherit bit-identity by construction.
    if (ep.empty() && done == nullptr)
        return replayCore(v, rates, s, ops);

    const std::size_t nt = v.taskCount;
    const std::size_t nr = v.resourceCount;
    if (s.finish.size() < nt)
        s.finish.resize(nt);
    s.freeAt.assign(nr, 0.0);
    s.busy.assign(nr, 0.0);
    s.jobs.assign(nr, 0);
    const bool hasEp = !ep.off.empty();
    if (hasEp) {
        // Per-resource epoch cursors. Op starts on one resource are
        // non-decreasing (start = max(freeAt, ready) >= the previous
        // op's finish there), so cursors only ever move forward — the
        // whole replay advances each resource's epoch list once.
        s.epoch.assign(nr, 0);
        for (std::size_t r = 0; r < nr; ++r)
            s.epoch[r] = ep.off[r];
    }

    const double *bps = rates.bytesPerSec.data();
    const double w0 = rates.workPerSec[0];
    const double w1 = rates.workPerSec[1];
    const double inf = std::numeric_limits<double>::infinity();

    // Duration of op i when its resource serves at m times its rate:
    // the same component divides as replayCore with each rate
    // multiplied once by m (component / (rate * m)). At m == 1 every
    // product is exact (x * 1.0 == x), so the duration is bit-identical
    // to the unfaulted one. The fixed seconds component is wall-clock
    // (issue overhead, link propagation), not service on the degraded
    // resource, and is deliberately not scaled.
    const auto durAt = [&](std::uint32_t i, sim::ResourceId res,
                           double m) {
        double dur = v.opSec[i];
        if (v.opWork0[i] != 0.0) {
            const double da = v.opWork0[i] / (w0 * m);
            if (da > dur)
                dur = da;
        }
        if (v.opWork1[i] != 0.0) {
            const double ds = v.opWork1[i] / (w1 * m);
            if (ds > dur)
                dur = ds;
        }
        if (v.opBytes[i] != 0.0) {
            const double db = v.opBytes[i] / (bps[res] * m);
            if (db > dur)
                dur = db;
        }
        return dur;
    };

    double makespan = 0.0;
    for (std::size_t t = 0; t < nt; ++t) {
        if (done != nullptr && done[t] != 0) {
            // Completed before this (re)play began: dependents see it
            // immediately and it occupies no resource time. The
            // failover path uses this to charge only surviving work.
            s.finish[t] = 0.0;
            continue;
        }
        double ready = 0.0;
        for (std::uint32_t i = v.depOff[t]; i < v.depOff[t + 1]; ++i) {
            const double f = s.finish[v.depIds[i]];
            if (f > ready)
                ready = f;
        }
        double task_fin = 0.0;
        for (std::uint32_t i = v.opOff[t]; i < v.opOff[t + 1]; ++i) {
            const sim::ResourceId res = v.opRes[i];
            const double start =
                s.freeAt[res] > ready ? s.freeAt[res] : ready;
            double fin;
            if (!hasEp || ep.off[res] == ep.off[res + 1]) {
                // No epochs on this resource: the plain replayCore op
                // body (m == 1 products are exact).
                const double dur = durAt(i, res, 1.0);
                fin = start + dur;
                s.busy[res] += dur;
            } else {
                const std::uint32_t lo = ep.off[res];
                const std::uint32_t hi = ep.off[res + 1];
                std::uint32_t c = s.epoch[res];
                while (c < hi && ep.at[c] <= start)
                    ++c;
                double m = c > lo ? ep.mult[c - 1] : 1.0;
                double dur = durAt(i, res, m);
                double nextAt = c < hi ? ep.at[c] : inf;
                fin = start + dur;
                if (fin <= nextAt) {
                    // Entirely inside one epoch: a single divide
                    // chain; at m == 1 exactly the unfaulted op.
                    s.busy[res] += dur;
                } else {
                    // The op spans epoch boundaries. Fractional
                    // progress: the share of service not yet done when
                    // the rate changes is re-timed at the new rate, so
                    // degradation applies mid-op instead of snapping
                    // to op boundaries.
                    double tcur = start;
                    double frac = 1.0;
                    while (true) {
                        const double rem = frac * dur;
                        if (c >= hi || tcur + rem <= nextAt) {
                            fin = tcur + rem;
                            break;
                        }
                        frac -= (nextAt - tcur) / dur;
                        // Rounding can push the remaining share a hair
                        // below zero; clamp so finish never precedes
                        // the boundary just crossed.
                        if (frac < 0.0)
                            frac = 0.0;
                        tcur = nextAt;
                        m = ep.mult[c];
                        ++c;
                        dur = durAt(i, res, m);
                        nextAt = c < hi ? ep.at[c] : inf;
                    }
                    s.busy[res] += fin - start;
                }
                s.epoch[res] = c;
            }
            s.freeAt[res] = fin;
            ++s.jobs[res];
            const double vis = fin + v.opPost[i];
            if (vis > task_fin)
                task_fin = vis;
            if (ops != nullptr)
                ops->push_back({start, fin, vis});
        }
        s.finish[t] = task_fin;
        if (task_fin > makespan)
            makespan = task_fin;
    }
    return makespan;
}

} // namespace ciflow::legacy

#endif // CIFLOW_TESTS_LEGACY_REPLAY_H
