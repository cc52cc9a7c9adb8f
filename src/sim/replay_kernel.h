/**
 * @file
 * The replay kernel: the one evaluation of the scheduling recurrence
 * over a compiled schedule.
 *
 * Every replay — CompiledSchedule::replay / tryReplay /
 * replayPiecewise, each replayMany() block, the watchdog's rescan
 * after a non-finite makespan, and obs::replayTraced /
 * replayPiecewiseTraced — is one instantiation of replayBody() over a
 * ScheduleView, picked by three compile-time parameters:
 *
 *  - a point type: ScalarPoint (one replay point over a ReplayScratch,
 *    through replayKernel()) or replayMany()'s lane points (a block of
 *    kBatchLanes points side by side as one GNU vector, in
 *    sim/compiled_schedule.cpp);
 *  - a rate mode: ConstantRates (every resource serves at its
 *    ReplayRates rate throughout) or PiecewiseRates (RateEpochs
 *    cursors with fractional epoch crossing, plus an optional done
 *    mask);
 *  - a per-op recorder, handed each executed op's schedule as it
 *    settles: NoRecord, FirstNonFinite (the watchdog's rescan), or
 *    obs's TraceBuffer append.
 *
 * All three are resolved with `if constexpr` and inlining, so the
 * ConstantRates + NoRecord instantiations — the ones sweeps and tuners
 * replay millions of times — are the plain hot loop: no per-op epoch
 * test, no done-mask test, no recording. Piecewise rates and
 * recorders are scalar-only. EventQueue::run stays separate, the
 * independent oracle.
 *
 * Internal to the library: callers validate rates (and epochs) first
 * and own the finite check on the returned makespan.
 */

#ifndef CIFLOW_SIM_REPLAY_KERNEL_H
#define CIFLOW_SIM_REPLAY_KERNEL_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "sim/compiled_schedule.h"

namespace ciflow::sim::detail
{

/** Rate mode: every resource serves at its ReplayRates rate. */
struct ConstantRates
{
    static constexpr bool kPiecewise = false;
};

/**
 * Rate mode of replayPiecewise(): per-resource epoch multipliers from
 * `ep` (validated by checkEpochs; may be empty) and an optional
 * taskCount()-byte done mask (null = no task is done).
 */
struct PiecewiseRates
{
    static constexpr bool kPiecewise = true;
    const RateEpochs &ep;
    const std::uint8_t *done;
};

/** Recorder that records nothing: the plain replay, scalar or lanes. */
struct NoRecord
{
    void
    operator()(TaskId, std::uint32_t, ResourceId, std::uint32_t, double,
               double, double, double) const
    {
    }
};

/**
 * Recorder of the watchdog rescan: keeps the first op whose visible
 * time (finish plus post latency) left the finite range.
 */
struct FirstNonFinite
{
    bool found = false;
    TaskId task = 0;
    std::uint32_t op = 0;
    ResourceId resource = 0;

    void
    operator()(TaskId t, std::uint32_t i, ResourceId res, std::uint32_t,
               double, double, double, double vis)
    {
        if (!found && !std::isfinite(vis)) {
            found = true;
            task = t;
            op = i;
            resource = res;
        }
    }
};

/**
 * Point type of every scalar replay: one replay point, each time a
 * double, over a ReplayScratch. Scratch reads go through
 * std::vector::operator[], which _GLIBCXX_ASSERTIONS builds
 * range-check.
 */
struct ScalarPoint
{
    using V = double;
    ReplayScratch &s;
    const double *bps;
    double w0, w1;

    double &finish(std::size_t t) const { return s.finish[t]; }
    double &freeAt(ResourceId r) const { return s.freeAt[r]; }
    double &busy(ResourceId r) const { return s.busy[r]; }
    double bytesRate(ResourceId r) const { return bps[r]; }
};

/**
 * The scheduling recurrence over the schedule `v`, evaluated for the
 * replay points of `pts` in rate mode `mode`: per-task finish and
 * per-resource freeAt/busy/jobs land in `pts`' scratch (and the epoch
 * cursors, piecewise only), and the makespan — the latest task
 * finish — is returned, one P::V per replay. A single pass in task id
 * order: deps point backward and per-resource queues fill in task
 * order, so task order is a valid issue order. The scratch must
 * arrive reset (finish sized, freeAt/busy/jobs zero).
 *
 * P is ScalarPoint or replayMany()'s lane points: P::V is a double or
 * a kBatchLanes-wide GNU vector, and every time, duration and rate of
 * the recurrence is a P::V, so each lane performs the exact divides,
 * maxes and adds of a scalar replay at its point. P::V is named
 * through P, never deduced: a deduced template argument drops a
 * vector typedef's aligned/may_alias attributes. Piecewise rates and
 * recorders are scalar-only. `rec(task, op, resource, epoch, ready,
 * start, finish, visible)` sees every executed op once, in issue
 * order; `epoch` counts the rate epochs the resource had entered at
 * issue (always 0 under ConstantRates). Always inlined, so each
 * target clone of the lane instantiation compiles it for its ISA.
 */
template <class P, class Rates, class Recorder>
[[gnu::always_inline]] inline typename P::V
replayBody(const ScheduleView &v, const P &pts, const Rates &mode,
           Recorder &&rec)
{
    using V = typename P::V;
    constexpr bool kScalar = std::is_same_v<P, ScalarPoint>;
    static_assert(kScalar || (!Rates::kPiecewise &&
                              std::is_same_v<std::remove_cvref_t<Recorder>,
                                             NoRecord>),
                  "piecewise rates and recorders are scalar-only");

    // The recurrence's one max: a rises to b only where b is greater.
    // The same expression on doubles and on GNU vectors.
    const auto maxOf = [](V a, V b) { return b > a ? b : a; };
    const V w0 = pts.w0;
    const V w1 = pts.w1;

    // Duration of op i when its resource serves at m times its rate:
    // the max over its components, each rate multiplied once by m.
    // All components are >= 0 and max is exact, so the result is
    // bit-identical to evaluating only the component(s) the op
    // carries; zero numerators are skipped rather than divided (0/rate
    // is +0 and can never raise the max), so an op pays one divide per
    // component it carries. The branches are per op, uniform across
    // lanes. At m == 1 every product is exact (x * 1.0 == x) and folds
    // away. The fixed seconds component is wall-clock (issue overhead,
    // link propagation), not service, and is never scaled; `sec - V{}`
    // is sec itself as a P::V (x - 0 is exact). The bytes component is
    // a conditional return, not a store to `dur`: GCC would otherwise
    // build `dur` in the lambda's return slot and split the lanes'
    // broadcast of sec into per-lane inserts before inlining.
    const auto durAt = [&](std::uint32_t i, ResourceId res, double m) {
        V dur = v.opSec[i] - V{};
        if (v.opWork0[i] != 0.0)
            dur = maxOf(dur, v.opWork0[i] / (w0 * m));
        if (v.opWork1[i] != 0.0)
            dur = maxOf(dur, v.opWork1[i] / (w1 * m));
        return v.opBytes[i] != 0.0
                   ? maxOf(dur, v.opBytes[i] / (pts.bytesRate(res) * m))
                   : dur;
    };

    V makespan{};
    for (std::size_t t = 0; t < v.taskCount; ++t) {
        if constexpr (Rates::kPiecewise) {
            if (mode.done != nullptr && mode.done[t] != 0) {
                // Completed before this (re)play began: dependents see
                // it immediately and it occupies no resource time. The
                // failover path uses this to charge only surviving work.
                pts.finish(t) = 0.0;
                continue;
            }
        }
        V ready{};
        for (std::uint32_t i = v.depOff[t]; i < v.depOff[t + 1]; ++i)
            ready = maxOf(ready, pts.finish(v.depIds[i]));
        V task_fin{};
        for (std::uint32_t i = v.opOff[t]; i < v.opOff[t + 1]; ++i) {
            const ResourceId res = v.opRes[i];
            const V start = maxOf(ready, pts.freeAt(res));
            // A resource without epochs serves at its constant rate:
            // every resource under ConstantRates (so the flag folds
            // away), and piecewise ones outside the epoch table.
            bool flat = true;
            if constexpr (Rates::kPiecewise)
                flat = mode.ep.off.empty() ||
                       mode.ep.off[res] == mode.ep.off[res + 1];
            V fin = start;
            std::uint32_t epoch = 0;
            if (flat) {
                const V dur = durAt(i, res, 1.0);
                fin = start + dur;
                pts.busy(res) += dur;
            } else if constexpr (Rates::kPiecewise) {
                // Resource res's epochs are [lo, hi) of the table.
                constexpr double inf =
                    std::numeric_limits<double>::infinity();
                const RateEpochs &ep = mode.ep;
                const std::uint32_t lo = ep.off[res];
                const std::uint32_t hi = ep.off[res + 1];
                std::uint32_t c = pts.s.epoch[res];
                while (c < hi && ep.at[c] <= start)
                    ++c;
                epoch = c - lo;
                double m = c > lo ? ep.mult[c - 1] : 1.0;
                double dur = durAt(i, res, m);
                double nextAt = c < hi ? ep.at[c] : inf;
                fin = start + dur;
                if (fin <= nextAt) {
                    // Entirely inside one epoch: a single divide
                    // chain; at m == 1 exactly the constant-rate op.
                    pts.busy(res) += dur;
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
                    pts.busy(res) += fin - start;
                }
                pts.s.epoch[res] = c;
            }
            // The resource frees after the service; dependents
            // additionally wait out the op's propagation delay. With
            // postSeconds == 0 both times are the same double.
            pts.freeAt(res) = fin;
            ++pts.s.jobs[res];
            const V vis = fin + v.opPost[i];
            task_fin = maxOf(task_fin, vis);
            if constexpr (kScalar)
                rec(static_cast<TaskId>(t), i, res, epoch, ready, start,
                    fin, vis);
        }
        pts.finish(t) = task_fin;
        // Every op finish is bounded by its task finish, so the latest
        // task finish dominates every resource's freeAt.
        makespan = maxOf(makespan, task_fin);
    }
    return makespan;
}

/**
 * Replay the schedule `v` at `rates` in rate mode `mode`: reset `s`
 * (and the epoch cursors, piecewise only), run the recurrence
 * (replayBody) for the one point, and return the makespan.
 */
template <class Rates, class Recorder>
double
replayKernel(const ScheduleView &v, const ReplayRates &rates,
             const Rates &mode, ReplayScratch &s, Recorder &&rec)
{
    // finish[t] is written before any read (deps point backward), so a
    // plain resize suffices; the per-resource accumulators need zeroing.
    if (s.finish.size() < v.taskCount)
        s.finish.resize(v.taskCount);
    s.freeAt.assign(v.resourceCount, 0.0);
    s.busy.assign(v.resourceCount, 0.0);
    s.jobs.assign(v.resourceCount, 0);
    if constexpr (Rates::kPiecewise) {
        // Per-resource epoch cursors. Op starts on one resource are
        // non-decreasing (start = max(freeAt, ready) >= the previous
        // op's finish there), so cursors only ever move forward — the
        // whole replay advances each resource's epoch list once.
        if (!mode.ep.off.empty())
            s.epoch.assign(mode.ep.off.begin(), mode.ep.off.end() - 1);
    }
    const ScalarPoint pts{s, rates.bytesPerSec.data(),
                          rates.workPerSec[0], rates.workPerSec[1]};
    return replayBody(v, pts, mode, rec);
}

/**
 * The watchdog's cold path, run only after a replay's makespan came
 * out non-finite: replay `cs` again in the same rate mode — same
 * epochs, same done mask — with throwaway buffers, and format the
 * first op whose visible time left the finite range as
 * "op <i> of task <t> (resource <name>)".
 */
template <class Rates>
std::string
nonFiniteOpReport(const CompiledSchedule &cs, const ReplayRates &rates,
                  const Rates &mode)
{
    ReplayScratch s;
    FirstNonFinite first;
    replayKernel(cs.view(), rates, mode, s, first);
    if (!first.found)
        return "no offending op found on rescan";
    return "op " + std::to_string(first.op) + " of task " +
           std::to_string(first.task) + " (resource " +
           cs.resourceName(first.resource) + ")";
}

} // namespace ciflow::sim::detail

#endif // CIFLOW_SIM_REPLAY_KERNEL_H
