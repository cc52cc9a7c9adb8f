/**
 * @file
 * The replay kernel: the one scalar evaluation of the scheduling
 * recurrence over a compiled schedule.
 *
 * Every scalar replay — CompiledSchedule::replay / tryReplay /
 * replayPiecewise, the watchdog's rescan after a non-finite makespan,
 * and obs::replayTraced / replayPiecewiseTraced — is one
 * instantiation of replayKernel() over a ScheduleView, picked by two
 * compile-time parameters:
 *
 *  - a rate mode: ConstantRates (every resource serves at its
 *    ReplayRates rate throughout) or PiecewiseRates (RateEpochs
 *    cursors with fractional epoch crossing, plus an optional done
 *    mask);
 *  - a per-op recorder, handed each executed op's schedule as it
 *    settles: NoRecord, FirstNonFinite (the watchdog's rescan), or
 *    obs's TraceBuffer append.
 *
 * Both are resolved with `if constexpr` and inlining, so the
 * ConstantRates + NoRecord instantiation — the one sweeps and tuners
 * replay millions of times — is the plain hot loop: no per-op epoch
 * test, no done-mask test, no recording. The batched lane bodies of
 * replayMany() stay separate (they evaluate the same recurrence
 * across SIMD lanes and are pinned bit-identical to it by tests), as
 * does EventQueue::run, the independent oracle.
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

/** Recorder that records nothing: the plain replay. */
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
 * Replay the schedule `v` at `rates` in rate mode `mode`, leaving
 * per-task finish and per-resource freeAt/busy/jobs in `s` (and the
 * epoch cursors, piecewise only), and return the makespan — the
 * latest task finish. A single pass in task id order: deps point
 * backward and per-resource queues fill in task order, so task order
 * is a valid issue order. `rec(task, op, resource, epoch, ready,
 * start, finish, visible)` sees every executed op once, in issue
 * order; `epoch` counts the rate epochs the resource had entered at
 * issue (always 0 under ConstantRates).
 */
template <class Rates, class Recorder>
double
replayKernel(const ScheduleView &v, const ReplayRates &rates,
             const Rates &mode, ReplayScratch &s, Recorder &&rec)
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
    if constexpr (Rates::kPiecewise) {
        // Per-resource epoch cursors. Op starts on one resource are
        // non-decreasing (start = max(freeAt, ready) >= the previous
        // op's finish there), so cursors only ever move forward — the
        // whole replay advances each resource's epoch list once.
        if (!mode.ep.off.empty())
            s.epoch.assign(mode.ep.off.begin(), mode.ep.off.end() - 1);
    }

    const double *bps = rates.bytesPerSec.data();
    const double w0 = rates.workPerSec[0];
    const double w1 = rates.workPerSec[1];

    // Duration of op i when its resource serves at m times its rate:
    // the max over its components, each rate multiplied once by m.
    // All components are >= 0 and max is exact, so the result is
    // bit-identical to evaluating only the component(s) the op
    // carries; zero numerators are skipped rather than divided (0/rate
    // is +0 and can never raise the max), so an op pays one divide per
    // component it carries. At m == 1 every product is exact (x * 1.0
    // == x) and folds away. The fixed seconds component is wall-clock
    // (issue overhead, link propagation), not service, and is never
    // scaled.
    const auto durAt = [&](std::uint32_t i, ResourceId res, double m) {
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
        if constexpr (Rates::kPiecewise) {
            if (mode.done != nullptr && mode.done[t] != 0) {
                // Completed before this (re)play began: dependents see
                // it immediately and it occupies no resource time. The
                // failover path uses this to charge only surviving work.
                s.finish[t] = 0.0;
                continue;
            }
        }
        double ready = 0.0;
        for (std::uint32_t i = v.depOff[t]; i < v.depOff[t + 1]; ++i) {
            const double f = s.finish[v.depIds[i]];
            if (f > ready)
                ready = f;
        }
        double task_fin = 0.0;
        for (std::uint32_t i = v.opOff[t]; i < v.opOff[t + 1]; ++i) {
            const ResourceId res = v.opRes[i];
            const double start =
                s.freeAt[res] > ready ? s.freeAt[res] : ready;
            // A resource without epochs serves at its constant rate:
            // every resource under ConstantRates (so the flag folds
            // away), and piecewise ones outside the epoch table.
            bool flat = true;
            if constexpr (Rates::kPiecewise)
                flat = mode.ep.off.empty() ||
                       mode.ep.off[res] == mode.ep.off[res + 1];
            double fin = start;
            std::uint32_t epoch = 0;
            if (flat) {
                const double dur = durAt(i, res, 1.0);
                fin = start + dur;
                s.busy[res] += dur;
            } else if constexpr (Rates::kPiecewise) {
                // Resource res's epochs are [lo, hi) of the table.
                constexpr double inf =
                    std::numeric_limits<double>::infinity();
                const RateEpochs &ep = mode.ep;
                const std::uint32_t lo = ep.off[res];
                const std::uint32_t hi = ep.off[res + 1];
                std::uint32_t c = s.epoch[res];
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
            // The resource frees after the service; dependents
            // additionally wait out the op's propagation delay. With
            // postSeconds == 0 both times are the same double.
            s.freeAt[res] = fin;
            ++s.jobs[res];
            const double vis = fin + v.opPost[i];
            if (vis > task_fin)
                task_fin = vis;
            rec(static_cast<TaskId>(t), i, res, epoch, ready, start, fin,
                vis);
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
