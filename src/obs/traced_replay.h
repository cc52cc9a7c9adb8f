/**
 * @file
 * Traced replay: the CompiledSchedule recurrence with an observer.
 *
 * replayTraced() and replayPiecewiseTraced() are recorder
 * instantiations of the one replay kernel (sim/replay_kernel.h): the
 * same kernel, in the same rate mode, that CompiledSchedule::replay()
 * / replayPiecewise() run, with a recorder that appends one TraceOp
 * per executed op into a caller-owned TraceBuffer. Recording only
 * reads what the recurrence computed, so the results (makespan,
 * scratch.finish/freeAt/busy/jobs) are bit-identical to the plain
 * paths at every replay point, piecewise epochs and done masks
 * included; tests/test_obs.cpp asserts this on randomized DAGs, and
 * pins both against a copy of the pre-kernel loops.
 *
 * The recorder is a compile-time parameter, so the plain hot path —
 * the one sweeps and tuners replay millions of times — carries no
 * recording branch, and tracing stays strictly opt-in.
 */

#ifndef CIFLOW_OBS_TRACED_REPLAY_H
#define CIFLOW_OBS_TRACED_REPLAY_H

#include "obs/trace_buffer.h"
#include "sim/compiled_schedule.h"

namespace ciflow::obs
{

/**
 * replay() with per-op trace recording: validates rates (panicking on
 * the same violations replay() would), resets `buf` to the schedule's
 * op count, runs the recurrence, and returns the makespan. After the
 * call, scratch holds exactly what replay() would have left there and
 * buf holds one record per op in issue order with buf.makespan set.
 * Thread-safe for concurrent calls with distinct scratch and buffers.
 */
double replayTraced(const sim::CompiledSchedule &cs,
                    const sim::ReplayRates &rates,
                    sim::ReplayScratch &scratch, TraceBuffer &buf);

/**
 * replayPiecewise() with per-op trace recording: piecewise service
 * rates from `ep` (validated like the plain path), an optional done
 * mask (tasks with done[t] != 0 finish at 0, occupy nothing, and
 * record nothing), and the same fractional-progress re-timing across
 * epoch boundaries. Records carry the epoch index in effect at issue.
 * With an empty epoch table and a null mask this delegates to
 * replayTraced() and is bit-identical to replay() by construction.
 */
double replayPiecewiseTraced(const sim::CompiledSchedule &cs,
                             const sim::ReplayRates &rates,
                             const sim::RateEpochs &ep,
                             const std::uint8_t *done,
                             sim::ReplayScratch &scratch,
                             TraceBuffer &buf);

} // namespace ciflow::obs

#endif // CIFLOW_OBS_TRACED_REPLAY_H
