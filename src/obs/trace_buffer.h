/**
 * @file
 * TraceBuffer: the per-op timeline record a traced replay fills.
 *
 * Every perf claim upstream of this layer is a single makespan number;
 * attribution ("why is ARK at K=8 min-cut 4.19x faster?") needs the
 * schedule the replay recurrence actually computed. A traced replay
 * (obs/traced_replay.h) appends one TraceOp per executed op into a
 * preallocated TraceBuffer — dependency-ready time, service window,
 * visibility (post-latency) time, payload bytes, and the rate epoch in
 * effect at issue — which the analyses (obs/analysis.h) and the Chrome
 * trace exporter (obs/chrome_trace.h) then consume without ever
 * touching the sim layer again.
 *
 * The buffer is reset once per replay with the schedule's op count and
 * records with plain push_back into reserved storage, so a traced
 * replay allocates nothing per op (and nothing at all after the first
 * reset at a given capacity) — the same discipline as ReplayScratch.
 */

#ifndef CIFLOW_OBS_TRACE_BUFFER_H
#define CIFLOW_OBS_TRACE_BUFFER_H

#include <cstdint>
#include <vector>

#include "sim/ids.h"

namespace ciflow::obs
{

/**
 * One executed op as the replay recurrence scheduled it. All times are
 * replay-local seconds, copied bit-exactly from the recurrence:
 * `start == max(resource free, ready)`, `finish == start + duration`
 * (the resource frees at `finish`), and `visible == finish +
 * postSeconds` (when dependents may observe the result). `epoch` is
 * the number of RateEpochs entries the op's resource had entered when
 * the op issued — 0 means full speed, and plain (non-piecewise) traced
 * replay always records 0.
 */
struct TraceOp
{
    /** Owning task. */
    sim::TaskId task = 0;
    /** Global op index into the schedule's CSR op arrays. */
    std::uint32_t op = 0;
    /** Resource the op was served on. */
    sim::ResourceId resource = 0;
    /** Rate epochs entered on `resource` at issue (0 = full speed). */
    std::uint32_t epoch = 0;
    /** When the op's dependencies had all resolved. */
    double ready = 0.0;
    /** Service start: max(resource free time, ready). */
    double start = 0.0;
    /** Service end; the resource is busy over [start, finish). */
    double finish = 0.0;
    /** finish + postSeconds: when dependents may observe the result. */
    double visible = 0.0;
    /** Bandwidth-scaled payload numerator (0 for pure compute). */
    double bytes = 0.0;
};

/**
 * A replay timeline: one TraceOp per executed op, in issue (task,
 * then op) order, plus the replay's makespan. Issue order is the
 * property the analyses lean on — ops of one resource appear in
 * service order, so "previous record on my resource" is the op whose
 * finish my start may be tight against.
 */
struct TraceBuffer
{
    /** Records in issue order (task-major, op-minor). */
    std::vector<TraceOp> ops;
    /** Makespan of the traced replay (latest task finish). */
    double makespan = 0.0;

    /**
     * Clear and pre-reserve for a schedule of `opCapacity` ops so the
     * recording path never allocates per op. Called by the traced
     * replays; harnesses reuse one buffer across replays the same way
     * they reuse a ReplayScratch.
     */
    void
    reset(std::size_t opCapacity)
    {
        ops.clear();
        ops.reserve(opCapacity);
        makespan = 0.0;
    }
};

} // namespace ciflow::obs

#endif // CIFLOW_OBS_TRACE_BUFFER_H
