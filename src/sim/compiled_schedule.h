/**
 * @file
 * CompiledSchedule: a task graph flattened for repeated simulation.
 *
 * The sweep harnesses evaluate one graph at dozens of (bandwidth,
 * MODOPS) points, and bisection helpers run up to 61 simulates per
 * answer. Compiling the graph once moves every per-task cost to setup
 * time: tasks, dependencies and ops become CSR-style flat arrays
 * (offset-indexed), and each op's cost is stored as *numerators* —
 * a bandwidth-scaled byte payload, rate-scaled work components, and a
 * fixed-seconds component — so one sweep point is a single O(V+E) scan
 * over contiguous memory that divides numerators by that point's rates.
 *
 * Storing numerators instead of precomputed durations keeps replay
 * bit-identical to building the costs from scratch: the replay performs
 * the exact same IEEE division (numerator / rate) the eager path would,
 * with no double rounding through an intermediate "unit seconds" value.
 *
 * Op storage is structure-of-arrays: each cost component lives in its
 * own contiguous array (bytes[], work0[], work1[], seconds[],
 * postSeconds[], resource[]) instead of an array of 56-byte op records.
 * The scalar replay streams only the components it needs, and —
 * the reason for the layout — replayMany() walks the arrays *once*
 * while evaluating up to kBatchLanes replay points per op with
 * lane-contiguous scratch (finish[t*B + lane], freeAt[r*B + lane]):
 * the replay kernel (sim/replay_kernel.h) instantiated over one
 * explicit SIMD vector of kBatchLanes doubles per time. Each lane
 * performs the exact same IEEE divides and maxes as a scalar replay at
 * that point, so a batched sweep is bit-identical lane-by-lane to
 * per-point replay (asserted by tests/test_compiled_schedule.cpp).
 *
 * replay() writes into caller-owned ReplayScratch buffers, so repeated
 * simulates — including parallel sweeps with per-thread scratch —
 * allocate nothing after the first call. replayMany() does the same
 * with a BatchScratch.
 *
 * Compiled state splits into two halves. The *skeleton* — CSR offsets
 * (depOff/depIds/opOff) and the op cost numerators (bytes, work,
 * seconds, postSeconds) — depends only on the task graph and the
 * lowering, not on which resource serves each op. The *binding* — the
 * per-op resource ids, the resource name table, and the layout tag —
 * is what a placement change alters. The patch API (patchBegin /
 * patchResourceName / patchCommit) resizes and renames the resource
 * table in place, and bulkWrite() resizes the CSR arrays while
 * keeping their capacity and hands them out for writing, so the shard
 * engine binds a reused schedule to any partition in place, without
 * reallocating. The layout tag names the resource layout alone (chip,
 * shard count, topology), so rates built for it serve every binding
 * of that layout.
 */

#ifndef CIFLOW_SIM_COMPILED_SCHEDULE_H
#define CIFLOW_SIM_COMPILED_SCHEDULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/error.h"
#include "sim/ids.h"

namespace ciflow::sim
{

/** Rate-scaled work classes an op may carry (arithmetic, shuffle). */
constexpr std::size_t kWorkClasses = 2;

/**
 * Point-lanes one replayMany() block evaluates per op. Eight doubles
 * fill one AVX-512 register (two AVX2 registers); larger batches are
 * processed in blocks of this width, so scratch stays cache-resident
 * regardless of how many points a sweep submits.
 */
constexpr std::size_t kBatchLanes = 8;

/**
 * One compiled op: cost numerators bound to a resource. The duration at
 * a replay point is the max over its non-zero components:
 *
 *   max(bytes / bytesPerSec[resource],
 *       work[k] / workPerSec[k] for each class k,
 *       seconds)
 *
 * A fused compute op carries both work classes (the fused pipe costs
 * the slower of its arithmetic and shuffle halves); a split-pipe op
 * carries one; a memory op carries only bytes; a generic fixed-duration
 * op carries only seconds.
 *
 * postSeconds models propagation delay of pipelined links (LogP-style):
 * the resource is occupied for the duration above (the occupancy of a
 * transfer, bytes/bandwidth), but the op's result only becomes visible
 * to dependents postSeconds later. The next message on the same link
 * does not wait out the latency — cross-chip transfers queue on link
 * bandwidth and pipeline their propagation.
 *
 * This is the *build-time* record handed to addTask(); storage inside
 * the schedule is structure-of-arrays (see file comment).
 */
struct CompiledOp
{
    ResourceId resource = 0;
    /** Bandwidth-scaled payload, served at the resource's rate. */
    double bytes = 0.0;
    /** Rate-scaled work, served at ReplayRates::workPerSec[k]. */
    double work[kWorkClasses] = {0.0, 0.0};
    /** Fixed duration independent of any rate. */
    double seconds = 0.0;
    /** Delay after service before dependents may observe the result. */
    double postSeconds = 0.0;
};

/** The scaling knobs of one replay point. */
struct ReplayRates
{
    /**
     * Service rate per resource (bytes/s), indexed by ResourceId; must
     * have one entry per compiled resource. Entries for resources that
     * never carry bytes are ignored (keep them positive).
     */
    std::vector<double> bytesPerSec;
    /** Service rate of each work class (units/s). */
    double workPerSec[kWorkClasses] = {1.0, 1.0};
};

/**
 * Piecewise service-rate changes for faulted replay: per-resource
 * epochs at which the resource's effective speed changes. Resource
 * r's epochs are index range [off[r], off[r+1]) into the parallel
 * (at, mult) arrays; before its first epoch a resource serves at full
 * speed (multiplier 1), and from `at[j]` (inclusive) until the next
 * epoch it serves every rate-scaled cost component at `mult[j]` times
 * its ReplayRates rate. Epoch starts must be strictly increasing per
 * resource and multipliers finite and positive — chip *failures* are
 * not epochs (a dead chip is handled by failover re-placement, not by
 * an infinite duration). An empty table (no epochs at all) makes
 * replayPiecewise() delegate to replay() bit-identically.
 *
 * Built by fault::buildEpochs from a FaultTrace; kept as a plain CSR
 * struct so the sim layer stays independent of the fault model.
 */
struct RateEpochs
{
    /** Per-resource offsets into at/mult (resourceCount + 1 entries,
     * or empty when there are no epochs at all). */
    std::vector<std::uint32_t> off;
    /** Epoch start times (seconds, replay-local). */
    std::vector<double> at;
    /** Speed multiplier in effect from the matching `at` onward. */
    std::vector<double> mult;

    /** True when no resource has any epoch. */
    bool empty() const { return mult.empty(); }
};

/**
 * Reusable replay state. All buffers are resized (never shrunk) by
 * replay(); after the first call on a given schedule no allocation
 * happens. One instance per thread makes parallel sweeps allocation
 * free.
 */
struct ReplayScratch
{
    /** Finish time per task (valid after replay). */
    std::vector<double> finish;
    /** Next-free time per resource (valid after replay). */
    std::vector<double> freeAt;
    /** Busy seconds per resource (valid after replay). */
    std::vector<double> busy;
    /** Jobs served per resource (valid after replay). */
    std::vector<std::size_t> jobs;
    /** Per-resource epoch cursor (replayPiecewise only). */
    std::vector<std::uint32_t> epoch;
};

/**
 * Reusable replayMany() state: the lane-contiguous buffers of one
 * batch block plus the per-point makespans of the whole call. Like
 * ReplayScratch, buffers grow on first use and are then reused — one
 * instance per thread makes batched parallel sweeps allocation free.
 *
 * Per-lane layouts always index as [t * kBatchLanes + lane] /
 * [r * kBatchLanes + lane]: every block runs at full width, a tail
 * block of fewer points repeating its last point in the spare lanes.
 * After a replayMany() call the per-lane buffers hold the *last*
 * block's state (sweeps of up to kBatchLanes points see all their
 * lanes); `makespan` always covers every submitted point.
 */
struct BatchScratch
{
    /** Makespan per replay point (valid after replayMany, size n). */
    std::vector<double> makespan;
    /** Finish time per (task, lane) of the last block. */
    std::vector<double> finish;
    /** Next-free time per (resource, lane) of the last block. */
    std::vector<double> freeAt;
    /** Busy seconds per (resource, lane) of the last block. */
    std::vector<double> busy;
    /** Jobs per resource (rate-independent, so lane-invariant). */
    std::vector<std::size_t> jobs;
    /** Lane-transposed byte rates: bps[r * kBatchLanes + lane]. */
    std::vector<double> bps;
    /** Per-lane work-class rates. */
    std::vector<double> w0, w1;
};

/**
 * Read-only snapshot of the compiled CSR arrays, handed out by
 * CompiledSchedule::view(): what every replay walks — the replay
 * kernel (sim/replay_kernel.h) behind replay(), replayPiecewise(),
 * each replayMany() block and the obs layer's traced replays — and
 * what the obs layer's critical-path extraction reads. Task t's deps are
 * depIds[depOff[t]..depOff[t+1]) and its ops index the SoA component
 * arrays over [opOff[t], opOff[t+1)), exactly as inside the class.
 * Pointers are invalidated by anything that mutates the schedule
 * (addTask, bulkWrite, patchBegin); take the view per use, not once.
 */
struct ScheduleView
{
    const std::uint32_t *depOff = nullptr;
    const TaskId *depIds = nullptr;
    const std::uint32_t *opOff = nullptr;
    const ResourceId *opRes = nullptr;
    const double *opBytes = nullptr;
    const double *opWork0 = nullptr;
    const double *opWork1 = nullptr;
    const double *opSec = nullptr;
    const double *opPost = nullptr;
    std::size_t taskCount = 0;
    std::size_t opCount = 0;
    std::size_t resourceCount = 0;
};

/**
 * Writable CSR arrays handed out by CompiledSchedule::bulkWrite(): the
 * arrays a ScheduleView reads, laid out the same way.
 */
struct ScheduleArrays
{
    std::uint32_t *depOff = nullptr;
    TaskId *depIds = nullptr;
    std::uint32_t *opOff = nullptr;
    ResourceId *opRes = nullptr;
    double *opBytes = nullptr;
    double *opWork0 = nullptr;
    double *opWork1 = nullptr;
    double *opSec = nullptr;
    double *opPost = nullptr;
};

/** A task graph compiled to CSR arrays for scaled replay. */
class CompiledSchedule
{
  public:
    /** Register a resource; returns its id (dense from zero). */
    ResourceId addResource(std::string name);

    std::size_t resourceCount() const { return names.size(); }
    const std::string &resourceName(ResourceId id) const;

    /**
     * Pre-size the CSR arrays for a schedule of `tasks` tasks carrying
     * `deps` dependencies and `ops` ops in total. Purely an
     * optimization: compilers that know their totals up front (the RPU
     * and shard lowerings) avoid every growth reallocation of the
     * build loop. Over-estimates waste memory only until the schedule
     * is destroyed; under-estimates merely fall back to growth.
     */
    void reserve(std::size_t tasks, std::size_t deps, std::size_t ops);

    /**
     * Append a task of `ops` (at least one) depending on the earlier
     * tasks `deps`. Panics on forward/self dependencies, empty ops, or
     * an unknown resource id — the same contract as EventQueue — and,
     * as the compile-time half of the replay watchdog, on any cost
     * numerator that is negative or non-finite (such an op could only
     * produce a garbage makespan).
     */
    TaskId addTask(const std::vector<TaskId> &deps,
                   const std::vector<CompiledOp> &ops);

    /**
     * Span-style addTask: the same contract over raw (pointer, count)
     * ranges, so compilers can append from reused buffers without
     * materializing vectors per task.
     */
    TaskId addTask(const TaskId *deps, std::size_t ndeps,
                   const CompiledOp *ops_in, std::size_t nops);

    /**
     * Bulk write for trusted binders: size the CSR arrays to exactly
     * `tasks` tasks, `deps` dependencies and `ops` ops — keeping the
     * resource table, the tag, array capacity and the entries below
     * the new sizes — and return them for writing. The caller fills
     * depOff[1..tasks], opOff[1..tasks] and every dep and op entry
     * (depOff[0] and opOff[0] stay 0); a binder that sized for more
     * than it wrote calls again with its actual totals, which trims
     * without reallocating. Nothing is validated, so this is only for
     * re-binding ops a prior addTask() of this process validated (the
     * shard engine binds single-chip schedules through here), with
     * monotone offsets and dep ids that precede their task. Seal every
     * bulk write with patchCommit(), which still bounds-checks every
     * op's resource id. The validated addTask() is the front door for
     * anything lowered from fresh input.
     */
    ScheduleArrays bulkWrite(std::size_t tasks, std::size_t deps,
                             std::size_t ops);

    std::size_t taskCount() const { return opOff.size() - 1; }
    std::size_t opCount() const { return opRes.size(); }
    std::size_t depCount() const { return depIds.size(); }

    /**
     * Stamp the layout tag — the opaque identity of the layout the
     * schedule was lowered against. Compilers stamping a validated
     * addTask() build use this; bulk writes seal through
     * patchCommit().
     */
    void setLayoutTag(std::uint64_t t) { tag = t; }

    /**
     * Identity of the current binding's layout. Consumers verify it
     * before replaying with layout-derived rates. 0 = untagged
     * (hand-built).
     */
    std::uint64_t layoutTag() const { return tag; }

    /**
     * Begin an in-place rebind: sizes the resource table to
     * `resources` entries (existing names keep their ids; new ids
     * start unnamed — name them with patchResourceName). The CSR
     * skeleton is untouched, and no allocation happens unless the
     * resource table grows. The schedule must not be replayed between
     * patchBegin and patchCommit.
     */
    void patchBegin(std::size_t resources);

    /** Rename resource `id` in place (reuses the string's storage). */
    void patchResourceName(ResourceId id, const char *name);

    /**
     * Seal a bind: validates that every op targets a live resource and
     * stamps `newTag` as the layout tag.
     */
    void patchCommit(std::uint64_t newTag);

    /**
     * Simulate the whole schedule at one replay point: a single pass
     * over tasks in id order evaluates the same scheduling recurrence
     * as EventQueue::run (deps point backward and per-resource queues
     * fill in task order, so task order is a valid issue order).
     * Returns the makespan — the latest task finish, which includes
     * any post-service propagation delay; per-task finish times and
     * per-resource utilization are left in `scratch`. Thread-safe for
     * concurrent calls with distinct scratch.
     */
    double replay(const ReplayRates &rates, ReplayScratch &scratch) const;

    /**
     * replay() with piecewise service rates: resource r serves at
     * `rates` scaled by the multiplier of its current RateEpochs epoch,
     * advancing epochs as simulated time passes. An op that spans an
     * epoch boundary progresses fractionally — the fraction of its
     * service remaining when the rate changes is re-timed at the new
     * rate — so degradation mid-op is modeled, not snapped to op
     * boundaries. `done`, when non-null, is a taskCount()-byte mask:
     * tasks with done[t] != 0 are already complete (finish 0, no
     * resource occupancy) — the failover path uses it to replay only
     * the tasks that survive a mid-run re-placement. This is the
     * piecewise instantiation of the one replay kernel
     * (sim/replay_kernel.h); its watchdog rescans with the same epochs
     * and mask, so an overflow names the op that overflowed. With an
     * empty epoch table and a null mask this delegates to replay() and
     * is bit-identical to it; with every multiplier 1.0 the piecewise
     * arithmetic itself is exact (x * 1.0 == x), so a trivial trace
     * also reproduces replay() bit-for-bit. Thread-safe for concurrent
     * calls with distinct scratch.
     */
    double replayPiecewise(const ReplayRates &rates, const RateEpochs &ep,
                           const std::uint8_t *done,
                           ReplayScratch &scratch) const;

    /**
     * Non-aborting validation of a replay point against this schedule:
     * RateMismatch when `rates` covers a different resource count than
     * the binding (same message the aborting path panics with), and
     * NonFiniteRate when any byte or work rate is NaN, infinite, or
     * non-positive — the run-time half of the replay watchdog (the
     * compile-time half lives in addTask). Ok means replay() on these
     * rates cannot produce NaN (only +inf on overflow, which the
     * post-replay finite check reports with the offending op).
     */
    Error checkReplay(const ReplayRates &rates) const;

    /**
     * Non-aborting validation of an epoch table against this schedule:
     * BadFaultTrace on a malformed CSR (off size != resourceCount + 1,
     * offsets not monotone or not spanning at/mult), non-increasing
     * epoch times within a resource, or a multiplier/time that is not
     * finite and positive (times must be >= 0).
     */
    Error checkEpochs(const RateEpochs &ep) const;

    /**
     * replay() that reports instead of panicking: validates the rates
     * (checkReplay) and the resulting makespan, writing it to `out` on
     * success. A non-finite makespan — only possible via overflow to
     * +inf, given validated rates — is reported as NonFiniteDuration
     * with the first offending op id and resource name. The aborting
     * replay() path stays panic-on-mismatch for internal callers.
     */
    Error tryReplay(const ReplayRates &rates, ReplayScratch &scratch,
                    double &out) const;

    /**
     * Simulate the schedule at `n` replay points with one walk of the
     * compiled arrays per kBatchLanes-point block, instead of n
     * independent walks: op costs are read once per block and
     * evaluated across the block's lanes with lane-contiguous scratch
     * (the replay kernel over one SIMD vector per time), so the
     * dominant cost of a sweep — memory traffic over the compiled
     * arrays — is amortized across the batch. Every lane performs the exact divides and maxes of a
     * scalar replay() at that point, so scratch.makespan[i] is
     * bit-identical to replay(points[i], ...) for every i. A final
     * block of fewer than kBatchLanes points is padded with copies of
     * its last point, so it costs the same full-width walk as any
     * other block. Thread-safe for concurrent calls with distinct
     * scratch.
     */
    void replayMany(const ReplayRates *points, std::size_t n,
                    BatchScratch &scratch) const;

    /**
     * Read-only view of the CSR arrays (see ScheduleView). Costs the
     * pointer loads only; every replay takes one per call.
     */
    ScheduleView
    view() const
    {
        return ScheduleView{depOff.data(),  depIds.data(),
                            opOff.data(),   opRes.data(),
                            opBytes.data(), opWork0.data(),
                            opWork1.data(), opSec.data(),
                            opPost.data(),  taskCount(),
                            opCount(),      names.size()};
    }

  private:
    /**
     * One block of replayMany: `lanes` <= kBatchLanes points, padded
     * to full width with copies of the last; writes `lanes` makespans.
     */
    void replayBlock(const ReplayRates *points, std::size_t lanes,
                     BatchScratch &s, double *makespans) const;

    /** Panic unless `rates` covers this schedule's resources. */
    void checkRates(const ReplayRates &rates) const;

    // --- binding: rewritten in place by the patch API ---
    std::vector<std::string> names;
    std::uint64_t tag = 0;
    // --- skeleton: CSR arrays, fixed by the lowering ---
    // Task t's deps are depIds[depOff[t]..depOff[t+1]) and its ops are
    // index range [opOff[t], opOff[t+1]) into the SoA op component
    // arrays below.
    std::vector<std::uint32_t> depOff{0};
    std::vector<TaskId> depIds;
    std::vector<std::uint32_t> opOff{0};
    // Op components, structure-of-arrays (see file comment). opRes is
    // binding (patchable); the cost numerators are skeleton.
    std::vector<ResourceId> opRes;
    std::vector<double> opBytes;
    std::vector<double> opWork0;
    std::vector<double> opWork1;
    std::vector<double> opSec;
    std::vector<double> opPost;
};

} // namespace ciflow::sim

#endif // CIFLOW_SIM_COMPILED_SCHEDULE_H
