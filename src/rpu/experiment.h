/**
 * @file
 * Experiment helpers shared by the benchmark harnesses.
 *
 * A task graph depends only on (benchmark, dataflow, memory config) —
 * not on bandwidth or MODOPS — so each experiment builds its graph once
 * and sweeps the timing knobs cheaply. This mirrors the paper's
 * methodology: instruction streams are generated per configuration and
 * dataflow, then evaluated across bandwidths (§V-C, §VI).
 *
 * Compile-once / simulate-many: construction also compiles the graph
 * into a sim::CompiledSchedule for the default RpuLayout (all CodeGen
 * lowering hoisted out of simulate()), and simulate() replays it —
 * a single O(V+E) pass over flat arrays into per-thread scratch, with
 * no allocation on the hot path. Non-default layouts (multi-channel,
 * split pipes, other vector lengths) compile on first use into a small
 * per-experiment cache, so config sweeps pay one compile per layout.
 */

#ifndef CIFLOW_RPU_EXPERIMENT_H
#define CIFLOW_RPU_EXPERIMENT_H

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "hksflow/dataflow.h"
#include "hksflow/hks_params.h"
#include "rpu/engine.h"

namespace ciflow
{

/**
 * Caller-owned state of a patch-based layout sweep: one patchable
 * compiled schedule that is rebound in place (recompileChannels) as
 * the sweep crosses channel layouts, plus counters reporting how much
 * of the sweep ran incrementally. Compiled lazily on first use, so a
 * default-constructed LayoutSweep can be handed to any experiment;
 * reuse it only with the same experiment.
 */
struct LayoutSweep
{
    /** The reusable schedule, rebound in place across layouts. */
    PatchableSchedule ps;
    /** Whether `ps` holds a compiled schedule yet. */
    bool compiled = false;
    /** Channel repatches applied so far. */
    std::size_t patches = 0;
    /** Points replayed on a patched (revision > 0) binding. */
    std::size_t patchedEvals = 0;
    /** Points replayed through kBatchLanes-wide replayMany blocks
     * (a lone point between layout changes replays scalar and is not
     * counted). */
    std::size_t batchedPoints = 0;
    /**
     * Lane slots those blocks provisioned: one compiled-array walk
     * serves kBatchLanes slots whether or not every lane carries a
     * point, so batchedPoints / laneSlots is the occupancy of the
     * batched fast path — how much of each walk did useful work.
     */
    std::size_t laneSlots = 0;
};

/** One (benchmark, dataflow, memory) combination, simulated at will. */
class HksExperiment
{
  public:
    HksExperiment(const HksParams &par, Dataflow d,
                  const MemoryConfig &mem);

    /** Simulate at a given bandwidth and MODOPS multiplier. */
    SimStats simulate(double bandwidth_gbps,
                      double modops_mult = 1.0) const;

    /**
     * Runtime-only variant of simulate(): replays the compiled
     * schedule and returns the makespan without packaging SimStats.
     * Allocation-free.
     */
    double simulateRuntime(double bandwidth_gbps,
                           double modops_mult = 1.0) const;

    /** Runtime-only simulate under a full RPU configuration. */
    double simulateRuntime(const RpuConfig &cfg) const;

    /**
     * Batched simulateRuntime: evaluate `n` (bandwidth, MODOPS) points
     * with one walk of the compiled arrays per sim::kBatchLanes-point
     * block (sim::CompiledSchedule::replayMany) instead of n
     * independent replays. out[i] is bit-identical to
     * simulateRuntime(bandwidth_gbps[i], modops_mult[i]). Allocation
     * free after per-thread warm-up; the hot path of the sweep
     * harnesses and of bandwidthToMatch.
     */
    void simulateRuntimeMany(const double *bandwidth_gbps,
                             const double *modops_mult, std::size_t n,
                             double *out) const;

    /** Convenience overload: one MODOPS multiplier for every point. */
    std::vector<double>
    simulateRuntimeMany(const std::vector<double> &bandwidth_gbps,
                        double modops_mult = 1.0) const;

    /**
     * Batched simulateRuntime over full RPU configurations. All `n`
     * configurations must share one RpuLayout (they may differ in any
     * rate knob: bandwidth, MODOPS, clocks, per-channel skew); the
     * schedule compiled for that layout is then replayed at every
     * point in kBatchLanes-wide blocks. Panics when a configuration
     * changes the compiled layout — batch only rate-varying points and
     * fall back to scalar simulate() for layout-changing sweeps.
     */
    void simulateRuntimeMany(const RpuConfig *cfgs, std::size_t n,
                             double *out) const;

    /**
     * Layout-crossing batched simulateRuntime: the points may differ
     * in the *channel* axes (memChannels, channelPolicy) as well as
     * every rate knob. Consecutive same-layout points form batched
     * replayMany runs; between runs the sweep's single schedule is
     * rebound in place with recompileChannels instead of compiling
     * from the graph, so a layout move costs one pass over the op
     * stream. out[i] stays bit-identical to simulateRuntime(cfgs[i]).
     * Points changing the pipe split or vector length panic (those
     * reshape the skeleton). Order points by layout for fewest
     * repatches.
     */
    void simulateRuntimeMany(const RpuConfig *cfgs, std::size_t n,
                             double *out, LayoutSweep &sweep) const;

    /**
     * Simulate under a full RPU configuration (channel count and
     * policy, split pipes, ...). The configuration's memory-system
     * fields are overridden by this experiment's MemoryConfig, which
     * the task graph was built against.
     */
    SimStats simulate(const RpuConfig &cfg) const;

    /** The schedule compiled for the default RpuLayout. */
    const sim::CompiledSchedule &compiled() const { return def; }

    const TaskGraph &graph() const { return g; }
    const HksParams &params() const { return par; }
    Dataflow dataflow() const { return df; }
    const MemoryConfig &memory() const { return mem; }

  private:
    /** Fill in this experiment's memory-system fields. */
    RpuConfig normalized(const RpuConfig &cfg_in) const;

    /** The compiled schedule for `layout` (compiling on first use). */
    const sim::CompiledSchedule &scheduleFor(const RpuLayout &layout,
                                             const RpuConfig &cfg) const;

    HksParams par;
    Dataflow df;
    MemoryConfig mem;
    TaskGraph g;

    /** Schedule for the default layout, compiled at construction. */
    RpuLayout defLayout;
    sim::CompiledSchedule def;

    /** Lazily compiled schedules for other layouts (config sweeps). */
    mutable std::mutex layouts_mu;
    mutable std::vector<
        std::pair<RpuLayout, std::unique_ptr<const sim::CompiledSchedule>>>
        layouts;
};

/** The paper's DDR4..HBM3 sweep points (GB/s). */
const std::vector<double> &paperBandwidthSweep();

/** Extended sweep up to 1 TB/s used for ARK and BTS3 (§VI-C). */
const std::vector<double> &paperBandwidthSweepExtended();

/**
 * Baseline runtime of Table IV: MP at 64 GB/s with evks on-chip and a
 * 32 MiB data memory.
 */
double baselineRuntime(const HksParams &par);

/**
 * Smallest bandwidth (by bisection, within `tol` relative runtime) at
 * which `exp` matches the target runtime; returns +inf when even
 * `hi_gbps` is too slow. The bisection halves [lo_gbps, hi_gbps]
 * until it is narrower than 1e-6 of hi, at most 60 times, and
 * resolves three steps per batched replay block: a block replays the
 * 7 midpoints those steps can visit, and the first block also the
 * hi_gbps probe. On the default bracket a call costs 8-10 blocks
 * instead of 22-29 scalar replays, and it returns the double the
 * one-step-at-a-time walk returns. Requires lo_gbps >= 0, so that
 * every speculated midpoint is a positive bandwidth; a negative or
 * NaN lo_gbps is fatal.
 */
double bandwidthToMatch(const HksExperiment &exp, double target_runtime,
                        double lo_gbps = 1.0, double hi_gbps = 2000.0,
                        double modops_mult = 1.0, double tol = 1e-3);

/**
 * OCbase of Table IV: the paper-grid bandwidth at which OC (evks
 * on-chip) first matches the MP/64GB/s baseline.
 */
double ocBaseBandwidth(const HksParams &par);

/**
 * The Table IV grid rule shared by every OCbase implementation (the
 * serial and runner-aware rpu helpers and the tune-engine scan):
 * the first `grid` bandwidth whose runtime meets `target_runtime`
 * within the paper's 0.1% tolerance, or 64.0 — the baseline
 * bandwidth — when none does. `runtimes` holds one entry per grid
 * point.
 */
double ocBaseFromGrid(const std::vector<double> &grid,
                      const std::vector<double> &runtimes,
                      double target_runtime);

} // namespace ciflow

#endif // CIFLOW_RPU_EXPERIMENT_H
