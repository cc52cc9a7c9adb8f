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
 * per-experiment layout cache, so config sweeps pay one compile per
 * layout per experiment. That cache, read through compiled(cfg), is
 * the one source of this graph's single-chip schedules: the tuner's
 * batches, the serving simulators and the shard bind all replay from
 * it.
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
     * changes the compiled layout: a layout-crossing sweep orders its
     * points by layout and makes one call per run of equal layouts,
     * each served from the layout cache (see compiled(cfg)).
     */
    void simulateRuntimeMany(const RpuConfig *cfgs, std::size_t n,
                             double *out) const;

    /**
     * Simulate under a full RPU configuration (channel count and
     * policy, split pipes, ...). The configuration's memory-system
     * fields are overridden by this experiment's MemoryConfig, which
     * the task graph was built against.
     */
    SimStats simulate(const RpuConfig &cfg) const;

    /** The schedule compiled for the default RpuLayout. */
    const sim::CompiledSchedule &compiled() const { return def; }

    /**
     * The schedule compiled for RpuLayout::of(cfg): the default one
     * for the default layout, otherwise the per-experiment layout
     * cache's entry, compiled on first use (under a lock, so
     * concurrent first requests compile once). Every call for one
     * layout returns the same object, which lives as long as the
     * experiment, and it equals RpuEngine(cfg).compile(graph()) array
     * by array. The one source of single-chip schedules for the
     * tuner, serving and the shard bind.
     */
    const sim::CompiledSchedule &compiled(const RpuConfig &cfg) const;

    const TaskGraph &graph() const { return g; }
    const HksParams &params() const { return par; }
    Dataflow dataflow() const { return df; }
    const MemoryConfig &memory() const { return mem; }

  private:
    /** Fill in this experiment's memory-system fields. */
    RpuConfig normalized(const RpuConfig &cfg_in) const;

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
 * one-step-at-a-time walk returns. Requires 0 <= lo_gbps <= hi_gbps
 * < +inf and hi_gbps > 0, so that every speculated midpoint is a
 * bandwidth and the hi_gbps probe a positive finite one; a bracket
 * outside that (NaN included) is fatal. So are a target_runtime that
 * is not positive and finite, a tol that is not finite and >= 0, and
 * a modops_mult that is not > 0 (+inf, free compute, is legal).
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
