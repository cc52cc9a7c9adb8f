/**
 * @file
 * RPU front end to the generic discrete-event core (src/sim/).
 *
 * Mirrors the paper's simulation framework (§V-C) and generalizes it:
 * memory tasks and compute tasks sit in per-resource in-order queues;
 * the head of each queue issues once all its dependencies have
 * completed, and the resources run concurrently so independent
 * off-chip transfers are masked by computation. Because the builders
 * emit dependencies that always point to earlier tasks, the earliest
 * unprocessed task is always issuable and the simulation cannot
 * deadlock — the invariant now lives in sim::EventQueue, and
 * TaskGraph::validate() re-checks it on entry instead of assuming it.
 *
 * The engine is a thin adapter binding a TaskGraph to an RpuConfig's
 * resource layout:
 *  - compile() lowers the graph once against the layout (N DRAM
 *    channels with ChannelPolicy placement; one fused compute pipe or
 *    split arithmetic/shuffle pipes) into a sim::CompiledSchedule.
 *    Every CodeGen lowering and every channel lookup happens here,
 *    once, at setup time.
 *  - rates() converts the config's timing knobs (bandwidth, MODOPS
 *    multiplier, clocks) into sim::ReplayRates; replay() evaluates a
 *    compiled schedule at those rates with zero allocation beyond a
 *    per-thread scratch, so sweeping a knob is pure scalar scaling
 *    over contiguous memory.
 *
 * run() = compile() + replay(). runRebuild() keeps the previous
 * build-an-EventQueue-per-call path as the reference implementation;
 * both produce bit-identical SimStats (asserted by
 * tests/test_compiled_schedule.cpp), and with one channel and the
 * fused pipe both are bit-identical to the original hard-coded
 * two-queue engine (asserted by tests/test_sim_core.cpp).
 */

#ifndef CIFLOW_RPU_ENGINE_H
#define CIFLOW_RPU_ENGINE_H

#include <cstdint>
#include <vector>

#include "hksflow/task.h"
#include "rpu/config.h"
#include "rpu/isa.h"
#include "sim/compiled_schedule.h"
#include "sim/ids.h"

namespace ciflow
{

/** Work-class bindings of RPU-compiled schedules. */
constexpr std::size_t kWorkArith = 0;   ///< modOps / modopsPerSec
constexpr std::size_t kWorkShuffle = 1; ///< elems / shuffleElemsPerSec

/**
 * Stateful memory-task placement across one RPU's DRAM channels.
 *
 * Implements every ChannelPolicy in one place so the compile path, the
 * rebuild reference path, and the multi-RPU shard bind (which runs
 * one placer per chip) agree on placement by construction:
 *  - Interleave: round-robin over all channels.
 *  - EvkDedicated: evk streams own the last channel; everything else
 *    round-robins over the rest (Interleave below two channels).
 *  - LeastLoaded: the channel with the fewest bytes assigned so far
 *    (ties to the lowest index).
 */
class ChannelPlacer
{
  public:
    ChannelPlacer(ChannelPolicy policy, std::size_t channels);

    /** Channel index (0-based) for a memory task; updates state. */
    std::size_t place(const Task &t);

    /**
     * Placement from the raw (bytes, isEvk) pair: the shard bind's
     * entry, which re-places a compiled schedule's memory ops from
     * per-task payloads without materializing Tasks. place(t)
     * delegates here, so both paths run one state machine by
     * construction. Inline: the bind calls it once per memory op.
     */
    std::size_t
    place(std::uint64_t bytes, bool is_evk)
    {
        if (pol == ChannelPolicy::LeastLoaded) {
            std::size_t best = 0;
            for (std::size_t c = 1; c < nchan; ++c)
                if (bytesAssigned[c] < bytesAssigned[best])
                    best = c;
            bytesAssigned[best] += bytes;
            return best;
        }
        if (dedicateEvk && is_evk)
            return nchan - 1;
        const std::size_t c = rr % dataChans;
        ++rr;
        return c;
    }

  private:
    ChannelPolicy pol;
    std::size_t nchan;
    bool dedicateEvk;
    std::size_t dataChans;
    std::size_t rr = 0;
    std::vector<std::uint64_t> bytesAssigned;
};

/** Aggregate results of one simulated HKS execution. */
struct SimStats
{
    /** End-to-end runtime in seconds. */
    double runtime = 0.0;
    /** Seconds of DRAM-channel busy time, summed over channels. */
    double memBusy = 0.0;
    /** Seconds of compute busy time, summed over pipes. */
    double compBusy = 0.0;
    /** DRAM channels simulated. */
    std::size_t memChannels = 1;
    /** Compute pipes simulated (1 fused, 2 split). */
    std::size_t computePipes = 1;
    /** Fraction of aggregate compute capacity left idle. */
    double
    computeIdleFraction() const
    {
        return runtime > 0
                   ? 1.0 - compBusy / (runtime * static_cast<double>(
                                                     computePipes))
                   : 0.0;
    }
    /** Fraction of aggregate DRAM-channel capacity left idle. */
    double
    memIdleFraction() const
    {
        return runtime > 0
                   ? 1.0 - memBusy / (runtime * static_cast<double>(
                                                    memChannels))
                   : 0.0;
    }
    /** DRAM bytes moved. */
    std::uint64_t trafficBytes = 0;
    /** Total modular operations executed. */
    std::uint64_t modOps = 0;
    /** Per-resource utilization (channels first, then pipes). */
    std::vector<sim::ResourceUse> resources;
    /** Runtime in milliseconds (reporting convenience). */
    double runtimeMs() const { return runtime * 1e3; }
};

/** Simulates a TaskGraph on an RpuConfig. */
class RpuEngine
{
  public:
    explicit RpuEngine(const RpuConfig &cfg) : cfg(cfg) {}

    /**
     * Run the graph to completion and return timing statistics
     * (compile + replay; identical to runRebuild).
     */
    SimStats run(const TaskGraph &g) const;

    /**
     * Reference path: rebuild an EventQueue and re-lower every task on
     * each call, as the engine did before compiled schedules. Kept for
     * equivalence tests and as the bench_sim_throughput baseline.
     */
    SimStats runRebuild(const TaskGraph &g) const;

    /**
     * Lower `g` once against this config's RpuLayout. The result can
     * be replayed at any rates whose config shares that layout.
     */
    sim::CompiledSchedule compile(const TaskGraph &g) const;

    /**
     * Append the compiled ops of one task, targeting the resource
     * block that starts at `base`: channels occupy ids
     * [base, base + channelCount()) and the compute pipe(s) follow, in
     * the same order compile() registers them. compile() lowers with
     * base 0; the legacy graph-lowering shard reference
     * (tests/legacy_shard_lowering.h) lowers each chip's tasks with
     * that chip's block offset.
     */
    void lowerTask(const Task &t, const CodeGen &cg,
                   ChannelPlacer &placer, sim::ResourceId base,
                   std::vector<sim::CompiledOp> &ops) const;

    /**
     * Replay rates of this config: per-channel bytes/s (pipes get a
     * benign 1.0), MODOPS and shuffle rates. Reuses `rates`' buffers.
     */
    void rates(const sim::CompiledSchedule &cs,
               sim::ReplayRates &rates) const;

    /**
     * Evaluate a compiled schedule at this config's rates using a
     * per-thread scratch (no allocation on the hot path) and package
     * the SimStats. `g` supplies the graph-level aggregates.
     */
    SimStats replay(const sim::CompiledSchedule &cs,
                    const TaskGraph &g) const;

    /** Makespan-only replay: allocation-free (bisection hot path). */
    double replayRuntime(const sim::CompiledSchedule &cs) const;

    /** Arithmetic-pipe seconds of one compute task. */
    double arithTaskSeconds(const Task &t) const;

    /** Shuffle-pipe seconds of one compute task. */
    double shuffleTaskSeconds(const Task &t, const CodeGen &cg) const;

    /** Duration of one compute task on the fused pipe. */
    double computeTaskSeconds(const Task &t, const CodeGen &cg) const;

    /** Duration of one memory task on one channel. */
    double memTaskSeconds(const Task &t) const;

    const RpuConfig &config() const { return cfg; }

  private:
    RpuConfig cfg;
};

} // namespace ciflow

#endif // CIFLOW_RPU_ENGINE_H
