/**
 * @file
 * FaultSim: degraded-mode replay of a sharded compile under a
 * FaultTrace.
 *
 * A FaultSim compiles one (graph, partition, chip, interconnect)
 * combination exactly once — through ShardedEngine::compilePatchable,
 * so chip-failure failovers rebind the schedule through the
 * recompilePartition patch path instead of recompiling — and then
 * evaluates any number of fault scenarios against it:
 *
 *  - Degrades and stalls become a sim::RateEpochs table (buildEpochs)
 *    and replay through CompiledSchedule::replayPiecewise. A trace
 *    with no events replays bit-identically to the healthy compiled
 *    replay (replayPiecewise delegates to replay()).
 *  - Each chip failure cuts the run at the failure time: tasks that
 *    finished are salvaged into a done mask, the dead chip's tasks are
 *    re-placed onto survivors (fault/failover.h), the migration bytes
 *    are paid as a pause on the wall clock, and the run resumes in
 *    degraded mode with the epoch table shifted to the resume time.
 *    Contention state does not survive the cut (in-flight tasks
 *    restart), which is the conservative side of the model.
 *
 * Scenario evaluation is deterministic — a pure function of the trace
 * and the compiled schedule — and allocation-light after the first
 * run (scratch and masks are reused).
 */

#ifndef CIFLOW_FAULT_FAULT_REPLAY_H
#define CIFLOW_FAULT_FAULT_REPLAY_H

#include <cstdint>
#include <limits>
#include <vector>

#include "fault/failover.h"
#include "fault/fault_trace.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"

namespace ciflow::fault
{

/**
 * Map every degrade/stall of `trace` onto the resource blocks of a
 * compiled shard schedule as a piecewise-rate epoch table, with event
 * times shifted by -`timeShift` (events at or before the shift fold
 * into the state at time 0). Channel degrades land on one chip's DRAM
 * channel, link degrades on one link resource, and a chip stall on
 * every resource of that chip; multipliers of overlapping faults
 * compound in normalized trace order, so the folded products are
 * reproducible to the bit. ChipFail events are ignored here — failure
 * is handled by failover, not by rates. The trace must be normalized.
 *
 * `horizonSec` bounds the table for open-ended runs: epoch boundaries
 * at local time >= horizonSec are dropped. A replay that finishes (or
 * is cut) before the horizon never reaches those epochs, so the bounded
 * table is bit-identical to the unbounded one for every such replay —
 * events beyond the last departure are validated by checkTrace and
 * then cleanly ignored here instead of growing every segment's table.
 * The default (+inf) keeps every boundary.
 */
sim::RateEpochs buildEpochs(
    const FaultTrace &trace, const shard::ShardedCompiled &sc,
    double timeShift = 0.0,
    double horizonSec = std::numeric_limits<double>::infinity());

/**
 * Epoch table for ONE chip's resource block, for replaying a
 * single-chip compiled schedule of `chipResources` resources (DRAM
 * channels first, then the compute pipes — the engine's chip-block
 * layout): channel degrades of chip `shard` land on local resource
 * `channel`, stalls of that chip on every local resource; events
 * targeting other chips, links, and ChipFail events are ignored.
 * Same time shift, horizon, and bit-exact fold semantics as
 * buildEpochs. The fault-aware serving loop prices each in-flight op
 * on a degraded chip through this table (ops replay in the op's local
 * clock, so timeShift is the op's absolute start).
 */
sim::RateEpochs buildChipEpochs(
    const FaultTrace &trace, std::uint32_t shard,
    std::size_t chipResources, double timeShift = 0.0,
    double horizonSec = std::numeric_limits<double>::infinity());

/** ChipSpan::resource of a stall: the span slows the whole chip. */
constexpr std::uint32_t kWholeChip = ~std::uint32_t{0};

/**
 * One degrade or stall of a single chip as the epoch builders fold
 * it: active on [atSec, endSec) in absolute time, slowing one local
 * resource (a channel degrade) or every resource of the chip (a
 * stall, resource == kWholeChip).
 */
struct ChipSpan
{
    double atSec = 0.0;
    /** +inf for a permanent degrade. */
    double endSec = 0.0;
    double factor = 1.0;
    std::uint32_t resource = kWholeChip;
};

/**
 * Chip `shard`'s channel degrades and stalls in normalized trace
 * order — the order buildChipEpochs and buildEpochs fold their
 * multipliers in. ChipFail and LinkDegrade events are left out.
 */
std::vector<ChipSpan> chipSpans(const FaultTrace &trace,
                                std::uint32_t shard);

/** An epoch-table entry at replay-local time 0. */
struct EpochAtZero
{
    std::uint32_t resource = 0;
    double mult = 1.0;

    bool operator==(const EpochAtZero &) const = default;
};

/**
 * Probe the table buildChipEpochs(trace, shard, chipResources,
 * timeShift) builds, without building it, from `spans` =
 * chipSpans(trace, shard). Appends the table's entries at local time
 * 0 to `at0` in resource order — resource ids offset by
 * `resourceBase`, multipliers folded to the same bits — and returns
 * the first span edge past local time 0 (+inf when there is none).
 * Edges are shifted exactly as the builders shift them, and every
 * later entry of the table lies at or past the returned edge, so up
 * to that edge the table holds nothing but `at0`. The same holds for
 * a chip's block of a buildEpochs table: a gang maps its slots' chips
 * onto consecutive resourceBase blocks.
 */
double probeChipSpans(const std::vector<ChipSpan> &spans,
                      std::size_t chipResources, double timeShift,
                      std::uint32_t resourceBase,
                      std::vector<EpochAtZero> &at0);

/** Outcome of one fault scenario. */
struct DegradedOutcome
{
    /** Total wall clock including migration pauses; +inf when the
     * scenario killed every chip before completion. */
    double makespan = 0.0;
    /** False when no chip survived to finish the run. */
    bool completed = true;
    /** Chip failures survived via re-placement. */
    std::size_t failovers = 0;
    /** Total bytes re-replicated across all failovers. */
    std::uint64_t migratedBytes = 0;
    /** Total wall-clock seconds spent migrating. */
    double migrationSec = 0.0;
};

/** Replays fault scenarios against one compiled sharded placement. */
class FaultSim
{
  public:
    /**
     * Compile `g` under `part` once for fault evaluation. `g`,
     * `weights` (see shard::taskWeights) and `spec` must outlive the
     * FaultSim; spec.shards must equal part.shards.
     */
    FaultSim(const TaskGraph &g, const shard::ShardSpec &spec,
             const std::vector<double> &weights,
             const shard::Partition &part, const RpuConfig &chip,
             const shard::InterconnectConfig &net);

    /** The machine shape traces are validated against. */
    MachineShape shape() const;

    /** Healthy-path makespan of the base placement (bit-identical to
     * ShardedEngine::replayRuntime on a fresh compile). */
    double healthyMakespan();

    /**
     * Evaluate one scenario. Panics on a malformed trace (checkTrace
     * it first when the trace is untrusted input). Equal traces give
     * equal outcomes, independent of evaluation order, because the
     * binding is reset to the base partition before every run.
     *
     * When `viz` is non-null, the run additionally assembles the
     * scenario as an obs::ScenarioTrace: each replay segment records
     * its per-op timeline (obs::replayPiecewiseTraced — bit-identical
     * to the plain segment replay, so the outcome is unaffected by
     * observation), segments superseded by a failure are cut at the
     * failure time, and chip deaths / migration pauses become marks.
     * Feed it to obs::writeChromeTrace for a Perfetto-openable view
     * of exactly this outcome.
     */
    DegradedOutcome run(const FaultTrace &trace,
                        obs::ScenarioTrace *viz = nullptr);

    /**
     * Makespans of `n` degrade-only scenarios (every event a
     * ChannelDegrade/LinkDegrade, folded to time 0 regardless of
     * atSec) evaluated through CompiledSchedule::replayMany, one
     * compiled-array walk per sim::kBatchLanes scenarios: the static
     * half of a Monte Carlo sweep runs at batched-replay speed.
     * out[i] is bit-identical to run(traces[i]) with the same events
     * at atSec = 0 — the multipliers fold into pre-scaled per-resource
     * rate vectors with the exact products replayPiecewise applies
     * (asserted in tests/test_fault.cpp). Panics when a trace carries
     * a ChipFail or TransientStall.
     */
    void staticDegradedMakespans(const FaultTrace *traces,
                                 std::size_t n, double *out);

    const shard::ShardedEngine &engine() const { return eng; }
    /** The compiled base placement (current binding). */
    const shard::ShardedCompiled &compiled() const
    {
        return ps.compiled;
    }

    // Constructor inputs, exposed so harnesses (fault/monte_carlo.h)
    // can build an equivalent FaultSim per worker thread.
    /** The task graph this sim replays. */
    const TaskGraph &taskGraph() const { return graph; }
    /** The partitioning spec failovers re-place under. */
    const shard::ShardSpec &shardSpec() const { return spec; }
    /** Per-task balance weights (shard::taskWeights). */
    const std::vector<double> &taskWeights() const { return weights; }
    /** The healthy placement scenarios start from. */
    const shard::Partition &basePartition() const { return basePart; }

    /**
     * Export scenario-outcome counters into `m` under `prefix`:
     * scenarios_run / scenarios_completed (run() and
     * staticDegradedMakespans, which always completes), failovers and
     * migrated_bytes (run() only). Totals since construction — export
     * once per registry, at harness-dump time.
     */
    void exportMetrics(obs::MetricsRegistry &m,
                       const std::string &prefix = "faults.") const;

  private:
    /** Rebind to the base partition if a failover moved it. */
    void resetBinding();

    const TaskGraph &graph;
    const shard::ShardSpec &spec;
    const std::vector<double> &weights;
    shard::ShardedEngine eng;
    shard::Partition basePart;
    shard::ShardedPatchable ps;
    bool bindingDirty = false;

    sim::ReplayRates baseRates;
    sim::ReplayScratch scratch;
    sim::BatchScratch batch;
    std::vector<std::uint8_t> doneGraph;
    std::vector<std::uint8_t> doneSched;
    std::vector<sim::ReplayRates> staticRates;
    FailoverPlan plan;

    // Scenario-outcome counters (exportMetrics).
    std::size_t statScenarios = 0;
    std::size_t statCompleted = 0;
    std::size_t statFailovers = 0;
    std::uint64_t statMigratedBytes = 0;
};

} // namespace ciflow::fault

#endif // CIFLOW_FAULT_FAULT_REPLAY_H
