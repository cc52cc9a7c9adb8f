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
 * Each resource's spans fold once, in absolute time, into RateSteps;
 * the steps past the shift move to the local clock, and two that round
 * to one local bound keep the later product. That is the table a
 * rescan of every span in the local clock gives, bit for bit
 * (tests/legacy_fault_tables.h pins the rescan).
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
 * on a degraded chip through this table, folded from its run's
 * ChipTimelines (ops replay in the op's local clock, so timeShift is
 * the op's absolute start).
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

/**
 * One resource's fault multiplier as a step function of absolute time:
 * mult[i] holds from at[i] until at[i + 1], and 1 before at[0]. At each
 * span edge the multiplier is the product of the factors of the spans
 * active there, in span order; only changes are kept.
 */
struct RateSteps
{
    std::vector<double> at;
    std::vector<double> mult;
};

/** An epoch-table entry at replay-local time 0. */
struct EpochAtZero
{
    std::uint32_t resource = 0;
    double mult = 1.0;

    bool operator==(const EpochAtZero &) const = default;
};

/**
 * Every chip's degrades and stalls of one trace as a timeline, built
 * once per serving run so that reading a chip's rate state at time t
 * costs a binary search instead of a walk over the trace.
 *
 * A chip's timeline holds its sorted distinct absolute span edges
 * (span starts and finite ends). Between two edges no span starts or
 * ends, so each interval stores what is constant on it: whether any
 * span is active (degradedAt), and, per resource-block width given at
 * construction, the interned id of the entries that
 * buildChipEpochs(trace, chip, width, t) folds at local time 0 for
 * any t in the interval. Ids are shared by every chip of the
 * timelines and equal ids mean equal entries, so per-slot ids key a
 * memo exactly as the entry lists would. Each chip also keeps its
 * RateSteps per local resource, so a table is the steps past its shift,
 * copied, not a fold of the trace. tests/test_fault.cpp checks probe
 * against the span walk it replaced and the tables against the rescan
 * (tests/legacy_fault_tables.h), bit for bit.
 */
class ChipTimelines
{
  public:
    /**
     * Timelines of chips [0, chips) of a normalized `trace`, with
     * at-zero states for each block width in `widths`.
     */
    ChipTimelines(const FaultTrace &trace, std::size_t chips,
                  const std::vector<std::size_t> &widths);

    /** Chip c's spans: chipSpans(trace, c). */
    const std::vector<ChipSpan> &spans(std::size_t c) const
    {
        return chips[c].spans;
    }

    /** Is any span of chip c active at absolute time t? */
    bool degradedAt(std::size_t c, double t) const
    {
        return chips[c].active[interval(c, t)] != 0;
    }

    /**
     * Read the table buildChipEpochs(trace, c, width, t) builds,
     * without building it: sets `state` to the id of its entries at
     * local time 0 (0 when there are none) and returns the first span
     * edge past local time 0 (+inf when there is none). Every later
     * entry of the table lies at or past that edge, so up to it the
     * table holds nothing but the state's entries. The edge is
     * nextEdge - t, which equals the smallest shifted edge the spans
     * give because rounding is monotone; an edge e is past local 0
     * exactly when e > t. `width` must be one of the constructor's.
     */
    double probe(std::size_t c, std::size_t width, double t,
                 std::uint32_t &state) const;

    /** The entries at local time 0 that state `id` stands for, in
     * resource order, resources numbered from 0. */
    const std::vector<EpochAtZero> &atZero(std::uint32_t id) const
    {
        return states[id];
    }

    /**
     * Epoch table of chip blocks laid side by side: slot s holds chip
     * slotChips[s]'s faults on resources [s * chipResources, (s + 1) *
     * chipResources) of an nres-resource table, shifted by `timeShift`
     * as buildChipEpochs does. One slot with nres == chipResources is
     * buildChipEpochs(trace, slotChips[0], chipResources, timeShift); a
     * gang's slots are buildEpochs of the trace with each slot chip's
     * events moved to its slot.
     */
    sim::RateEpochs epochs(const std::size_t *slotChips, std::size_t slots,
                           std::size_t chipResources, std::size_t nres,
                           double timeShift) const;

  private:
    struct Chip
    {
        std::vector<ChipSpan> spans;
        /** Sorted distinct span starts and finite ends. */
        std::vector<double> edges;
        /** Interval i is [edges[i - 1], edges[i]): interval 0 lies
         * before the first edge, interval edges.size() after the last. */
        std::vector<char> active;
        /** state[i * widths.size() + w]: at-zero id of interval i for
         * block width widths[w]. */
        std::vector<std::uint32_t> state;
        /** steps[r]: local resource r's multiplier (its channel
         * degrades and the stalls); the last entry, the stalls alone,
         * serves every resource past the highest degraded channel. */
        std::vector<RateSteps> steps;
    };

    std::size_t interval(std::size_t c, double t) const;

    std::vector<std::size_t> widths;
    std::vector<Chip> chips;
    /** Interned at-zero entry lists; states[0] is the empty one. */
    std::vector<std::vector<EpochAtZero>> states;
};

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
