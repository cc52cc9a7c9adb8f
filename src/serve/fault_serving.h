/**
 * @file
 * Fault-aware serving: the fault-aware instantiation of the one
 * serving loop (serve/serve_loop.h), which composes the healthy
 * admission/batching loop with the fault layer's primitives, so the
 * serving simulator answers degraded-tail questions — what p99 do
 * tenants see while a chip is degraded, what happens to in-flight jobs
 * when a chip dies, how long does the fleet take to recover.
 *
 * The composition reuses existing machinery rather than re-deriving
 * it:
 *
 *  - A seeded fault::FaultTrace (scenario streams derived with
 *    fault::deriveSeed via serve::faultStreamSeed) scripts chip
 *    failures, channel degrades and transient stalls against the
 *    fleet.
 *  - In-flight ops on a degraded chip are priced through
 *    CompiledSchedule::replayPiecewise over per-chip epoch tables
 *    (fault::buildChipEpochs' tables, folded from the run's
 *    fault::ChipTimelines) instead of the clean cached scalars; a
 *    chip with no active fault prices through the identical ClassModel
 *    scalars the healthy path uses, so a zero-fault run is
 *    bit-identical to ServingSim::run (asserted by tests and the
 *    serving benchmark before any timing). Ops no fault edge can
 *    reach skip the table, and each run memoizes degraded prices by
 *    the table's state at the op's start, reused only where that
 *    state alone decides the replay — bit-identical to pricing every
 *    op afresh (docs/serving.md, "Degraded pricing").
 *  - A ChipFail salvages the dead chip's in-flight batch — jobs whose
 *    simulated finish lies beyond the failure — into a retry queue
 *    with bounded retries, exponential backoff and per-job deadlines:
 *    timed-out or retry-exhausted jobs are *rejected*, never silently
 *    lost (the lost-job counter must read zero, CI-gated). Survivor
 *    chips of a cut gang batch free up at the failure time.
 *  - Gang-scheduled classes whose width no longer fits the surviving
 *    fleet are re-placed through the existing fault::planFailover /
 *    ShardedEngine::recompilePartition patch path, with the migration
 *    modeled as a wall-clock pause on every surviving chip.
 *  - Admission is fault-aware: failed chips are never admitted to,
 *    and chips currently degraded are deprioritized in the
 *    least-loaded choice.
 *
 * Everything stays a pure function of (spec, arrivals, trace, policy):
 * seeded fault-serving runs are bit-identical across repeats and
 * estimator thread counts (tests/test_fault_serve.cpp pins both).
 */

#ifndef CIFLOW_SERVE_FAULT_SERVING_H
#define CIFLOW_SERVE_FAULT_SERVING_H

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_trace.h"
#include "serve/serving.h"

namespace ciflow::serve
{

namespace detail
{
/** Per-class replay assets (defined in serve/serve_loop.h). */
struct FaultAssets;
} // namespace detail

/**
 * Retry and deadline policy for jobs salvaged off a failed chip. A
 * salvaged job at attempt a (0-based) re-enters the queue at
 * failTime + backoffSec * 2^a; it is rejected instead when it has
 * already been retried maxRetries times, or when its re-queue time
 * (or eventual dispatch) falls past its deadline. The effective
 * deadline of a job is arriveSec + min(JobArrival::deadlineSec,
 * deadlineSec) — both default to +inf (no deadline).
 */
struct RetryPolicy
{
    /** Most times one job may be salvaged and re-queued. */
    std::size_t maxRetries = 3;
    /** Base backoff; attempt a waits backoffSec * 2^a (0 = requeue
     * immediately at the failure time). */
    double backoffSec = 0.0;
    /** Fleet-wide default latency budget per job, seconds from
     * arrival (+inf = none). */
    double deadlineSec = std::numeric_limits<double>::infinity();
};

/**
 * Non-aborting policy validation: BadServeSpec when backoffSec is not
 * finite and >= 0, or deadlineSec is NaN or <= 0 (+inf is valid).
 */
sim::Error checkRetryPolicy(const RetryPolicy &policy);

/**
 * Aggregate statistics of one fault-aware serving run: the healthy
 * loop's ServeStats over the jobs that completed, plus the fault ledger
 * (retries, rejections, salvage and failover accounting) and the
 * healthy-window / degraded-window latency split. A job belongs to
 * the degraded window when JobResult::degraded is set — any of its
 * ops was priced through a piecewise (degraded) replay, it was
 * retried after a chip failure, or it ran on a failed-over gang;
 * every other completed job is healthy-window. Populations can be
 * empty (all-healthy or all-degraded runs); their percentiles then
 * read 0 and the ratio reads 0.
 */
struct FaultServeStats
{
    /** The healthy aggregate over completed (served) jobs only. */
    ServeStats done;
    /** Jobs served to completion. */
    std::size_t completedJobs = 0;
    /** Jobs rejected (deadline, retry budget, or fleet death). */
    std::size_t rejectedJobs = 0;
    /** Rejected jobs whose rejection was a missed deadline. */
    std::size_t timedOutJobs = 0;
    /** Arrivals neither served nor rejected — must be 0 (CI-gated):
     * the no-silently-lost-jobs invariant. */
    std::size_t lostJobs = 0;
    /** Successful re-queues of salvaged jobs. */
    std::size_t retries = 0;
    /** Jobs salvaged off a failed chip's in-flight batch. */
    std::size_t salvagedJobs = 0;
    /** ChipFail events that killed a live chip. */
    std::size_t chipFailures = 0;
    /** Gang classes re-placed through the partition patch path. */
    std::size_t failovers = 0;
    /** Bytes re-replicated by gang failovers. */
    std::uint64_t migratedBytes = 0;
    /** Wall-clock seconds the fleet paused for migrations. */
    double migrationSec = 0.0;
    /** Completed jobs in the healthy window. */
    std::size_t healthyJobs = 0;
    /** Completed jobs in the degraded window. */
    std::size_t degradedJobs = 0;
    /** Nearest-rank latency percentiles of the healthy window. */
    double healthyP50Sec = 0.0, healthyP99Sec = 0.0;
    /** Nearest-rank latency percentiles of the degraded window. */
    double degradedP50Sec = 0.0, degradedP99Sec = 0.0;
    /** degradedP99Sec / healthyP99Sec; 0 when either window is empty
     * (always finite — the degraded-tail SLO headline, CI-gated). */
    double degradedOverHealthyP99 = 0.0;
    /** Recovery time: max over salvaged jobs of (final settle time -
     * first revoking failure time); 0 when nothing was salvaged. */
    double recoverySec = 0.0;
};

/**
 * Fault-aware serving simulator. Borrows a priced ServingSim (which
 * must outlive it) for the clean per-op scalars — the guarantee that
 * a zero-fault run reproduces ServingSim::run to the bit — and
 * builds per-class replay assets once at construction: single-chip
 * classes take each key-cache variant's schedule from the
 * experiment's layout cache, with rates per fleet bandwidth, for
 * piecewise degraded pricing; gang classes get patchable sharded
 * compiles so chip failures re-place them through the
 * planFailover/recompilePartition patch path. run() may be called
 * many times; equal (arrivals, trace, policy) inputs produce
 * bit-identical results regardless of the estimator thread count.
 */
class FaultServingSim
{
  public:
    /** Build replay assets for `sim`'s spec (cached single-chip
     * schedules; one patchable sharded compile per (gang class,
     * variant)). */
    explicit FaultServingSim(ServingSim &sim);
    ~FaultServingSim();

    FaultServingSim(const FaultServingSim &) = delete;
    FaultServingSim &operator=(const FaultServingSim &) = delete;

    /**
     * Serve a normalized arrival stream under a fault trace. Returns
     * BadServeSpec / BadFaultTrace without simulating when the stream
     * (checkStreams), the policy (checkRetryPolicy) or the trace
     * (fault::checkTrace against shape()) is malformed — LinkDegrade
     * events are rejected (the serving fleet has no modeled links),
     * and events beyond the run's last departure are valid and
     * cleanly ignored. Fills `out` with one JobResult per arrival:
     * completed jobs carry their final (possibly retried) execution,
     * rejected jobs carry rejected = true with startSec == finishSec
     * == the rejection time. An empty trace reproduces
     * ServingSim::run bit-identically. When `viz` is non-null,
     * additionally assembles the fleet-wide ScenarioTrace with
     * degraded ops recorded through obs::replayPiecewiseTraced (their
     * segments carry the epoch table), chip failures, migrations,
     * retries and rejections as marks.
     */
    sim::Error run(const std::vector<JobArrival> &arrivals,
                   const fault::FaultTrace &trace,
                   const RetryPolicy &policy, std::vector<JobResult> &out,
                   FaultServeStats &stats,
                   obs::ScenarioTrace *viz = nullptr);

    /** The machine shape traces are validated against: (chips,
     * channels per chip, 0 links). */
    fault::MachineShape shape() const;

    /**
     * Export cumulative fault-serving counters into `m` under
     * `prefix`: completed/rejected/timed-out/lost jobs, retries,
     * salvaged jobs, chip failures, failovers, migrated bytes, and the
     * degraded-pricing work — piecewise_replays, price_memo_hits,
     * epoch_tables — (counters) plus last-run healthy/degraded p99,
     * their ratio, recovery seconds and migration seconds (gauges).
     * Totals since construction — export once per registry, at
     * harness-dump time.
     */
    void exportMetrics(obs::MetricsRegistry &m,
                       const std::string &prefix = "serve_fault.") const;

  private:
    ServingSim &sim;
    std::unique_ptr<detail::FaultAssets> assets;

    // Cumulative counters for exportMetrics.
    std::size_t nCompleted = 0, nRejected = 0, nTimedOut = 0, nLost = 0;
    std::size_t nRetries = 0, nSalvaged = 0, nChipFailures = 0;
    std::size_t nFailovers = 0;
    std::uint64_t nMigratedBytes = 0;
    // Degraded-pricing work: piecewise replays run, degraded prices
    // reused from the run's memo, epoch tables built.
    std::size_t nPiecewiseReplays = 0, nMemoHits = 0, nEpochTables = 0;
    FaultServeStats lastStats;
};

/**
 * Non-panicking end-to-end fault-serving run, mirroring
 * trySimulateServing: validates the spec, stream, policy and trace
 * before constructing the simulators, so malformed input returns a
 * sim::Error instead of aborting. On Ok the results are bit-identical
 * to building ServingSim + FaultServingSim on `spec` and calling
 * run().
 */
sim::Error trySimulateFaultServing(
    const ServeSpec &spec, const std::vector<JobArrival> &arrivals,
    const fault::FaultTrace &trace, const RetryPolicy &policy,
    ExperimentRunner &runner, std::vector<JobResult> &out,
    FaultServeStats &stats, tune::EvalCache *cache = nullptr);

} // namespace ciflow::serve

#endif // CIFLOW_SERVE_FAULT_SERVING_H
