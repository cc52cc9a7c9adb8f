/**
 * @file
 * Request-level serving simulation on the compiled-replay core.
 *
 * The rest of the repo answers "how long does one HKS / workload /
 * scenario take"; this layer answers the datacenter question: given
 * jobs *arriving over time* (serve/arrivals.h) at mixed shapes and
 * dataflows, what latency distribution and sustained QPS does a fleet
 * of RPUs deliver, and how much does admission batching buy?
 *
 * The simulation composes existing pieces rather than re-deriving
 * costs. A duration estimator prices every job class once per distinct
 * chip bandwidth through the compiled-replay fast paths
 * (HksExperiment::simulateRuntimeMany for single-chip classes,
 * ShardedEngine::replayRuntime for gang-scheduled ones), memoized
 * in a shared tune::EvalCache; the admission scheduler then runs a
 * purely arithmetic event loop over those per-op prices. Because
 * simulation is a pure function of (graph, config), the whole serving
 * run is bit-identical across repetitions and estimator thread counts
 * (tests/test_serve.cpp pins both), the same contract the sweep and
 * fault layers carry.
 *
 * Shared state contends across tenants exactly as in the workload
 * layer: each chip keeps one evk key cache (LRU over distinct key
 * ids, flushed when the chip switches job class), so a batch of
 * same-class jobs runs one cold leader and warm followers — the
 * p4db-style target-batch win the serving benchmark gates on.
 */

#ifndef CIFLOW_SERVE_SERVING_H
#define CIFLOW_SERVE_SERVING_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "rpu/workload.h"
#include "serve/arrivals.h"
#include "shard/interconnect.h"
#include "shard/partition.h"
#include "sim/error.h"
#include "tune/eval_cache.h"

namespace ciflow::serve
{

/**
 * One job class: a named HE workload at one (benchmark shape,
 * dataflow) combination. Arrivals reference classes by index; every
 * job of a class runs the identical op sequence, so its service time
 * depends only on (class, key-cache warmness, chip bandwidth).
 */
struct JobClass
{
    std::string name;
    /** The op sequence one job executes (each op is one HKS). */
    HeWorkload workload;
    /** Benchmark shape the per-op HKS graphs are built from. */
    HksParams params;
    Dataflow dataflow = Dataflow::MP;
    /**
     * Chips one job occupies. 1 (default): the job replays a
     * single-chip compiled schedule. K>1: the per-op graph is
     * partitioned with the placement-search helpers and the job
     * gang-schedules the K least-loaded chips, priced by
     * ShardedEngine::replayRuntime.
     */
    std::size_t shards = 1;
};

/** The serving fleet: K identical RPUs plus shared-state knobs. */
struct FleetConfig
{
    /** Per-chip configuration (all chips share this layout). */
    RpuConfig chip;
    /** Number of RPUs jobs are packed onto. */
    std::size_t chips = 1;
    /**
     * Optional per-chip aggregate DRAM bandwidth overrides (GB/s),
     * one entry per chip, for heterogeneous fleets. Empty: every chip
     * serves chip.bandwidthGBps. Requires chip.channelGBps empty and
     * no gang-scheduled (shards > 1) classes.
     */
    std::vector<double> chipBandwidthGBps;
    /**
     * Per-chip evk key cache retained across ops and jobs (bytes).
     * Keys of a class hit when re-used within the LRU working set;
     * the cache is flushed whenever a chip switches job class (keys
     * of different shapes do not share residency).
     */
    std::uint64_t keyCacheBytes = 0;
    /** Interconnect for gang-scheduled (shards > 1) classes. */
    shard::InterconnectConfig interconnect;
    /** Partitioner for gang-scheduled classes. */
    shard::PartitionStrategy strategy =
        shard::PartitionStrategy::MinCutGreedy;
    /** Partitioner load cap for gang-scheduled classes (see
     * shard::ShardSpec::imbalanceTol): >= 0, +inf = no cap. */
    double imbalanceTol = 0.10;
};

/**
 * p4db-style admission batching: when a chip frees up, the scheduler
 * coalesces queued same-class jobs — up to targetBatch of them, and
 * optionally up to an estimated batch duration — so one cold leader
 * warms the key cache for the followers. targetBatch = 1 disables
 * batching (pure FIFO), the serving benchmark's baseline.
 */
struct BatchPolicy
{
    /** Most jobs coalesced into one admission (>= 1). */
    std::size_t targetBatch = 1;
    /**
     * Close the batch once its estimated duration (cold leader plus
     * warm followers, from the duration estimator) reaches this many
     * seconds; 0 = no duration cap. Bounds the latency a batch can
     * impose on its followers' queueing time.
     */
    double targetBatchSec = 0.0;
};

/** Everything a serving run is configured by (arrivals come apart). */
struct ServeSpec
{
    std::vector<JobClass> classes;
    FleetConfig fleet;
    BatchPolicy batch;
};

/** The simulated outcome of one job. */
struct JobResult
{
    /** Copied from the arrival stream. */
    double arriveSec = 0.0;
    /** Admission time (== dispatch; batches run immediately). */
    double startSec = 0.0;
    /** Completion time; latency is finishSec - arriveSec. */
    double finishSec = 0.0;
    std::uint32_t klass = 0;
    std::uint32_t tenant = 0;
    /** First (lowest-id) chip the job ran on. */
    std::uint32_t chip = 0;
    /** Sequence number of the admission batch that carried the job. */
    std::uint32_t batch = 0;
    /** True when the job ran entirely on steady-state warm masks. */
    bool warmStart = false;
    /**
     * Times the job was salvaged off a failed chip and re-queued
     * (fault-aware serving only; ServingSim::run leaves it 0).
     */
    std::uint32_t retries = 0;
    /**
     * True when the job was rejected instead of served — its deadline
     * passed, its retry budget ran out, or the fleet died. Rejected
     * jobs carry startSec == finishSec == the rejection time and are
     * excluded from latency distributions (fault-aware serving only).
     */
    bool rejected = false;
    /**
     * True when any of the job's ops was priced through a degraded
     * (piecewise-rate) replay, it was retried, or it ran on a
     * failed-over gang — the degraded-window population of the
     * latency split (fault-aware serving only).
     */
    bool degraded = false;

    double latencySec() const { return finishSec - arriveSec; }
};

/** Aggregate statistics of one serving run. */
struct ServeStats
{
    /** Jobs completed (== arrivals handed to run()). */
    std::size_t jobs = 0;
    /** Admission batches dispatched. */
    std::size_t batches = 0;
    /** Jobs that rode a batch of size > 1. */
    std::size_t batchedJobs = 0;
    /** Jobs served entirely from warm key-cache masks. */
    std::size_t warmJobs = 0;
    /** HKS ops served from the key cache, summed over jobs. */
    std::size_t keyCacheHitOps = 0;
    /** HKS ops executed, summed over jobs. */
    std::size_t totalOps = 0;
    /** Deepest the admission queue got (jobs waiting). */
    std::size_t maxQueueDepth = 0;
    /** Last job completion (the serving makespan). */
    double makespanSec = 0.0;
    /** Sustained throughput: jobs / makespanSec. */
    double qps = 0.0;
    double meanLatencySec = 0.0;
    /** Nearest-rank percentiles (stats::percentileSorted). */
    double p50LatencySec = 0.0;
    double p99LatencySec = 0.0;
    double p999LatencySec = 0.0;
    double maxLatencySec = 0.0;
};

/**
 * Non-aborting spec validation: BadServeSpec when the class table is
 * empty or holds an empty workload, a gang width exceeds the fleet,
 * per-chip bandwidth overrides are malformed or combined with
 * features they exclude, a gang class meets an invalid interconnect
 * or a NaN or negative imbalanceTol, or the batch policy is
 * degenerate.
 * ServingSim's constructor panics through this check.
 */
sim::Error checkSpec(const ServeSpec &spec);

/** Forward declaration for trySimulateServing's signature. */
class ServingSim;
/** Forward declaration for the serving loop's signature. */
struct FaultServeStats;

namespace detail
{
/** Forward declaration for the serving loop's signature. */
struct FaultRun;
} // namespace detail

/**
 * Non-panicking end-to-end serving run, mirroring sim::tryReplay:
 * validates the spec (checkSpec) and the job stream (checkStreams,
 * including per-job deadlines) before constructing a ServingSim, so
 * malformed input returns a sim::Error instead of aborting. On Ok the
 * results are bit-identical to building a ServingSim on `spec` (with
 * the same optional shared cache) and calling run().
 */
sim::Error trySimulateServing(const ServeSpec &spec,
                              const std::vector<JobArrival> &arrivals,
                              ExperimentRunner &runner,
                              std::vector<JobResult> &out,
                              ServeStats &stats,
                              tune::EvalCache *cache = nullptr);

/**
 * The serving simulator: prices every job class at construction (one
 * compiled-replay evaluation per (class, warmness, distinct chip
 * bandwidth), fanned out on the runner's pool and memoized in the
 * optional shared EvalCache), then run() schedules arrival streams
 * against the fleet. run() may be called many times with different
 * streams; equal inputs produce bit-identical JobResults regardless
 * of the runner's thread count.
 */
class ServingSim
{
  public:
    /**
     * Build the duration model for `spec`. `cache`, when non-null,
     * memoizes estimator evaluations across ServingSim instances
     * (hits return bit-identical Measurements, so cached and fresh
     * models agree exactly). Panics on an invalid spec (checkSpec).
     */
    ServingSim(const ServeSpec &spec, ExperimentRunner &runner,
               tune::EvalCache *cache = nullptr);
    ~ServingSim();

    ServingSim(const ServingSim &) = delete;
    ServingSim &operator=(const ServingSim &) = delete;

    /**
     * Serve a normalized arrival stream (serve/arrivals.h). Fills
     * `out` with one JobResult per arrival (arrival order) and the
     * aggregate ServeStats. Returns BadServeSpec without simulating
     * when the stream fails checkArrivals. When `viz` is non-null,
     * additionally assembles a fleet-wide ScenarioTrace: one segment
     * per (single-chip job, op) placed on that chip's resource tracks
     * via TraceSegment::resourceBase, batch spans and gang-job spans
     * as scenario marks.
     */
    sim::Error run(const std::vector<JobArrival> &arrivals,
                   std::vector<JobResult> &out, ServeStats &stats,
                   obs::ScenarioTrace *viz = nullptr);

    /**
     * Export cumulative serving counters into `m` under `prefix`:
     * jobs, batches, batched_jobs, warm_jobs, key_cache_hit_ops,
     * total_ops, estimator_evals (counters) plus last-run qps,
     * p50/p99/p999 latency and max queue depth (gauges). Totals since
     * construction — export once per registry, at harness-dump time.
     */
    void exportMetrics(obs::MetricsRegistry &m,
                       const std::string &prefix = "serve.") const;

    /** Estimated seconds of one job of `klass` (cold or warm). */
    double classServiceSec(std::size_t klass, bool warm,
                           std::size_t chip = 0) const;

    /** Estimator evaluations that replayed (EvalCache misses). */
    std::size_t estimatorEvals() const;

    const ServeSpec &spec() const { return sp; }

  private:
    /**
     * Per-class duration model: key-cache hit masks plus per-op
     * hit/miss runtimes at every distinct chip bandwidth, and their
     * ordered sums. Both instantiations of the serving loop
     * (serve/serve_loop.h) price from it, and FaultServingSim seeds
     * its gang bindings' clean prices from it.
     */
    struct ClassModel
    {
        std::size_t shards = 1;
        /** Per-op key-cache hit flags, from an empty cache. */
        std::vector<std::uint8_t> coldMask;
        /** Per-op hit flags in steady state (prev job = same class). */
        std::vector<std::uint8_t> warmMask;
        /** Per-op runtime with streamed (missed) keys, per uniqBw. */
        std::vector<double> missRt;
        /** Per-op runtime with on-chip (hit) keys, per uniqBw. */
        std::vector<double> hitRt;
        /** Whole-job service seconds (ordered per-op sums). */
        std::vector<double> coldSvc, warmSvc;
        /** Key-cache hits one cold / warm job scores. */
        std::size_t coldHits = 0, warmHits = 0;
    };
    /** Lazily built Chrome-trace assets (see buildViz): the clean
     * per-op replay of every (single-chip class, variant, bandwidth),
     * copied into fleet-placed segments at render time by the serving
     * loop, for every op priced clean in either instantiation. */
    struct VizAssets
    {
        /** Resources per chip block (channels + pipes). */
        std::size_t perChip = 0;
        /** Track names of one chip block. */
        std::vector<std::string> names;
        /** bufs[k][variant][bwIdx]; variant 0 = miss, 1 = hit. Empty
         * for gang-scheduled classes (those render as marks). */
        std::vector<std::array<std::vector<obs::TraceBuffer>, 2>> bufs;
    };
    friend class FaultServingSim;

    /**
     * The serving loop (defined in serve/serve_loop.h): serves a
     * checked stream into `out` and `stats`. Faults = false is run()'s
     * healthy loop (fills stats.done only; `fr` is null); Faults = true
     * is FaultServingSim::run's, driven by `fr`.
     */
    template <bool Faults>
    void serveLoop(const std::vector<JobArrival> &arrivals,
                   std::vector<JobResult> &out, FaultServeStats &stats,
                   obs::ScenarioTrace *viz, detail::FaultRun *fr);
    void buildModels(ExperimentRunner &runner, tune::EvalCache *cache);
    void buildViz(ExperimentRunner &runner);
    /** The chip configuration replayed at uniqBw[bwIdx]. */
    RpuConfig chipAt(std::size_t bwIdx) const;

    ServeSpec sp;
    /** Distinct per-chip bandwidths, ascending. */
    std::vector<double> uniqBw;
    /** Index into uniqBw per chip. */
    std::vector<std::size_t> chipBw;
    std::vector<ClassModel> models;
    ExperimentRunner &runnerRef;

    // Lazily built viz assets (first run() with viz != nullptr).
    std::shared_ptr<VizAssets> viz_;

    // Cumulative counters for exportMetrics.
    std::size_t nJobs = 0, nBatches = 0, nBatchedJobs = 0;
    std::size_t nWarmJobs = 0, nHitOps = 0, nOps = 0, nEvals = 0;
    ServeStats lastStats;
};

} // namespace ciflow::serve

#endif // CIFLOW_SERVE_SERVING_H
