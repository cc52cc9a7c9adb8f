/**
 * @file
 * ExperimentRunner: cached task-graph construction plus parallel
 * sweep evaluation.
 *
 * Building an HKS task graph is the expensive half of an experiment
 * (capacity-aware scheduling over tens of thousands of tasks), and it
 * depends only on (benchmark, dataflow, memory config) — not on
 * bandwidth or MODOPS. The runner therefore caches one immutable
 * HksExperiment per key and shares it across harnesses via
 * shared_ptr; the cheap timing evaluations fan out across a
 * std::thread pool, each worker replaying the experiment's compiled
 * schedule into its own thread-local scratch (no allocation per
 * point). Simulation is a pure function of (graph, config), so
 * parallel sweeps return bit-identical results to serial loops
 * (asserted by tests/test_runner.cpp).
 */

#ifndef CIFLOW_RPU_RUNNER_H
#define CIFLOW_RPU_RUNNER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hksflow/dataflow.h"
#include "hksflow/hks_params.h"
#include "obs/metrics.h"
#include "rpu/experiment.h"

namespace ciflow
{

/** One sweep point: timing knobs that do not affect the task graph. */
struct SweepPoint
{
    double bandwidthGBps = 64.0;
    double modopsMult = 1.0;
};

/**
 * Graph-cache key: every field that shapes the task graph, kept as
 * typed fields (no string encoding, so no per-lookup stream formatting
 * and no delimiter collisions with benchmark names).
 */
struct ExperimentKey
{
    std::string name;
    std::size_t logN = 0;
    std::size_t kl = 0;
    std::size_t kp = 0;
    std::size_t dnum = 0;
    std::size_t alpha = 0;
    Dataflow dataflow = Dataflow::MP;
    std::uint64_t dataCapacityBytes = 0;
    bool evkOnChip = false;
    bool evkCompressed = false;

    bool operator==(const ExperimentKey &) const = default;

    static ExperimentKey of(const HksParams &par, Dataflow d,
                            const MemoryConfig &mem);
};

/** Field-wise mixing hash for ExperimentKey. */
struct ExperimentKeyHash
{
    std::size_t operator()(const ExperimentKey &k) const;
};

/** Graph cache + thread pool for experiment sweeps. */
class ExperimentRunner
{
  public:
    /** @param threads  worker threads; 0 = hardware concurrency */
    explicit ExperimentRunner(std::size_t threads = 0);
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /**
     * The experiment for (par, d, mem), building its task graph on
     * first use and returning the cached instance afterwards.
     */
    std::shared_ptr<const HksExperiment>
    experiment(const HksParams &par, Dataflow d, const MemoryConfig &mem);

    /**
     * Simulate every point in parallel (one pool job per point, full
     * SimStats packaging); results in point order. For runtime-only
     * grids prefer sweepRuntimes(), which dispatches whole batches
     * through the replayMany fast path.
     */
    std::vector<SimStats> sweep(const HksExperiment &exp,
                                const std::vector<SweepPoint> &points);

    /** Bandwidth sweep at a fixed MODOPS multiplier. */
    std::vector<SimStats> sweep(const HksExperiment &exp,
                                const std::vector<double> &bandwidths,
                                double modops_mult = 1.0);

    /**
     * Runtime-only sweep through the batched replay fast path: points
     * are grouped into sim::kBatchLanes-sized batches, each evaluated
     * by one pool worker with a single walk of the compiled arrays
     * (HksExperiment::simulateRuntimeMany). Results are in point order
     * and bit-identical to calling exp.simulateRuntime per point
     * (asserted by tests/test_runner.cpp). The grid-scan hot path.
     */
    std::vector<double>
    sweepRuntimes(const HksExperiment &exp,
                  const std::vector<SweepPoint> &points);

    /** Runtime-only bandwidth sweep at a fixed MODOPS multiplier. */
    std::vector<double>
    sweepRuntimes(const HksExperiment &exp,
                  const std::vector<double> &bandwidths,
                  double modops_mult = 1.0);

    /** Fully general sweep: one RpuConfig per point. */
    std::vector<SimStats>
    sweepConfigs(const HksExperiment &exp,
                 const std::vector<RpuConfig> &configs);

    /**
     * Run arbitrary jobs on the pool and wait for all of them (used by
     * harnesses that parallelize beyond per-point sweeps, e.g. one
     * bisection per benchmark). Safe to call from one of this runner's
     * own pool workers: the calling worker helps execute queued jobs
     * until its batch completes instead of stranding a worker slot, so
     * jobs may themselves sweep() or runAll() on the same runner.
     */
    void runAll(const std::vector<std::function<void()>> &jobs);

    std::size_t threadCount() const { return workers.size(); }
    std::size_t cachedExperiments() const;

    /**
     * Graph-cache lookups served without building (monotone counter),
     * including requesters that waited for another thread's build of
     * the same key. The tuner's eval-cache tests assert on these to
     * prove that repeated strategies share graphs instead of
     * rebuilding them.
     */
    std::size_t cacheHits() const;
    /**
     * Graph builds: one per key, counted when its cache slot is
     * inserted, however many threads race on it; so misses ==
     * cachedExperiments().
     */
    std::size_t cacheMisses() const;

    /**
     * Export the runner's counters into `m` under `prefix`:
     * cache_hits, cache_misses, cached_experiments (graph cache) and
     * threads (pool width). Totals since construction — export once
     * per registry, at harness-dump time.
     */
    void exportMetrics(obs::MetricsRegistry &m,
                       const std::string &prefix = "runner.") const;

  private:
    void workerLoop();

    /** A cache entry, built exactly once through `once`. */
    struct CacheSlot
    {
        std::once_flag once;
        std::shared_ptr<const HksExperiment> exp;
    };

    // Graph cache. Nodes never move and are never erased: experiment()
    // reads its slot after dropping the lock.
    mutable std::mutex cache_mu;
    std::unordered_map<ExperimentKey, CacheSlot, ExperimentKeyHash> cache;
    std::size_t hits = 0;
    std::size_t misses = 0;

    // Thread pool.
    std::mutex pool_mu;
    std::condition_variable pool_cv;
    std::deque<std::function<void()>> pending;
    std::vector<std::thread> workers;
    bool stopping = false;
};

/**
 * Runner-aware variants of the experiment.h helpers: identical
 * results, but the underlying MP/OC experiments come from (and feed)
 * the runner's cache instead of being rebuilt per call.
 */
double baselineRuntime(ExperimentRunner &runner, const HksParams &par);
double ocBaseBandwidth(ExperimentRunner &runner, const HksParams &par);

} // namespace ciflow

#endif // CIFLOW_RPU_RUNNER_H
