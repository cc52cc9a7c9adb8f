/**
 * @file
 * Shared evaluation cache for tuning strategies.
 *
 * Every strategy (exhaustive grid, coordinate descent, hill climb)
 * funnels point evaluations through one EvalCache, keyed by the
 * ExperimentKey of the graph the point replays plus every replay-side
 * knob. Simulation is a pure function of (graph, config), so a cache
 * hit returns the bit-identical Measurement the original evaluation
 * produced — strategies compared on one cache agree exactly wherever
 * they overlap, and revisited points (coordinate descent re-crossing
 * an axis, hill climbs circling a ridge) cost a map lookup instead of
 * a replay.
 */

#ifndef CIFLOW_TUNE_EVAL_CACHE_H
#define CIFLOW_TUNE_EVAL_CACHE_H

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "rpu/runner.h"
#include "tune/tune_space.h"

namespace ciflow::tune
{

/** The metrics of one evaluated tune point. */
struct Measurement
{
    /** End-to-end runtime (seconds) — the optimization objective. */
    double runtime = 0.0;
    /**
     * Aggregate off-chip bandwidth the point provisions, summed over
     * chips (GB/s) — the first Pareto cost axis.
     */
    double aggregateGBps = 0.0;
    /**
     * Aggregate data-memory capacity, summed over chips (bytes) —
     * the second Pareto cost axis.
     */
    double capacityBytes = 0.0;
    /** Interconnect cut payload (0 for single-chip points). */
    std::uint64_t cutBytes = 0;
    /** Materialized cross-chip transfers (0 for single-chip). */
    std::size_t transferTasks = 0;

    /**
     * True when this point is at least as good as `o` on every
     * objective (runtime, bandwidth, capacity) and strictly better on
     * one — the Pareto dominance test.
     */
    bool dominates(const Measurement &o) const;
};

/**
 * Cache key: the graph identity (ExperimentKey — benchmark, dataflow,
 * memory config) plus every replay-side knob of the point. Two points
 * with equal keys evaluate to bit-identical Measurements.
 */
struct EvalKey
{
    ExperimentKey graph;
    double bandwidthGBps = 64.0;
    double modopsMult = 1.0;
    double channelSkew = 1.0;
    std::size_t memChannels = 1;
    ChannelPolicy channelPolicy = ChannelPolicy::Interleave;
    std::size_t shards = 1;
    shard::Topology topology = shard::Topology::PointToPoint;
    shard::PartitionStrategy strategy =
        shard::PartitionStrategy::MinCutGreedy;

    bool operator==(const EvalKey &) const = default;
};

/** Field-mixing hash over EvalKey (extends ExperimentKeyHash). */
struct EvalKeyHash
{
    std::size_t operator()(const EvalKey &k) const;
};

/**
 * Thread-safe Measurement cache with hit/miss accounting. lookup()
 * and insert() are separate so the (slow) evaluation of a miss runs
 * outside the lock; two workers racing on one key may both evaluate,
 * and the second insert is dropped — both then hold bit-identical
 * values, so results are unaffected.
 */
class EvalCache
{
  public:
    /** True (and fills `out`, counting a hit) when `k` is cached. */
    bool lookup(const EvalKey &k, Measurement &out);
    /** Store the evaluation of `k` (first writer wins). */
    void insert(const EvalKey &k, const Measurement &m);

    /** Lookups served from the cache. */
    std::size_t hits() const;
    /** Lookups that required an evaluation. */
    std::size_t misses() const;
    /** Distinct points cached. */
    std::size_t size() const;

    /**
     * Record a batched-replay dispatch: `points` evaluations rode
     * kBatchLanes-wide replayMany blocks that provisioned `slots`
     * lane slots in total (slots >= points; the gap is lanes a
     * partially filled block walked for nothing). The ratio is the
     * batch-lane occupancy the tuner exports.
     */
    void noteBatchLanes(std::size_t points, std::size_t slots);
    /** Evaluations served by batched replay since construction. */
    std::size_t batchedPoints() const;
    /** Lane slots batched replay provisioned since construction. */
    std::size_t batchLaneSlots() const;

  private:
    mutable std::mutex mu;
    std::unordered_map<EvalKey, Measurement, EvalKeyHash> map;
    std::size_t nhits = 0;
    std::size_t nmisses = 0;
    std::size_t nbatched = 0;
    std::size_t nslots = 0;
};

} // namespace ciflow::tune

#endif // CIFLOW_TUNE_EVAL_CACHE_H
