/**
 * @file
 * Placement search: sweep (shard count, topology, partition strategy,
 * dataflow) for one benchmark and rank the candidates against the
 * single-RPU baseline.
 *
 * Each grid point partitions the cached task graph, binds the shard
 * schedule once from the experiment's already compiled single-chip
 * schedule (ShardedEngine::compile(exp, p): no graph lowering), and
 * replays it — cheap enough (compile-once replay,
 * ExperimentRunner::runAll fan-out across the thread pool) that a
 * search over thousands of candidate cuts is a second-scale affair.
 * Results are deterministic: simulation is a pure function of
 * (graph, partition, config), so parallel searches equal serial ones.
 */

#ifndef CIFLOW_SHARD_PLACEMENT_SEARCH_H
#define CIFLOW_SHARD_PLACEMENT_SEARCH_H

#include <vector>

#include "rpu/runner.h"
#include "shard/interconnect.h"
#include "shard/partition.h"
#include "shard/sharded_engine.h"

namespace ciflow::shard
{

/** The grid a placement search explores. */
struct PlacementSpec
{
    std::vector<std::size_t> shardCounts = {1, 2, 4, 8};
    std::vector<Topology> topologies = {Topology::SharedBus,
                                        Topology::PointToPoint};
    std::vector<PartitionStrategy> strategies = {
        PartitionStrategy::ContiguousByLevel,
        PartitionStrategy::MinCutGreedy};
    std::vector<Dataflow> dataflows = {Dataflow::OC};
    /** Per-chip configuration (every chip identical). */
    RpuConfig chip;
    InterconnectConfig interconnect;
    /** MinCutGreedy load cap (see ShardSpec::imbalanceTol). */
    double imbalanceTol = 0.10;
};

/** One evaluated placement. */
struct PlacementResult
{
    Dataflow dataflow = Dataflow::OC;
    std::size_t shards = 1;
    Topology topology = Topology::PointToPoint;
    PartitionStrategy strategy =
        PartitionStrategy::ContiguousByLevel;
    /** Sharded end-to-end runtime (seconds). */
    double runtime = 0.0;
    /** Single-RPU runtime of the same dataflow on one `chip`. */
    double baseline = 0.0;
    std::uint64_t cutBytes = 0;
    std::size_t transferTasks = 0;
    /** Partition work imbalance (0 = perfect). */
    double imbalance = 0.0;

    double
    speedup() const
    {
        return runtime > 0.0 ? baseline / runtime : 0.0;
    }
};

/**
 * Evaluate the whole grid for one benchmark on the runner's pool.
 * K=1 points are evaluated once per dataflow (topology and strategy
 * are vacuous without a cut). Results are sorted fastest-first;
 * ties keep grid order.
 */
std::vector<PlacementResult>
searchPlacements(ExperimentRunner &runner, const HksParams &par,
                 const MemoryConfig &mem, const PlacementSpec &spec);

/**
 * The ShardSpec of one (K, strategy) grid point: the benchmark's
 * tower size as the compute-output payload plus the search's load-cap
 * tolerance. Shared by searchPlacements and the auto-tuner's shard
 * axis so both search harnesses cut the graph identically.
 */
ShardSpec placementShardSpec(const HksParams &par, std::size_t shards,
                             PartitionStrategy strategy,
                             double imbalance_tol);

/** The replayed outcome of one (partition, topology) point. */
struct PlacementEval
{
    /** Sharded end-to-end runtime (seconds). */
    double runtime = 0.0;
    std::uint64_t cutBytes = 0;
    std::size_t transferTasks = 0;
    /** Partition work imbalance (0 = perfect). */
    double imbalance = 0.0;
};

/**
 * Compile + replay one placement point: `g` under partition `p` on
 * `chip`-configured RPUs joined by `net`, through
 * ShardedEngine::compile(g, p) (a single-chip compile, then the
 * bind). A pure function of its arguments, so equal inputs give
 * bit-identical runtimes regardless of which harness asked.
 */
PlacementEval evaluatePlacement(const TaskGraph &g, const Partition &p,
                                const RpuConfig &chip,
                                const InterconnectConfig &net);

/**
 * evaluatePlacement(exp.graph(), p, chip, net), bound from the
 * experiment's compiled schedule into a per-thread buffer (see
 * ShardedEngine::bind) instead of compiling the graph again: the
 * evaluation step of the auto-tuner's shard-axis points. Bit-identical
 * to the graph form.
 */
PlacementEval evaluatePlacement(const HksExperiment &exp,
                                const Partition &p,
                                const RpuConfig &chip,
                                const InterconnectConfig &net);

} // namespace ciflow::shard

#endif // CIFLOW_SHARD_PLACEMENT_SEARCH_H
