/**
 * @file
 * Graph partitioning for multi-RPU sharding.
 *
 * A Partition assigns every task of one hksflow::TaskGraph to one of K
 * chips and materializes the cross-shard dependencies as *cut edges*:
 * one transfer per (producer task, destination shard), deduplicated, so
 * a value consumed by many tasks on the same remote chip ships once.
 * The shard bind (sharded_engine.h) turns each cut edge into a
 * transfer task queued on an interconnect link.
 *
 * Two strategies:
 *  - ContiguousByLevel: split the builders' schedule order — which is a
 *    topological level order — into K contiguous chunks of equal
 *    estimated work. Cheap and cache-friendly; cuts fall wherever the
 *    chunk boundaries land.
 *  - MinCutGreedy: a linear deterministic-greedy pass (streaming
 *    partitioning a la Fennel/LDG): each task goes to the shard holding
 *    the most bytes of its operands, discounted by how full that shard
 *    already is, under a hard (1 + imbalanceTol) load cap. Keeps
 *    per-tower chains on one chip and cuts only at genuine all-to-all
 *    points (BConv), at the price of a second pass over the edges.
 *    The greedy cut then seeds a Kernighan–Lin-style boundary-swap
 *    refinement (ShardSpec::refinePasses): tasks migrate to the shard
 *    that most reduces the deduplicated cut bytes, under the same
 *    load cap, taking only strictly improving moves — the refined cut
 *    is never worse than the greedy one (asserted).
 *
 * MinCutGreedy first flattens the graph into CSR arrays: every
 * task's deps in graph order (duplicates kept, since the greedy counts
 * payload once per occurrence), its distinct deps in first-occurrence
 * order, and its edgePayloadBytes. The greedy, every refinement visit
 * and both cut collections read those arrays, and the cut deduplicates
 * through a flat (producer, shard) seen array. The arithmetic and its
 * order are the ones the per-Task walk used, so every shardOf,
 * shardWork and cut edge is unchanged (tests/legacy_partition.h keeps
 * that walk as the oracle). ContiguousByLevel and assignmentPartition
 * read the graph directly: they walk the deps once.
 *
 * Balance weights are estimated per-task *seconds* at a reference chip
 * configuration (taskWeights), so memory-bound and compute-bound tasks
 * trade off in one unit. They depend on the chip only through four
 * rates, its WeightKey: chips with equal keys (say, a channel-policy
 * move, or 32 GB/s over two channels against 16 GB/s over one) get
 * the same weights and therefore the same cut.
 */

#ifndef CIFLOW_SHARD_PARTITION_H
#define CIFLOW_SHARD_PARTITION_H

#include <cstdint>
#include <vector>

#include "hksflow/task.h"
#include "rpu/config.h"

namespace ciflow::shard
{

/** How tasks are assigned to shards. */
enum class PartitionStrategy : std::uint8_t {
    /** K contiguous equal-work chunks of the schedule (level) order. */
    ContiguousByLevel,
    /** Greedy byte-locality placement under a load cap. */
    MinCutGreedy,
};

/** Short name ("contiguous"/"mincut"). */
const char *strategyName(PartitionStrategy s);

/** Both strategies, in enum order. */
const std::vector<PartitionStrategy> &allStrategies();

/** Partitioning request. */
struct ShardSpec
{
    /** Number of chips. */
    std::size_t shards = 2;
    PartitionStrategy strategy = PartitionStrategy::ContiguousByLevel;
    /**
     * MinCutGreedy load cap: no shard may exceed
     * (1 + imbalanceTol) * totalWork / shards.
     */
    double imbalanceTol = 0.10;
    /**
     * Payload bytes of a cut edge whose producer is a compute task
     * (the size of the value shipped to the consuming chip). For HKS
     * graphs this is one tower: HksParams::towerBytes(). Cut edges
     * from memory tasks ship the bytes the task loaded/stored.
     */
    std::uint64_t computeOutputBytes = 1ull << 19;
    /**
     * Kernighan–Lin-style boundary refinement passes applied after
     * MinCutGreedy (seeded by the greedy cut): each pass walks every
     * task once and moves it to the shard that most reduces the
     * deduplicated cut bytes, under the same load cap. Only strictly
     * improving moves are taken, so refinement never increases the
     * cut (partitionGraph asserts this). 0 disables; passes stop
     * early once a walk finds no improving move. Ignored by
     * ContiguousByLevel, whose contract is contiguity.
     */
    std::size_t refinePasses = 2;
};

/** One deduplicated cross-shard dependency. */
struct CutEdge
{
    /** Producer task (original graph id). */
    std::uint32_t src = 0;
    std::uint32_t fromShard = 0;
    std::uint32_t toShard = 0;
    /** Transfer payload. */
    std::uint64_t bytes = 0;
};

/** A task-to-shard assignment plus its cut. */
struct Partition
{
    std::size_t shards = 1;
    PartitionStrategy strategy = PartitionStrategy::ContiguousByLevel;
    /** Shard of every task, indexed by task id. */
    std::vector<std::uint32_t> shardOf;
    /** Summed task weights per shard. */
    std::vector<double> shardWork;
    /**
     * Cross-shard edges, deduplicated by (src, toShard) and ordered by
     * first consumer (so their transfers can be scheduled in one
     * forward pass).
     */
    std::vector<CutEdge> cutEdges;
    /** Total transfer payload of the cut. */
    std::uint64_t cutBytes = 0;

    /** max(shardWork) / mean(shardWork) - 1 (0 = perfectly balanced). */
    double imbalance() const;
};

/**
 * Estimated seconds of every task at the `chip` configuration (fused
 * compute-pipe cost for compute tasks, one-channel share of DRAM
 * bandwidth for memory tasks) — the balance weights for partitioning.
 */
std::vector<double> taskWeights(const TaskGraph &g, const RpuConfig &chip);

/**
 * Everything of a chip that taskWeights reads: the mean channel rate,
 * MODOPS, the shuffle rate and the vector length. Equal keys give
 * bit-identical weights on every graph, so a cache of cuts may key on
 * it instead of on the weight vector. Bandwidth, channel count and
 * skew enter only through channelBytesPerSec; channel policy, pipe
 * split and memory capacity do not enter at all.
 */
struct WeightKey
{
    double channelBytesPerSec = 0.0;
    double modopsPerSec = 0.0;
    double shuffleElemsPerSec = 0.0;
    std::size_t vectorLen = 0;

    /**
     * Bitwise on the doubles: -0.0 and +0.0 divide to opposite
     * infinities, so they must not alias.
     */
    bool operator==(const WeightKey &o) const;
};

/** The WeightKey of `chip`. */
WeightKey weightKey(const RpuConfig &chip);

/** Transfer payload of a cut edge produced by `producer`. */
std::uint64_t edgePayloadBytes(const Task &producer,
                               const ShardSpec &spec);

/**
 * Partition `g` into spec.shards shards. `weights` must hold one entry
 * per task (see taskWeights). Deterministic: equal inputs produce equal
 * partitions.
 */
Partition partitionGraph(const TaskGraph &g, const ShardSpec &spec,
                         const std::vector<double> &weights);

/**
 * Build a Partition from an explicit task → shard assignment:
 * per-shard work and the deduplicated cut are recomputed exactly as
 * partitionGraph computes them for its own assignments. The entry
 * point for move sequences — nudge an assignment, rebuild the
 * Partition, hand it to ShardedEngine::recompilePartition — and for
 * comparing a patched schedule against a from-scratch compile of the
 * final assignment. Every assigned shard id must be < spec.shards;
 * `weights` must hold one entry per task (see taskWeights).
 */
Partition assignmentPartition(const TaskGraph &g, const ShardSpec &spec,
                              std::vector<std::uint32_t> shardOf,
                              const std::vector<double> &weights);

} // namespace ciflow::shard

#endif // CIFLOW_SHARD_PARTITION_H
