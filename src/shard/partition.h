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
 * Both strategies read a flattened copy of the graph's dependencies
 * (PartitionPrep::Deps): every task's deps in graph order (duplicates
 * kept, since the greedy counts payload once per occurrence), its
 * distinct deps in first-occurrence order, and its edgePayloadBytes.
 * The greedy, every refinement visit and both cut collections read
 * those arrays, and the cut deduplicates through a flat (producer,
 * shard) seen array. The arithmetic and its order are the ones the
 * per-Task walk used, so every shardOf, shardWork and cut edge is
 * unchanged (tests/legacy_partition.h keeps that walk as the oracle).
 * assignmentPartition reads the graph directly: it walks the deps
 * once.
 *
 * That copy, and each task's rate-free weight numerators, depend on
 * the graph and not on the chip. A caller that cuts one graph many
 * times — the tuner pricing chips and shard counts — builds one
 * PartitionPrep per graph and passes it to the prep overloads of
 * taskWeights and partitionGraph: weights are then one division loop
 * and a cut flattens nothing. The graph overloads build the half they
 * need and delegate, so each algorithm has one implementation and
 * both forms agree bit for bit.
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
#include <span>
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
 * The graph-invariant inputs of taskWeights and partitionGraph for
 * one (graph, cut payload, vector length): built once, reused by every
 * cut of the graph. It owns copies of everything it reads, so it
 * never refers back to the graph.
 */
struct PartitionPrep
{
    /**
     * The dependency structure the partitioner walks, as CSR arrays,
     * plus every task's payload as a cut-edge producer.
     */
    struct Deps
    {
        Deps(const TaskGraph &g, std::uint64_t computeOutputBytes);

        std::size_t size() const { return payload.size(); }

        /** t's deps in graph order, duplicates kept. */
        std::span<const std::uint32_t>
        depsOf(std::size_t t) const
        {
            return {deps.data() + depOff[t], deps.data() + depOff[t + 1]};
        }

        /** t's distinct deps in first-occurrence order. */
        std::span<const std::uint32_t>
        uniqOf(std::size_t t) const
        {
            return {uniq.data() + uniqOff[t],
                    uniq.data() + uniqOff[t + 1]};
        }

        /** ShardSpec::computeOutputBytes the payloads were built for. */
        std::uint64_t computeOutputBytes = 0;
        std::vector<std::uint32_t> depOff, deps;
        std::vector<std::uint32_t> uniqOff, uniq;
        /** edgePayloadBytes of each task as a producer. */
        std::vector<std::uint64_t> payloadBytes;
        /** The same payloads as doubles, for the greedy's arithmetic. */
        std::vector<double> payload;
    };

    /**
     * Every task's weight numerators, free of any rate: modOps and
     * shuffle elements (CodeGen shuffle instructions times the vector
     * length) of compute tasks, bytes of memory tasks.
     */
    struct Numerators
    {
        Numerators(const TaskGraph &g, std::size_t vectorLen);

        /** RpuConfig::vectorLen the shuffle elements were built for. */
        std::size_t vectorLen = 0;
        /** 1 for compute tasks, 0 for memory tasks. */
        std::vector<std::uint8_t> isCompute;
        std::vector<double> modOps, shuffleElems, bytes;
    };

    PartitionPrep(const TaskGraph &g, std::uint64_t computeOutputBytes,
                  std::size_t vectorLen)
        : deps(g, computeOutputBytes), numerators(g, vectorLen)
    {
    }

    Deps deps;
    Numerators numerators;
};

/**
 * Estimated seconds of every task at the `chip` configuration (fused
 * compute-pipe cost for compute tasks, one-channel share of DRAM
 * bandwidth for memory tasks) — the balance weights for partitioning.
 * Builds the graph's weight numerators and delegates to the prep form.
 */
std::vector<double> taskWeights(const TaskGraph &g, const RpuConfig &chip);

/**
 * taskWeights over a prep: one division loop, bit-identical to the
 * graph form. Panics when the prep was built for another vector
 * length than `chip`'s.
 */
std::vector<double> taskWeights(const PartitionPrep &prep,
                                const RpuConfig &chip);

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
 * partitions. Flattens the graph's deps and delegates to the prep form.
 */
Partition partitionGraph(const TaskGraph &g, const ShardSpec &spec,
                         const std::vector<double> &weights);

/**
 * partitionGraph over a prep of the graph, bit-identical to the graph
 * form. Panics when the prep was built for another cut payload than
 * spec.computeOutputBytes.
 */
Partition partitionGraph(const PartitionPrep &prep, const ShardSpec &spec,
                         const std::vector<double> &weights);

/**
 * Build a Partition from an explicit task → shard assignment:
 * per-shard work and the deduplicated cut are recomputed exactly as
 * partitionGraph computes them for its own assignments. The entry
 * point for move sequences — nudge an assignment, rebuild the
 * Partition, bind it into the existing output with
 * ShardedEngine::bind — and for comparing a rebound schedule against a
 * from-scratch compile of the final assignment. Every assigned shard
 * id must be < spec.shards;
 * `weights` must hold one entry per task (see taskWeights).
 */
Partition assignmentPartition(const TaskGraph &g, const ShardSpec &spec,
                              std::vector<std::uint32_t> shardOf,
                              const std::vector<double> &weights);

} // namespace ciflow::shard

#endif // CIFLOW_SHARD_PARTITION_H
