/**
 * @file
 * Failover re-placement after a chip failure.
 *
 * When a chip dies mid-run, its whole task set is adopted by the
 * least-loaded survivor (load = estimated seconds of its
 * not-yet-finished tasks), and the resulting assignment is rebuilt
 * into a full Partition through partition::assignmentPartition, so
 * the re-placed schedule's cut is exactly what a from-scratch compile
 * of the post-failover placement would produce. Adoption by a single
 * survivor — rather than re-balancing across all of them — is the
 * policy on purpose: only two shards' placements change, so the
 * migration traffic targets one chip. Failover optimizes
 * time-to-resume; steady-state balance is a later re-partition's job.
 * The shard count is unchanged (the dead chip keeps its resource
 * block, idle), so the failover re-places the schedule with one
 * ShardedEngine::bind of the kept single-chip compile into the
 * existing sharded output, not a recompile.
 *
 * Salvage model: results of tasks that completed before the failure
 * survive it (the fleet's memory pool holds them), but a moved task's
 * already-produced inputs must be *re-replicated* to its new chip —
 * that, plus re-staging the DRAM payload of moved memory tasks, is the
 * migration cost, paid as bytes over the interconnect before the
 * degraded run resumes.
 */

#ifndef CIFLOW_FAULT_FAILOVER_H
#define CIFLOW_FAULT_FAILOVER_H

#include <cstdint>
#include <vector>

#include "shard/interconnect.h"
#include "shard/partition.h"
#include "sim/error.h"

namespace ciflow::fault
{

/** A failover re-placement plus its modeled migration cost. */
struct FailoverPlan
{
    /** Post-failover partition (the dead shard holds no tasks). */
    shard::Partition part;
    /** Tasks moved off the dead chip. */
    std::size_t movedTasks = 0;
    /** Operand/evk bytes re-replicated over the interconnect. */
    std::uint64_t migrationBytes = 0;
};

/**
 * Plan the failover of `deadShard`: every task currently on it is
 * adopted by the least-loaded surviving shard (alive[s] != 0, ties to
 * the lowest id), where load counts the weights of tasks not marked
 * in `doneGraph` (a g.size()-byte mask of already-completed tasks;
 * null = none). Migration bytes charge, per moved *unfinished* task, its DRAM
 * payload (memory tasks) plus one re-replication of each completed
 * input it consumes, deduplicated per (producer, destination shard)
 * and skipped when the producer already lives there. Returns
 * NoSurvivors when no shard is alive; `out` is untouched on error.
 * Deterministic: equal inputs produce equal plans.
 */
sim::Error planFailover(const TaskGraph &g, const shard::ShardSpec &spec,
                        const shard::Partition &cur,
                        std::uint32_t deadShard,
                        const std::vector<char> &alive,
                        const std::uint8_t *doneGraph,
                        const std::vector<double> &weights,
                        FailoverPlan &out);

/**
 * Seconds the migration of `bytes` occupies the machine before the
 * degraded run resumes: the payload crosses the interconnect once —
 * a bus carries it serially; point-to-point spreads it over the
 * `survivors` distinct source links feeding the adopting chip — plus
 * one propagation latency. 0 bytes cost nothing.
 */
double migrationSeconds(std::uint64_t bytes,
                        const shard::InterconnectConfig &net,
                        std::size_t survivors);

} // namespace ciflow::fault

#endif // CIFLOW_FAULT_FAILOVER_H
