#include "fault/failover.h"

#include <unordered_set>

#include "common/logging.h"
#include "common/units.h"

namespace ciflow::fault
{

using shard::Partition;
using shard::ShardSpec;

sim::Error
planFailover(const TaskGraph &g, const ShardSpec &spec,
             const Partition &cur, std::uint32_t deadShard,
             const std::vector<char> &alive,
             const std::uint8_t *doneGraph,
             const std::vector<double> &weights, FailoverPlan &out)
{
    panicIf(cur.shardOf.size() != g.size(),
            "partition does not cover the graph");
    panicIf(weights.size() != g.size(),
            "weights do not cover the graph");
    panicIf(alive.size() != cur.shards, "alive mask has wrong size");
    panicIf(deadShard >= cur.shards || alive[deadShard],
            "failover target shard is not dead");

    std::size_t survivors = 0;
    for (char a : alive)
        survivors += a != 0;
    if (survivors == 0)
        return {sim::ErrorCode::NoSurvivors,
                "chip " + std::to_string(deadShard) +
                    " failed with no surviving shard to take its tasks"};

    const auto isDone = [&](std::uint32_t t) {
        return doneGraph != nullptr && doneGraph[t] != 0;
    };

    // Recovery policy: the dead shard's tasks are adopted wholesale
    // by the least-loaded survivor (load = estimated seconds of
    // *remaining* work, ties to the lowest shard id so the plan is
    // deterministic). Concentrating the move is deliberate: only two
    // shards' placements change and the migration traffic is aimed at
    // one chip, so failover optimizes time-to-resume. Steady-state
    // balance is a later, off-critical-path re-partition's job, not
    // the failover's.
    std::vector<double> load(cur.shards, 0.0);
    for (std::uint32_t t = 0; t < g.size(); ++t)
        if (cur.shardOf[t] != deadShard && !isDone(t))
            load[cur.shardOf[t]] += weights[t];
    std::uint32_t dest = static_cast<std::uint32_t>(cur.shards);
    for (std::uint32_t s = 0; s < cur.shards; ++s)
        if (alive[s] &&
            (dest == cur.shards || load[s] < load[dest]))
            dest = s;

    std::vector<std::uint32_t> assign = cur.shardOf;
    std::size_t moved = 0;
    for (std::uint32_t t = 0; t < g.size(); ++t) {
        if (cur.shardOf[t] != deadShard)
            continue;
        assign[t] = dest;
        ++moved;
    }

    // Migration bytes: per moved unfinished task, its DRAM payload
    // (memory tasks re-stage their operand/evk stream) plus one
    // re-replication of each already-completed input, deduplicated per
    // (producer, destination) and free when the producer's (possibly
    // also re-placed) home is the destination itself.
    std::uint64_t bytes = 0;
    std::unordered_set<std::uint64_t> shipped;
    for (std::uint32_t t = 0; t < g.size(); ++t) {
        if (cur.shardOf[t] != deadShard || isDone(t))
            continue;
        const Task &task = g[t];
        if (task.kind != TaskKind::Compute)
            bytes += task.bytes;
        for (std::uint32_t d : task.deps) {
            if (!isDone(d) || assign[d] == assign[t])
                continue;
            const std::uint64_t key =
                std::uint64_t{d} * cur.shards + assign[t];
            if (shipped.insert(key).second)
                bytes += shard::edgePayloadBytes(g[d], spec);
        }
    }

    out.part = shard::assignmentPartition(g, spec, std::move(assign),
                                          weights);
    out.movedTasks = moved;
    out.migrationBytes = bytes;
    return {};
}

double
migrationSeconds(std::uint64_t bytes,
                 const shard::InterconnectConfig &net,
                 std::size_t survivors)
{
    if (bytes == 0)
        return 0.0;
    panicIf(survivors == 0, "migration with no survivors");
    const double fanout =
        net.topology == shard::Topology::SharedBus
            ? 1.0
            : static_cast<double>(survivors);
    return static_cast<double>(bytes) /
               (gbps(net.linkGBps) * fanout) +
           net.latencySec;
}

} // namespace ciflow::fault
