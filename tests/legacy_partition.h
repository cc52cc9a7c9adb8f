/**
 * @file
 * Test-side reference for the partitioner: the MinCutGreedy greedy,
 * the boundary refinement, the hash-map cut collection and the
 * partitionGraph / assignmentPartition entry points as the library
 * carried them before the flat-array pass (shard/partition.cpp).
 *
 * The code is copied verbatim over the task graph's per-task dep
 * vectors: refineBoundary rebuilds each task's distinct deps with
 * std::find on every visit, and collectCut deduplicates through an
 * unordered_map. Only the namespace and the inline linkage differ.
 * The flat pass keeps the same arithmetic in the same order, so these
 * loops pin every shardOf, shardWork and cut edge it produces, bit
 * for bit.
 */

#ifndef CIFLOW_TESTS_LEGACY_PARTITION_H
#define CIFLOW_TESTS_LEGACY_PARTITION_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "shard/partition.h"

namespace ciflow::legacy
{

using shard::CutEdge;
using shard::edgePayloadBytes;
using shard::Partition;
using shard::PartitionStrategy;
using shard::ShardSpec;

/** Contiguous equal-work chunks of the schedule order. */
inline void
assignContiguous(const TaskGraph &g, std::size_t k,
                 const std::vector<double> &w,
                 std::vector<std::uint32_t> &shard_of)
{
    double total = 0.0;
    for (double x : w)
        total += x;
    std::size_t s = 0;
    double cum = 0.0;
    for (std::size_t t = 0; t < g.size(); ++t) {
        shard_of[t] = static_cast<std::uint32_t>(s);
        cum += w[t];
        // Advance once the running total passes this shard's quota;
        // the last shard absorbs the remainder.
        while (s + 1 < k &&
               cum >= total * static_cast<double>(s + 1) /
                          static_cast<double>(k))
            ++s;
    }
}

/**
 * Linear deterministic greedy: place each task on the shard holding
 * the most operand bytes, scaled down by that shard's fill, under a
 * hard load cap. Ties break to the lighter shard, then the lower id.
 */
inline void
assignMinCutGreedy(const TaskGraph &g, const ShardSpec &spec,
                   const std::vector<double> &w,
                   std::vector<std::uint32_t> &shard_of)
{
    const std::size_t k = spec.shards;
    double total = 0.0;
    for (double x : w)
        total += x;
    const double cap = (1.0 + spec.imbalanceTol) * total /
                       static_cast<double>(k);

    std::vector<double> load(k, 0.0);
    std::vector<double> coloc(k, 0.0);
    for (std::size_t t = 0; t < g.size(); ++t) {
        const Task &task = g[static_cast<std::uint32_t>(t)];
        for (std::size_t s = 0; s < k; ++s)
            coloc[s] = 0.0;
        for (std::uint32_t d : task.deps)
            coloc[shard_of[d]] += static_cast<double>(
                edgePayloadBytes(g[d], spec));

        std::size_t best = k; // none yet
        double best_score = -1.0;
        for (std::size_t s = 0; s < k; ++s) {
            if (load[s] + w[t] > cap)
                continue;
            const double score = coloc[s] * (1.0 - load[s] / cap);
            if (best == k || score > best_score ||
                (score == best_score && load[s] < load[best])) {
                best = s;
                best_score = score;
            }
        }
        if (best == k) {
            // Every shard is at the cap (weights heavier than the
            // model assumed); fall back to the lightest one.
            best = 0;
            for (std::size_t s = 1; s < k; ++s)
                if (load[s] < load[best])
                    best = s;
        }
        shard_of[t] = static_cast<std::uint32_t>(best);
        load[best] += w[t];
    }
}

/**
 * Collect the deduplicated cut of an assignment: one edge per
 * (producer, destination shard), ordered by first consumer. The
 * single encoding of the cut objective — the final Partition fields,
 * the pre-refinement measurement, and the never-worse guard all go
 * through it.
 */
inline void
collectCut(const TaskGraph &g, const ShardSpec &spec,
           const std::vector<std::uint32_t> &shard_of,
           std::vector<CutEdge> &edges, std::uint64_t &bytes)
{
    edges.clear();
    bytes = 0;
    std::unordered_map<std::uint64_t, std::size_t> seen;
    for (std::size_t t = 0; t < g.size(); ++t) {
        for (std::uint32_t d : g[static_cast<std::uint32_t>(t)].deps) {
            if (shard_of[d] == shard_of[t])
                continue;
            const std::uint64_t key =
                static_cast<std::uint64_t>(d) * spec.shards +
                shard_of[t];
            if (seen.emplace(key, edges.size()).second) {
                CutEdge e;
                e.src = d;
                e.fromShard = shard_of[d];
                e.toShard = shard_of[t];
                e.bytes = edgePayloadBytes(g[d], spec);
                bytes += e.bytes;
                edges.push_back(e);
            }
        }
    }
}

/**
 * Kernighan–Lin-style boundary-swap refinement seeded by the greedy
 * cut. Walks tasks in id order; a task moves to the shard that most
 * reduces the deduplicated cut bytes (strict improvement only, load
 * cap respected), with the move's exact effect on per-(producer,
 * shard) dedup computed from consumer-shard counts. Deterministic:
 * ties break to the lowest destination shard.
 */
inline void
refineBoundary(const TaskGraph &g, const ShardSpec &spec,
               const std::vector<double> &w,
               std::vector<std::uint32_t> &shard_of)
{
    const std::size_t k = spec.shards;
    const std::size_t n = g.size();
    double total = 0.0;
    for (double x : w)
        total += x;
    const double cap = (1.0 + spec.imbalanceTol) * total /
                       static_cast<double>(k);
    std::vector<double> load(k, 0.0);
    for (std::size_t t = 0; t < n; ++t)
        load[shard_of[t]] += w[t];

    // consumers[d*k + s]: distinct consumer tasks of d on shard s —
    // the dedup state a move must update exactly.
    std::vector<std::uint32_t> consumers(n * k, 0);
    std::vector<std::uint32_t> uniq; // dedup of one task's dep list
    auto uniqueDeps = [&](std::uint32_t t) -> const
        std::vector<std::uint32_t> & {
        uniq.clear();
        for (std::uint32_t d : g[t].deps)
            if (std::find(uniq.begin(), uniq.end(), d) == uniq.end())
                uniq.push_back(d);
        return uniq;
    };
    for (std::size_t t = 0; t < n; ++t)
        for (std::uint32_t d : uniqueDeps(static_cast<std::uint32_t>(t)))
            ++consumers[static_cast<std::size_t>(d) * k + shard_of[t]];

    const auto payload = [&](std::uint32_t task) {
        return static_cast<double>(edgePayloadBytes(g[task], spec));
    };

    for (std::size_t pass = 0; pass < spec.refinePasses; ++pass) {
        bool moved = false;
        for (std::size_t ti = 0; ti < n; ++ti) {
            const std::uint32_t t = static_cast<std::uint32_t>(ti);
            const std::uint32_t a = shard_of[t];
            const auto &deps = uniqueDeps(t);

            std::uint32_t best = a;
            double best_delta = 0.0;
            for (std::uint32_t b = 0; b < k; ++b) {
                if (b == a || load[b] + w[t] > cap)
                    continue;
                // Consumer side: edges whose producer is a dep of t.
                double delta = 0.0;
                for (std::uint32_t d : deps) {
                    const std::size_t row =
                        static_cast<std::size_t>(d) * k;
                    if (shard_of[d] != a && consumers[row + a] == 1)
                        delta -= payload(d); // edge (d, a) disappears
                    if (shard_of[d] != b && consumers[row + b] == 0)
                        delta += payload(d); // edge (d, b) appears
                }
                // Producer side: edges t ships to its consumer shards.
                const std::size_t row = static_cast<std::size_t>(t) * k;
                if (consumers[row + a] > 0)
                    delta += payload(t); // t now remote from shard a
                if (consumers[row + b] > 0)
                    delta -= payload(t); // t now local to shard b
                // Strictly-better only; b ascends, so ties keep the
                // lowest destination shard.
                if (delta < best_delta) {
                    best = b;
                    best_delta = delta;
                }
            }
            if (best == a || best_delta >= 0.0)
                continue;
            for (std::uint32_t d : deps) {
                const std::size_t row = static_cast<std::size_t>(d) * k;
                --consumers[row + a];
                ++consumers[row + best];
            }
            load[a] -= w[t];
            load[best] += w[t];
            shard_of[t] = best;
            moved = true;
        }
        if (!moved)
            break;
    }
}

inline Partition
partitionGraph(const TaskGraph &g, const ShardSpec &spec,
               const std::vector<double> &weights)
{
    panicIf(spec.shards == 0, "partition into zero shards");
    panicIf(weights.size() != g.size(),
            "partition weights do not cover the graph");

    Partition p;
    p.shards = spec.shards;
    p.strategy = spec.strategy;
    p.shardOf.assign(g.size(), 0);

    bool refined = false;
    std::uint64_t greedy_cut = 0;
    if (spec.shards > 1) {
        switch (spec.strategy) {
        case PartitionStrategy::ContiguousByLevel:
            assignContiguous(g, spec.shards, weights, p.shardOf);
            break;
        case PartitionStrategy::MinCutGreedy:
            assignMinCutGreedy(g, spec, weights, p.shardOf);
            if (spec.refinePasses > 0) {
                std::vector<CutEdge> scratch;
                collectCut(g, spec, p.shardOf, scratch, greedy_cut);
                refineBoundary(g, spec, weights, p.shardOf);
                refined = true;
            }
            break;
        }
    }

    p.shardWork.assign(spec.shards, 0.0);
    for (std::size_t t = 0; t < g.size(); ++t)
        p.shardWork[p.shardOf[t]] += weights[t];

    collectCut(g, spec, p.shardOf, p.cutEdges, p.cutBytes);
    panicIf(refined && p.cutBytes > greedy_cut,
            "boundary refinement increased the cut");
    return p;
}

inline Partition
assignmentPartition(const TaskGraph &g, const ShardSpec &spec,
                    std::vector<std::uint32_t> shardOf,
                    const std::vector<double> &weights)
{
    panicIf(spec.shards == 0, "partition into zero shards");
    panicIf(shardOf.size() != g.size(),
            "assignment does not cover the graph");
    panicIf(weights.size() != g.size(),
            "partition weights do not cover the graph");
    for (std::uint32_t s : shardOf)
        panicIf(s >= spec.shards,
                "assignment uses an out-of-range shard");

    Partition p;
    p.shards = spec.shards;
    p.strategy = spec.strategy;
    p.shardOf = std::move(shardOf);
    p.shardWork.assign(spec.shards, 0.0);
    for (std::size_t t = 0; t < g.size(); ++t)
        p.shardWork[p.shardOf[t]] += weights[t];
    collectCut(g, spec, p.shardOf, p.cutEdges, p.cutBytes);
    return p;
}

} // namespace ciflow::legacy

#endif // CIFLOW_TESTS_LEGACY_PARTITION_H
