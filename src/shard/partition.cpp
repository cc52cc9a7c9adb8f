#include "shard/partition.h"

#include <bit>
#include <optional>
#include <span>

#include "common/logging.h"
#include "rpu/engine.h"

namespace ciflow::shard
{

const char *
strategyName(PartitionStrategy s)
{
    switch (s) {
    case PartitionStrategy::ContiguousByLevel:
        return "contiguous";
    case PartitionStrategy::MinCutGreedy:
        return "mincut";
    }
    return "?";
}

const std::vector<PartitionStrategy> &
allStrategies()
{
    static const std::vector<PartitionStrategy> kAll = {
        PartitionStrategy::ContiguousByLevel,
        PartitionStrategy::MinCutGreedy};
    return kAll;
}

double
Partition::imbalance() const
{
    if (shardWork.empty())
        return 0.0;
    double total = 0.0, peak = 0.0;
    for (double w : shardWork) {
        total += w;
        if (w > peak)
            peak = w;
    }
    if (total <= 0.0)
        return 0.0;
    return peak / (total / static_cast<double>(shardWork.size())) - 1.0;
}

std::vector<double>
taskWeights(const TaskGraph &g, const RpuConfig &chip)
{
    const RpuEngine eng(chip);
    const CodeGen cg(chip.vectorLen);
    std::vector<double> w;
    w.reserve(g.size());
    for (const Task &t : g.tasks())
        w.push_back(t.kind == TaskKind::Compute
                        ? eng.computeTaskSeconds(t, cg)
                        : eng.memTaskSeconds(t));
    return w;
}

bool
WeightKey::operator==(const WeightKey &o) const
{
    return std::bit_cast<std::uint64_t>(channelBytesPerSec) ==
               std::bit_cast<std::uint64_t>(o.channelBytesPerSec) &&
           std::bit_cast<std::uint64_t>(modopsPerSec) ==
               std::bit_cast<std::uint64_t>(o.modopsPerSec) &&
           std::bit_cast<std::uint64_t>(shuffleElemsPerSec) ==
               std::bit_cast<std::uint64_t>(o.shuffleElemsPerSec) &&
           vectorLen == o.vectorLen;
}

WeightKey
weightKey(const RpuConfig &chip)
{
    WeightKey k;
    k.channelBytesPerSec = chip.channelBytesPerSec();
    k.modopsPerSec = chip.modopsPerSec();
    k.shuffleElemsPerSec = chip.shuffleElemsPerSec();
    k.vectorLen = chip.vectorLen;
    return k;
}

std::uint64_t
edgePayloadBytes(const Task &producer, const ShardSpec &spec)
{
    return producer.kind == TaskKind::Compute ? spec.computeOutputBytes
                                              : producer.bytes;
}

namespace
{

/**
 * The dependency structure MinCutGreedy walks, flattened once per
 * call into CSR arrays so the greedy, every refinement visit and both
 * cut collections read contiguous memory instead of each Task and its
 * heap dep vector.
 */
struct FlatDeps
{
    /** deps[depOff[t], depOff[t + 1]): t's deps in graph order,
     * duplicates kept — the greedy counts payload per occurrence. */
    std::vector<std::uint32_t> depOff, deps;
    /** uniq[uniqOff[t], uniqOff[t + 1]): t's distinct deps in
     * first-occurrence order. */
    std::vector<std::uint32_t> uniqOff, uniq;
    /** edgePayloadBytes of each task as a producer. */
    std::vector<double> payload;

    FlatDeps(const TaskGraph &g, const ShardSpec &spec)
    {
        const std::size_t n = g.size();
        depOff.reserve(n + 1);
        uniqOff.reserve(n + 1);
        payload.reserve(n);
        depOff.push_back(0);
        uniqOff.push_back(0);
        // mark[d] == t + 1: d is already among t's distinct deps.
        std::vector<std::uint32_t> mark(n, 0);
        for (std::uint32_t t = 0; t < n; ++t) {
            const Task &task = g[t];
            for (std::uint32_t d : task.deps) {
                deps.push_back(d);
                if (mark[d] != t + 1) {
                    mark[d] = t + 1;
                    uniq.push_back(d);
                }
            }
            depOff.push_back(static_cast<std::uint32_t>(deps.size()));
            uniqOff.push_back(static_cast<std::uint32_t>(uniq.size()));
            payload.push_back(
                static_cast<double>(edgePayloadBytes(task, spec)));
        }
    }

    std::span<const std::uint32_t>
    depsOf(std::size_t t) const
    {
        return {deps.data() + depOff[t], deps.data() + depOff[t + 1]};
    }

    std::span<const std::uint32_t>
    uniqOf(std::size_t t) const
    {
        return {uniq.data() + uniqOff[t], uniq.data() + uniqOff[t + 1]};
    }
};

/** Contiguous equal-work chunks of the schedule order. */
void
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
void
assignMinCutGreedy(const FlatDeps &f, const ShardSpec &spec,
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
    for (std::size_t t = 0; t < shard_of.size(); ++t) {
        for (std::size_t s = 0; s < k; ++s)
            coloc[s] = 0.0;
        for (std::uint32_t d : f.depsOf(t))
            coloc[shard_of[d]] += f.payload[d];

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
 * through it. Reads `flat`'s distinct deps when the caller built
 * them, else each task's own dep vector; a repeated dep adds no edge
 * either way, so both walks give the same edges in the same order.
 */
void
collectCut(const TaskGraph &g, const ShardSpec &spec, const FlatDeps *flat,
           const std::vector<std::uint32_t> &shard_of,
           std::vector<CutEdge> &edges, std::uint64_t &bytes)
{
    edges.clear();
    bytes = 0;
    const std::size_t k = spec.shards;
    // seen[d*k + s]: the edge (d, s) is already in the cut.
    std::vector<std::uint8_t> seen(g.size() * k, 0);
    for (std::size_t t = 0; t < g.size(); ++t) {
        const std::uint32_t to = shard_of[t];
        const std::span<const std::uint32_t> deps =
            flat ? flat->uniqOf(t)
                 : std::span<const std::uint32_t>(
                       g[static_cast<std::uint32_t>(t)].deps);
        for (std::uint32_t d : deps) {
            if (shard_of[d] == to)
                continue;
            std::uint8_t &s = seen[static_cast<std::size_t>(d) * k + to];
            if (s)
                continue;
            s = 1;
            CutEdge e;
            e.src = d;
            e.fromShard = shard_of[d];
            e.toShard = to;
            e.bytes = edgePayloadBytes(g[d], spec);
            bytes += e.bytes;
            edges.push_back(e);
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
void
refineBoundary(const FlatDeps &f, const ShardSpec &spec,
               const std::vector<double> &w,
               std::vector<std::uint32_t> &shard_of)
{
    const std::size_t k = spec.shards;
    const std::size_t n = shard_of.size();
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
    for (std::size_t t = 0; t < n; ++t)
        for (std::uint32_t d : f.uniqOf(t))
            ++consumers[static_cast<std::size_t>(d) * k + shard_of[t]];

    for (std::size_t pass = 0; pass < spec.refinePasses; ++pass) {
        bool moved = false;
        for (std::size_t ti = 0; ti < n; ++ti) {
            const std::uint32_t t = static_cast<std::uint32_t>(ti);
            const std::uint32_t a = shard_of[t];
            const std::span<const std::uint32_t> deps = f.uniqOf(t);

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
                        delta -= f.payload[d]; // edge (d, a) disappears
                    if (shard_of[d] != b && consumers[row + b] == 0)
                        delta += f.payload[d]; // edge (d, b) appears
                }
                // Producer side: edges t ships to its consumer shards.
                const std::size_t row = static_cast<std::size_t>(t) * k;
                if (consumers[row + a] > 0)
                    delta += f.payload[t]; // t now remote from shard a
                if (consumers[row + b] > 0)
                    delta -= f.payload[t]; // t now local to shard b
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

} // namespace

Partition
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
    std::optional<FlatDeps> flat;
    if (spec.shards > 1) {
        switch (spec.strategy) {
        case PartitionStrategy::ContiguousByLevel:
            assignContiguous(g, spec.shards, weights, p.shardOf);
            break;
        case PartitionStrategy::MinCutGreedy:
            flat.emplace(g, spec);
            assignMinCutGreedy(*flat, spec, weights, p.shardOf);
            if (spec.refinePasses > 0) {
                std::vector<CutEdge> scratch;
                collectCut(g, spec, &*flat, p.shardOf, scratch,
                           greedy_cut);
                refineBoundary(*flat, spec, weights, p.shardOf);
                refined = true;
            }
            break;
        }
    }

    p.shardWork.assign(spec.shards, 0.0);
    for (std::size_t t = 0; t < g.size(); ++t)
        p.shardWork[p.shardOf[t]] += weights[t];

    collectCut(g, spec, flat ? &*flat : nullptr, p.shardOf, p.cutEdges,
               p.cutBytes);
    panicIf(refined && p.cutBytes > greedy_cut,
            "boundary refinement increased the cut");
    return p;
}

Partition
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
        if (s >= spec.shards)
            panic("assignment uses an out-of-range shard");

    Partition p;
    p.shards = spec.shards;
    p.strategy = spec.strategy;
    p.shardOf = std::move(shardOf);
    p.shardWork.assign(spec.shards, 0.0);
    for (std::size_t t = 0; t < g.size(); ++t)
        p.shardWork[p.shardOf[t]] += weights[t];
    collectCut(g, spec, nullptr, p.shardOf, p.cutEdges, p.cutBytes);
    return p;
}

} // namespace ciflow::shard
