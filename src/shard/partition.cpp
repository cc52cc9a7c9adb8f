#include "shard/partition.h"

#include <algorithm>
#include <bit>
#include <span>

#include "common/logging.h"
#include "rpu/isa.h"

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

PartitionPrep::Deps::Deps(const TaskGraph &g,
                         std::uint64_t computeOutputBytes_)
    : computeOutputBytes(computeOutputBytes_)
{
    const std::size_t n = g.size();
    std::size_t ndeps = 0;
    for (const Task &task : g.tasks())
        ndeps += task.deps.size();
    depOff.reserve(n + 1);
    deps.reserve(ndeps);
    uniqOff.reserve(n + 1);
    uniq.reserve(ndeps);
    payloadBytes.reserve(n);
    payload.reserve(n);
    depOff.push_back(0);
    uniqOff.push_back(0);
    ShardSpec spec;
    spec.computeOutputBytes = computeOutputBytes;
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
        const std::uint64_t bytes = edgePayloadBytes(task, spec);
        payloadBytes.push_back(bytes);
        payload.push_back(static_cast<double>(bytes));
    }
}

PartitionPrep::Numerators::Numerators(const TaskGraph &g,
                                      std::size_t vectorLen_)
    : vectorLen(vectorLen_)
{
    const CodeGen cg(vectorLen);
    const std::size_t n = g.size();
    isCompute.resize(n);
    modOps.resize(n);
    shuffleElems.resize(n);
    bytes.resize(n);
    for (const Task &t : g.tasks()) {
        if (t.kind != TaskKind::Compute) {
            bytes[t.id] = static_cast<double>(t.bytes);
            continue;
        }
        // The numerators of RpuEngine::arithTaskSeconds and
        // shuffleTaskSeconds; the shuffle crossbar moves one element
        // per lane per cycle.
        isCompute[t.id] = 1;
        modOps[t.id] = static_cast<double>(t.modOps);
        shuffleElems[t.id] =
            static_cast<double>(cg.forComputeTask(t).shuffle) *
            static_cast<double>(cg.vectorLen());
    }
}

namespace
{

/**
 * The one weight loop: the divisions and the max of
 * RpuEngine::computeTaskSeconds (compute tasks) and memTaskSeconds
 * (memory tasks), over precomputed numerators.
 */
std::vector<double>
weightsOf(const PartitionPrep::Numerators &num, const RpuConfig &chip)
{
    const double modops = chip.modopsPerSec();
    const double shuffle = chip.shuffleElemsPerSec();
    const double channel = chip.channelBytesPerSec();
    const std::size_t n = num.isCompute.size();
    std::vector<double> w(n);
    for (std::size_t t = 0; t < n; ++t)
        w[t] = num.isCompute[t]
                   ? std::max(num.modOps[t] / modops,
                              num.shuffleElems[t] / shuffle)
                   : num.bytes[t] / channel;
    return w;
}

} // namespace

std::vector<double>
taskWeights(const TaskGraph &g, const RpuConfig &chip)
{
    return weightsOf(PartitionPrep::Numerators(g, chip.vectorLen), chip);
}

std::vector<double>
taskWeights(const PartitionPrep &prep, const RpuConfig &chip)
{
    panicIf(prep.numerators.vectorLen != chip.vectorLen,
            "partition prep was built for another vector length");
    return weightsOf(prep.numerators, chip);
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

using FlatDeps = PartitionPrep::Deps;

/** Contiguous equal-work chunks of the schedule order. */
void
assignContiguous(std::size_t k, const std::vector<double> &w,
                 std::vector<std::uint32_t> &shard_of)
{
    double total = 0.0;
    for (double x : w)
        total += x;
    std::size_t s = 0;
    double cum = 0.0;
    for (std::size_t t = 0; t < shard_of.size(); ++t) {
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
 * through it. `deps_of(t)` yields t's deps and `bytes_of(d)` the
 * payload of producer d: the flat distinct deps and payloads, or each
 * task's own dep vector and edgePayloadBytes. A repeated dep adds no
 * edge either way, so both walks give the same edges in the same
 * order.
 */
template <typename DepsOf, typename BytesOf>
void
collectCut(std::size_t k, DepsOf deps_of, BytesOf bytes_of,
           const std::vector<std::uint32_t> &shard_of,
           std::vector<CutEdge> &edges, std::uint64_t &bytes)
{
    edges.clear();
    bytes = 0;
    const std::size_t n = shard_of.size();
    // seen[d*k + s]: the edge (d, s) is already in the cut.
    std::vector<std::uint8_t> seen(n * k, 0);
    for (std::size_t t = 0; t < n; ++t) {
        const std::uint32_t to = shard_of[t];
        for (std::uint32_t d : deps_of(t)) {
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
            e.bytes = bytes_of(d);
            bytes += e.bytes;
            edges.push_back(e);
        }
    }
}

/** collectCut over a prep's distinct deps and payloads. */
void
collectCut(const FlatDeps &f, std::size_t k,
           const std::vector<std::uint32_t> &shard_of,
           std::vector<CutEdge> &edges, std::uint64_t &bytes)
{
    collectCut(
        k, [&f](std::size_t t) { return f.uniqOf(t); },
        [&f](std::uint32_t d) { return f.payloadBytes[d]; }, shard_of,
        edges, bytes);
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

/** The one partitioner, over flattened deps (see partitionGraph). */
Partition
partitionFlat(const FlatDeps &f, const ShardSpec &spec,
              const std::vector<double> &weights)
{
    panicIf(spec.shards == 0, "partition into zero shards");
    panicIf(weights.size() != f.size(),
            "partition weights do not cover the graph");

    Partition p;
    p.shards = spec.shards;
    p.strategy = spec.strategy;
    p.shardOf.assign(f.size(), 0);

    bool refined = false;
    std::uint64_t greedy_cut = 0;
    if (spec.shards > 1) {
        switch (spec.strategy) {
        case PartitionStrategy::ContiguousByLevel:
            assignContiguous(spec.shards, weights, p.shardOf);
            break;
        case PartitionStrategy::MinCutGreedy:
            assignMinCutGreedy(f, spec, weights, p.shardOf);
            if (spec.refinePasses > 0) {
                std::vector<CutEdge> scratch;
                collectCut(f, spec.shards, p.shardOf, scratch, greedy_cut);
                refineBoundary(f, spec, weights, p.shardOf);
                refined = true;
            }
            break;
        }
    }

    p.shardWork.assign(spec.shards, 0.0);
    for (std::size_t t = 0; t < f.size(); ++t)
        p.shardWork[p.shardOf[t]] += weights[t];

    collectCut(f, spec.shards, p.shardOf, p.cutEdges, p.cutBytes);
    panicIf(refined && p.cutBytes > greedy_cut,
            "boundary refinement increased the cut");
    return p;
}

} // namespace

Partition
partitionGraph(const TaskGraph &g, const ShardSpec &spec,
               const std::vector<double> &weights)
{
    // Only MinCutGreedy reads deps while it assigns. A contiguous cut
    // (or K = 1) assigns from the weights and then walks the graph's
    // own deps once for the cut, with no flattening pass.
    if (spec.shards > 1 &&
        spec.strategy == PartitionStrategy::MinCutGreedy)
        return partitionFlat(FlatDeps(g, spec.computeOutputBytes), spec,
                             weights);
    panicIf(spec.shards == 0, "partition into zero shards");
    panicIf(weights.size() != g.size(),
            "partition weights do not cover the graph");
    std::vector<std::uint32_t> shardOf(g.size(), 0);
    if (spec.shards > 1)
        assignContiguous(spec.shards, weights, shardOf);
    return assignmentPartition(g, spec, std::move(shardOf), weights);
}

Partition
partitionGraph(const PartitionPrep &prep, const ShardSpec &spec,
               const std::vector<double> &weights)
{
    panicIf(prep.deps.computeOutputBytes != spec.computeOutputBytes,
            "partition prep was built for another cut payload");
    return partitionFlat(prep.deps, spec, weights);
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
    collectCut(
        spec.shards,
        [&g](std::size_t t) {
            return std::span<const std::uint32_t>(
                g[static_cast<std::uint32_t>(t)].deps);
        },
        [&g, &spec](std::uint32_t d) { return edgePayloadBytes(g[d], spec); },
        p.shardOf, p.cutEdges, p.cutBytes);
    return p;
}

} // namespace ciflow::shard
