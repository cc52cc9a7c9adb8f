#include "rpu/workload.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace ciflow
{

namespace
{

/** Cache key identifying an evk: relin = -1, rotations by amount. */
long
keyIdOf(const HeOp &op)
{
    return op.kind == HeOpKind::Multiply ? -1 : op.rotation;
}

} // namespace

std::size_t
HeWorkload::distinctKeyCount() const
{
    std::set<long> keys;
    for (const HeOp &op : ops)
        keys.insert(keyIdOf(op));
    return keys.size();
}

HeWorkload
HeWorkload::reduction(std::size_t width)
{
    fatalIf(width < 2 || (width & (width - 1)) != 0,
            "reduction width must be a power of two >= 2");
    HeWorkload wl;
    wl.name = "reduction-" + std::to_string(width);
    for (std::size_t step = width / 2; step >= 1; step >>= 1)
        wl.ops.push_back({HeOpKind::Rotation, static_cast<long>(step)});
    return wl;
}

HeWorkload
HeWorkload::matVec(std::size_t dim)
{
    fatalIf(dim < 2, "matVec needs dimension >= 2");
    HeWorkload wl;
    wl.name = "matvec-" + std::to_string(dim);
    for (std::size_t d = 1; d < dim; ++d)
        wl.ops.push_back({HeOpKind::Rotation, static_cast<long>(d)});
    wl.ops.push_back({HeOpKind::Multiply, 0});
    return wl;
}

HeWorkload
HeWorkload::resnet20(std::size_t rotations, std::size_t distinct,
                     bool blocked)
{
    fatalIf(distinct == 0, "need at least one distinct rotation");
    HeWorkload wl;
    wl.name = "resnet20-" + std::to_string(rotations);
    const std::size_t block = (rotations + distinct - 1) / distinct;
    for (std::size_t i = 0; i < rotations; ++i) {
        std::size_t idx = blocked ? i / block : i % distinct;
        wl.ops.push_back(
            {HeOpKind::Rotation, static_cast<long>(idx) + 1});
    }
    return wl;
}

void
keyCacheHitMask(const HeWorkload &wl, std::size_t slots,
                std::vector<long> &lru, std::vector<std::uint8_t> &mask)
{
    mask.assign(wl.ops.size(), 0);
    if (slots == 0)
        return;
    for (std::size_t i = 0; i < wl.ops.size(); ++i) {
        const long id = keyIdOf(wl.ops[i]);
        const auto it = std::find(lru.begin(), lru.end(), id);
        mask[i] = it != lru.end() ? 1 : 0;
        if (mask[i])
            lru.erase(it);
        else if (lru.size() >= slots)
            lru.erase(lru.begin());
        lru.push_back(id);
    }
}

namespace
{

/** Shared body once the hit/miss experiments are in hand. */
WorkloadStats
runWorkload(const HeWorkload &wl, const HksExperiment &miss_exp,
            const HksExperiment &hit_exp, const HksParams &par,
            const MemoryConfig &mem, double bandwidth_gbps,
            const KeyCacheConfig &cache)
{
    SimStats miss = miss_exp.simulate(bandwidth_gbps);
    SimStats hit = hit_exp.simulate(bandwidth_gbps);

    // Keys already on chip always hit; streamed ones hit the cache.
    const std::size_t slots =
        !mem.evkOnChip && par.evkBytes()
            ? static_cast<std::size_t>(cache.capacityBytes /
                                       par.evkBytes())
            : 0;
    std::vector<long> lru;
    std::vector<std::uint8_t> hits;
    keyCacheHitMask(wl, slots, lru, hits);

    WorkloadStats ws;
    ws.keySwitches = wl.ops.size();
    for (std::size_t i = 0; i < wl.ops.size(); ++i) {
        if (mem.evkOnChip || hits[i]) {
            ws.runtime += hit.runtime;
            ws.trafficBytes += hit.trafficBytes;
            ++ws.keyCacheHits;
        } else {
            ws.runtime += miss.runtime;
            ws.trafficBytes += miss.trafficBytes;
            ws.evkBytes += miss_exp.graph().evkBytes();
        }
    }
    return ws;
}

} // namespace

WorkloadStats
simulateWorkload(const HeWorkload &wl, const HksParams &par, Dataflow d,
                 const MemoryConfig &mem, double bandwidth_gbps,
                 const KeyCacheConfig &cache)
{
    // Per-op cost for a key-cache miss (keys streamed, if configured)
    // and a hit (keys already on-chip).
    HksExperiment miss_exp(par, d, mem);
    MemoryConfig hit_mem = mem;
    hit_mem.evkOnChip = true;
    HksExperiment hit_exp(par, d, hit_mem);
    return runWorkload(wl, miss_exp, hit_exp, par, mem, bandwidth_gbps,
                       cache);
}

WorkloadStats
simulateWorkload(ExperimentRunner &runner, const HeWorkload &wl,
                 const HksParams &par, Dataflow d, const MemoryConfig &mem,
                 double bandwidth_gbps, const KeyCacheConfig &cache)
{
    MemoryConfig hit_mem = mem;
    hit_mem.evkOnChip = true;
    auto miss_exp = runner.experiment(par, d, mem);
    auto hit_exp = runner.experiment(par, d, hit_mem);
    return runWorkload(wl, *miss_exp, *hit_exp, par, mem, bandwidth_gbps,
                       cache);
}

} // namespace ciflow
