#include "tune/eval_cache.h"

#include <bit>

#include "common/rng.h"

namespace ciflow::tune
{

bool
Measurement::dominates(const Measurement &o) const
{
    if (runtime > o.runtime || aggregateGBps > o.aggregateGBps ||
        capacityBytes > o.capacityBytes)
        return false;
    return runtime < o.runtime || aggregateGBps < o.aggregateGBps ||
           capacityBytes < o.capacityBytes;
}

std::size_t
EvalKeyHash::operator()(const EvalKey &k) const
{
    auto mix = [](std::size_t seed, std::uint64_t v) {
        return static_cast<std::size_t>(splitmix64(v + seed));
    };
    std::size_t h = ExperimentKeyHash{}(k.graph);
    h = mix(h, std::bit_cast<std::uint64_t>(k.bandwidthGBps));
    h = mix(h, std::bit_cast<std::uint64_t>(k.modopsMult));
    h = mix(h, std::bit_cast<std::uint64_t>(k.channelSkew));
    h = mix(h, k.memChannels);
    h = mix(h, static_cast<std::uint64_t>(k.channelPolicy));
    h = mix(h, k.shards);
    h = mix(h, static_cast<std::uint64_t>(k.topology));
    h = mix(h, static_cast<std::uint64_t>(k.strategy));
    return h;
}

bool
EvalCache::lookup(const EvalKey &k, Measurement &out)
{
    std::lock_guard<std::mutex> lk(mu);
    auto it = map.find(k);
    if (it == map.end()) {
        ++nmisses;
        return false;
    }
    ++nhits;
    out = it->second;
    return true;
}

void
EvalCache::insert(const EvalKey &k, const Measurement &m)
{
    std::lock_guard<std::mutex> lk(mu);
    map.emplace(k, m);
}

std::size_t
EvalCache::hits() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nhits;
}

std::size_t
EvalCache::misses() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nmisses;
}

std::size_t
EvalCache::size() const
{
    std::lock_guard<std::mutex> lk(mu);
    return map.size();
}

void
EvalCache::noteBatchLanes(std::size_t points, std::size_t slots)
{
    std::lock_guard<std::mutex> lk(mu);
    nbatched += points;
    nslots += slots;
}

std::size_t
EvalCache::batchedPoints() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nbatched;
}

std::size_t
EvalCache::batchLaneSlots() const
{
    std::lock_guard<std::mutex> lk(mu);
    return nslots;
}

} // namespace ciflow::tune
