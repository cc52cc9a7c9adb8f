#include "tune/tune_space.h"

#include <cstdio>

#include "common/logging.h"
#include "hksflow/dataflow.h"

namespace ciflow::tune
{

std::string
TunePoint::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s cap=%lluMiB bw=%ggbps ch=%zux%s skew=%g "
                  "modops=%gx K=%zu %s/%s",
                  dataflowName(dataflow),
                  static_cast<unsigned long long>(dataMemBytes >> 20),
                  bandwidthGBps, memChannels,
                  channelPolicy == ChannelPolicy::Interleave ? "il"
                  : channelPolicy == ChannelPolicy::EvkDedicated
                      ? "evk"
                      : "ll",
                  channelSkew, modopsMult, shards,
                  shard::topologyName(topology),
                  shard::strategyName(strategy));
    return buf;
}

std::size_t
TuneSpace::axisSize(Axis a) const
{
    switch (a) {
    case Axis::Dataflow:
        return dataflows.size();
    case Axis::Capacity:
        return capacities.size();
    case Axis::Bandwidth:
        return bandwidths.size();
    case Axis::Channels:
        return channelCounts.size();
    case Axis::Policy:
        return channelPolicies.size();
    case Axis::Skew:
        return channelSkews.size();
    case Axis::Modops:
        return modopsMults.size();
    case Axis::Shards:
        return shardCounts.size();
    case Axis::Topology:
        return topologies.size();
    case Axis::Strategy:
        return strategies.size();
    }
    return 0;
}

std::size_t
TuneSpace::pointCount() const
{
    std::size_t n = 1;
    for (std::size_t a = 0; a < kAxisCount; ++a)
        n *= axisSize(static_cast<Axis>(a));
    return n;
}

void
TuneSpace::validate() const
{
    for (std::size_t a = 0; a < kAxisCount; ++a)
        panicIf(axisSize(static_cast<Axis>(a)) == 0,
                "empty tune axis");
}

TunePoint
TuneSpace::at(const std::vector<std::size_t> &idx) const
{
    panicIf(idx.size() != kAxisCount, "tune index arity mismatch");
    for (std::size_t a = 0; a < kAxisCount; ++a)
        panicIf(idx[a] >= axisSize(static_cast<Axis>(a)),
                "tune index out of range");
    TunePoint p;
    p.dataflow = dataflows[idx[std::size_t(Axis::Dataflow)]];
    p.dataMemBytes = capacities[idx[std::size_t(Axis::Capacity)]];
    p.bandwidthGBps = bandwidths[idx[std::size_t(Axis::Bandwidth)]];
    p.memChannels = channelCounts[idx[std::size_t(Axis::Channels)]];
    p.channelPolicy =
        channelPolicies[idx[std::size_t(Axis::Policy)]];
    p.channelSkew = channelSkews[idx[std::size_t(Axis::Skew)]];
    p.modopsMult = modopsMults[idx[std::size_t(Axis::Modops)]];
    p.shards = shardCounts[idx[std::size_t(Axis::Shards)]];
    p.topology = topologies[idx[std::size_t(Axis::Topology)]];
    p.strategy = strategies[idx[std::size_t(Axis::Strategy)]];
    return p;
}

std::vector<std::size_t>
TuneSpace::unflatten(std::size_t flat) const
{
    panicIf(flat >= pointCount(), "flat tune index out of range");
    std::vector<std::size_t> idx(kAxisCount, 0);
    for (std::size_t a = kAxisCount; a-- > 0;) {
        const std::size_t n = axisSize(static_cast<Axis>(a));
        idx[a] = flat % n;
        flat /= n;
    }
    return idx;
}

RpuConfig
TuneSpace::chipConfig(const TunePoint &p) const
{
    RpuConfig cfg = chip;
    cfg.dataMemBytes = p.dataMemBytes;
    cfg.evkOnChip = evkOnChip;
    cfg.bandwidthGBps = p.bandwidthGBps;
    cfg.memChannels = p.memChannels;
    cfg.channelPolicy = p.channelPolicy;
    cfg.modopsMult = p.modopsMult;
    cfg.channelGBps.clear();
    if (p.channelSkew != 1.0 && p.memChannels > 1) {
        // Channel c gets a skew^c share of the aggregate; skew > 1
        // models a fast channel (HBM) next to slower ones (CXL).
        double sum = 0.0, w = 1.0;
        for (std::size_t c = 0; c < p.memChannels; ++c, w *= p.channelSkew)
            sum += w;
        w = 1.0;
        for (std::size_t c = 0; c < p.memChannels; ++c, w *= p.channelSkew)
            cfg.channelGBps.push_back(p.bandwidthGBps * w / sum);
    }
    return cfg;
}

MemoryConfig
TuneSpace::memoryConfig(const TunePoint &p) const
{
    MemoryConfig mem;
    mem.dataCapacityBytes = p.dataMemBytes;
    mem.evkOnChip = evkOnChip;
    return mem;
}

} // namespace ciflow::tune
