/**
 * @file
 * Interconnect model between sharded RPUs.
 *
 * Links are first-class queued sim resources, not a flat latency adder:
 * every cross-shard transfer occupies a link channel for
 * payload / linkBandwidth seconds (so concurrent transfers contend and
 * queue, exactly like DRAM traffic), and its result becomes visible to
 * the consuming chip latencySec later (CompiledOp::postSeconds — the
 * propagation delay pipelines, in the spirit of RDMA-style remote
 * memory where issue rate is bounded by the NIC, not the wire).
 *
 * Two topologies:
 *  - SharedBus: one channel serves every chip pair; transfers across
 *    the whole machine serialize on it.
 *  - PointToPoint: one directed channel per ordered chip pair
 *    (K * (K-1) links), so disjoint pairs never contend.
 */

#ifndef CIFLOW_SHARD_INTERCONNECT_H
#define CIFLOW_SHARD_INTERCONNECT_H

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sim/error.h"

namespace ciflow::shard
{

/** Link topology between shards. */
enum class Topology : std::uint8_t {
    SharedBus,
    PointToPoint,
};

/** Short name ("bus"/"p2p"). */
inline const char *
topologyName(Topology t)
{
    return t == Topology::SharedBus ? "bus" : "p2p";
}

/** Configuration of the inter-chip network. */
struct InterconnectConfig
{
    Topology topology = Topology::PointToPoint;
    /** Bandwidth of one link (or of the whole bus) in GB/s. */
    double linkGBps = 64.0;
    /** Propagation latency per transfer, in seconds. */
    double latencySec = 1e-6;

    /** Number of link resources for a `shards`-chip machine. */
    std::size_t
    linkCount(std::size_t shards) const
    {
        if (shards <= 1)
            return 0;
        return topology == Topology::SharedBus ? 1
                                               : shards * (shards - 1);
    }

    /** Link resource index (0-based) of a `from` -> `to` transfer. */
    std::size_t
    linkIndex(std::size_t from, std::size_t to,
              std::size_t shards) const
    {
        if (topology == Topology::SharedBus)
            return 0;
        return from * (shards - 1) + (to < from ? to : to - 1);
    }
};

/**
 * Non-aborting validation of an interconnect: BadInterconnect unless
 * latencySec is finite and >= 0 and linkGBps is positive (+inf is a
 * legal free link). A NaN latency would drop a transfer out of
 * replay's max and a negative one would make it visible before it was
 * sent, so both are rejected here, once: ShardedEngine's constructor
 * calls this, which is what lets its binds append transfer ops
 * without re-validating them.
 */
inline sim::Error
checkInterconnect(const InterconnectConfig &net)
{
    if (!(std::isfinite(net.latencySec) && net.latencySec >= 0.0))
        return {sim::ErrorCode::BadInterconnect,
                "link latency must be finite and >= 0 seconds"};
    if (!(net.linkGBps > 0.0))
        return {sim::ErrorCode::BadInterconnect,
                "link bandwidth must be > 0 GB/s (+inf is a free link)"};
    return {};
}

} // namespace ciflow::shard

#endif // CIFLOW_SHARD_INTERCONNECT_H
