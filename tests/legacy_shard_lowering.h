/**
 * @file
 * Test-side reference for the shard layer: the graph-lowering sharded
 * compile ShardedEngine used before it bound sharded schedules from a
 * single-chip compile.
 *
 * lowerSharded() walks the TaskGraph and lowers every task itself —
 * RpuEngine::lowerTask with a per-chip base offset and a per-chip
 * ChannelPlacer, every cut edge materialized as a transfer task at
 * its first consumer, every append through the validated
 * CompiledSchedule::addTask — and stamps the engine's layout tag, so
 * its schedule replays through ShardedEngine like any compile()
 * result. The library's bind pass (compile and bind, fresh or into a
 * reused output) must reproduce it exactly: the same CSR arrays,
 * resource names and graph -> schedule id maps.
 */

#ifndef CIFLOW_TESTS_LEGACY_SHARD_LOWERING_H
#define CIFLOW_TESTS_LEGACY_SHARD_LOWERING_H

#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "shard/sharded_engine.h"

namespace ciflow::legacy
{

/**
 * Lower `g` under `p` onto `cfg` chips joined by `net`, id maps
 * included.
 */
inline shard::ShardedCompiled
lowerSharded(const RpuConfig &cfg, const shard::InterconnectConfig &net,
             const TaskGraph &g, const shard::Partition &p)
{
    using shard::Topology;
    g.validate();
    panicIf(p.shardOf.size() != g.size(),
            "partition does not cover the graph");
    shard::ShardedCompiled sc;
    const std::size_t k = p.shards;
    const std::size_t nchan = cfg.channelCount();
    const std::size_t per_chip = nchan + cfg.computePipeCount();
    sc.shards = k;
    sc.perChip = per_chip;
    sc.links = net.linkCount(k);

    for (std::size_t s = 0; s < k; ++s) {
        const std::string prefix = "rpu" + std::to_string(s) + ".";
        for (std::size_t c = 0; c < nchan; ++c)
            sc.schedule.addResource(prefix + "dram" + std::to_string(c));
        if (cfg.splitComputePipes) {
            sc.schedule.addResource(prefix + "arith");
            sc.schedule.addResource(prefix + "shuffle");
        } else {
            sc.schedule.addResource(prefix + "compute");
        }
    }
    const sim::ResourceId link_base =
        static_cast<sim::ResourceId>(k * per_chip);
    if (net.topology == Topology::SharedBus) {
        if (sc.links > 0)
            sc.schedule.addResource("bus");
    } else {
        for (std::size_t a = 0; a < k; ++a)
            for (std::size_t b = 0; b < k; ++b)
                if (a != b)
                    sc.schedule.addResource("link" + std::to_string(a) +
                                            ">" + std::to_string(b));
    }

    const RpuEngine eng(cfg);
    const CodeGen cg(cfg.vectorLen);
    std::vector<ChannelPlacer> placers;
    for (std::size_t s = 0; s < k; ++s)
        placers.emplace_back(cfg.channelPolicy, nchan);

    std::unordered_map<std::uint64_t, std::size_t> cut_index;
    for (std::size_t i = 0; i < p.cutEdges.size(); ++i)
        cut_index.emplace(
            static_cast<std::uint64_t>(p.cutEdges[i].src) * k +
                p.cutEdges[i].toShard,
            i);
    constexpr sim::TaskId kUnset = ~sim::TaskId{0};
    sc.transferId.assign(p.cutEdges.size(), kUnset);
    sc.newId.assign(g.size(), 0);

    std::vector<sim::TaskId> deps;
    std::vector<sim::CompiledOp> ops;
    for (const Task &t : g.tasks()) {
        const std::uint32_t shard = p.shardOf[t.id];
        deps.clear();
        for (std::uint32_t d : t.deps) {
            if (p.shardOf[d] == shard) {
                deps.push_back(sc.newId[d]);
                continue;
            }
            const auto it = cut_index.find(
                static_cast<std::uint64_t>(d) * k + shard);
            panicIf(it == cut_index.end(),
                    "partition cut does not cover a cross-shard "
                    "dependency");
            const std::size_t idx = it->second;
            if (sc.transferId[idx] == kUnset) {
                const shard::CutEdge &e = p.cutEdges[idx];
                sim::CompiledOp xfer;
                xfer.resource =
                    link_base + static_cast<sim::ResourceId>(net.linkIndex(
                                    e.fromShard, e.toShard, k));
                xfer.bytes = static_cast<double>(e.bytes);
                xfer.postSeconds = net.latencySec;
                sc.transferId[idx] =
                    sc.schedule.addTask({sc.newId[d]}, {xfer});
                ++sc.transferTasks;
                sc.transferBytes += e.bytes;
            }
            deps.push_back(sc.transferId[idx]);
        }
        ops.clear();
        eng.lowerTask(t, cg, placers[shard],
                      static_cast<sim::ResourceId>(shard * per_chip), ops);
        sc.newId[t.id] = sc.schedule.addTask(deps, ops);
    }

    // The engine's layout stamp: chip layout, shard count, topology.
    sc.schedule.setLayoutTag(
        RpuLayout::of(cfg).tag() * 1000003ull +
        ((static_cast<std::uint64_t>(k) << 2) |
         (net.topology == Topology::PointToPoint ? 2u : 0u) | 1u));
    return sc;
}

} // namespace ciflow::legacy

#endif // CIFLOW_TESTS_LEGACY_SHARD_LOWERING_H
