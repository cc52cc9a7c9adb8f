/**
 * @file
 * TuneSpace: the joint knob space an auto-tuning search explores.
 *
 * The paper's claim is that RPU performance is dominated by a small
 * set of co-designed knobs — dataflow, on-chip capacity, DRAM channel
 * layout, and MODOPS budget. A TuneSpace enumerates one axis per knob
 * (plus optional multi-chip axes that delegate to the sharding layer)
 * and materializes any index tuple into the concrete
 * (Dataflow, MemoryConfig, RpuConfig, shard options) an evaluation
 * needs. Graph-shaping axes (dataflow, capacity) select an
 * ExperimentRunner cache entry; the remaining axes are pure replay
 * knobs, so a point evaluation after warm-up is one compiled-schedule
 * replay.
 *
 * Axes are index spaces, not value spaces: search strategies walk
 * small integer tuples and only materialize a TunePoint at evaluation
 * time, which keeps coordinate/neighbor moves trivial and the
 * evaluation cache keyable by value.
 */

#ifndef CIFLOW_TUNE_TUNE_SPACE_H
#define CIFLOW_TUNE_TUNE_SPACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "hksflow/dataflow.h"
#include "rpu/config.h"
#include "shard/interconnect.h"
#include "shard/partition.h"

namespace ciflow::tune
{

/** Axis order of a TuneSpace index tuple. */
enum class Axis : std::size_t {
    Dataflow,
    Capacity,
    Bandwidth,
    Channels,
    Policy,
    Skew,
    Modops,
    Shards,
    Topology,
    Strategy,
};

/** Number of axes in every TuneSpace. */
constexpr std::size_t kAxisCount = 10;

/** One concrete configuration drawn from a TuneSpace. */
struct TunePoint
{
    Dataflow dataflow = Dataflow::OC;
    /** Vector data-memory capacity (bytes). */
    std::uint64_t dataMemBytes = 32ull << 20;
    /** Per-chip off-chip bandwidth (GB/s, aggregate over channels). */
    double bandwidthGBps = 64.0;
    std::size_t memChannels = 1;
    ChannelPolicy channelPolicy = ChannelPolicy::Interleave;
    /**
     * Per-channel bandwidth asymmetry: channel c gets a share
     * proportional to skew^c of bandwidthGBps. 1.0 = symmetric
     * channels (the RpuConfig::channelGBps vector stays empty, so the
     * replay path is bit-identical to the plain-bandwidth one).
     */
    double channelSkew = 1.0;
    double modopsMult = 1.0;
    /** Chips; 1 = single RPU, >1 delegates to the sharding layer. */
    std::size_t shards = 1;
    shard::Topology topology = shard::Topology::PointToPoint;
    shard::PartitionStrategy strategy =
        shard::PartitionStrategy::MinCutGreedy;

    /** One-line human-readable description. */
    std::string describe() const;
};

/**
 * The knob grid one Tuner searches. Every axis must be non-empty;
 * single-element axes pin a knob. Non-axis fields (base chip,
 * interconnect, evk residency) are shared by every point.
 */
struct TuneSpace
{
    std::vector<Dataflow> dataflows = {Dataflow::MP, Dataflow::DC,
                                       Dataflow::OC};
    /** Data-memory capacities (bytes). */
    std::vector<std::uint64_t> capacities = {32ull << 20};
    /** Off-chip bandwidths per chip (GB/s). */
    std::vector<double> bandwidths = {64.0};
    std::vector<std::size_t> channelCounts = {1};
    std::vector<ChannelPolicy> channelPolicies = {
        ChannelPolicy::Interleave};
    /** Per-channel asymmetry factors (see TunePoint::channelSkew). */
    std::vector<double> channelSkews = {1.0};
    std::vector<double> modopsMults = {1.0};
    /** Chip counts; entries > 1 evaluate through src/shard. */
    std::vector<std::size_t> shardCounts = {1};
    std::vector<shard::Topology> topologies = {
        shard::Topology::PointToPoint};
    std::vector<shard::PartitionStrategy> strategies = {
        shard::PartitionStrategy::MinCutGreedy};

    /** evk residency for every point (a graph-shaping choice). */
    bool evkOnChip = false;
    /** Base chip configuration the axes override. */
    RpuConfig chip;
    /** Inter-chip network for shard counts > 1. */
    shard::InterconnectConfig interconnect;
    /** MinCutGreedy load-cap tolerance (see ShardSpec). */
    double imbalanceTol = 0.10;

    /** Size of axis `a`. */
    std::size_t axisSize(Axis a) const;
    /** Product of all axis sizes. */
    std::size_t pointCount() const;
    /** panic() when any axis is empty. */
    void validate() const;

    /** Materialize the point at index tuple `idx` (kAxisCount long). */
    TunePoint at(const std::vector<std::size_t> &idx) const;
    /** Index tuple of flat point number `flat` (row-major). */
    std::vector<std::size_t> unflatten(std::size_t flat) const;

    /**
     * The full RpuConfig of `p`: the base chip with every axis knob
     * applied, including the skew-derived channelGBps vector and the
     * memory fields (capacity, evk residency) the graph is built
     * against.
     */
    RpuConfig chipConfig(const TunePoint &p) const;
    /** The graph-shaping memory configuration of `p`. */
    MemoryConfig memoryConfig(const TunePoint &p) const;
};

} // namespace ciflow::tune

#endif // CIFLOW_TUNE_TUNE_SPACE_H
