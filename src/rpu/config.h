/**
 * @file
 * RPU hardware configuration (§V-A of the paper).
 *
 * Defaults match CiFlow's modified RPU: 128 HPLE lanes at 1.7 GHz,
 * vector length 1K (B1K), 32 MiB vector data memory, and either a large
 * evk SRAM (392 MiB total on-chip) or streamed keys. MODOPS — modular
 * operations per second — scales with `modopsMult` for the §VI-C
 * throughput sensitivity study.
 */

#ifndef CIFLOW_RPU_CONFIG_H
#define CIFLOW_RPU_CONFIG_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "hksflow/builder.h"

namespace ciflow
{

/** How memory tasks are distributed across multiple DRAM channels. */
enum class ChannelPolicy : std::uint8_t {
    /** Round-robin all memory tasks over all channels. */
    Interleave,
    /**
     * Reserve the last channel for evk streams; everything else
     * round-robins over the remaining channels. Falls back to
     * Interleave with fewer than two channels.
     */
    EvkDedicated,
    /**
     * Assign each memory task to the channel with the least bytes
     * accumulated so far (ties to the lowest channel index). Unlike
     * Interleave this balances *bytes*, not task counts, so a few
     * huge streams do not pile onto one queue. Note it balances bytes
     * even when channel rates differ (channelGBps): a slow channel
     * still receives an equal byte share.
     */
    LeastLoaded,
};

/** Configuration of one simulated RPU instance. */
struct RpuConfig
{
    /** Number of high-performance large-arithmetic-word engines. */
    std::size_t hples = 128;
    /** Core clock in GHz. */
    double freqGHz = 1.7;
    /** B1K vector length. */
    std::size_t vectorLen = 1024;
    /** Off-chip bandwidth in GB/s (decimal). */
    double bandwidthGBps = 64.0;
    /** Computational-throughput multiplier (1, 2, 4, 8, 16 in §VI-C). */
    double modopsMult = 1.0;
    /**
     * Average lane cycles per modular operation. Modular arithmetic on
     * word-size moduli is a multi-cycle macro-op (Barrett/Montgomery
     * needs several integer multiplies); 4 cycles/op reproduces the
     * paper's compute-bound saturation runtimes (e.g. ~38 ms for BTS3
     * and ~5.6 ms for ARK at 1 TB/s).
     */
    double cyclesPerModOp = 4.0;
    /** Vector data memory capacity. */
    std::uint64_t dataMemBytes = 32ull << 20;
    /** True: evks preloaded in a dedicated on-chip key memory. */
    bool evkOnChip = false;
    /**
     * Number of independent DRAM channels. `bandwidthGBps` is the
     * aggregate: each channel serves bandwidthGBps/memChannels. One
     * channel reproduces the paper's single-queue memory system.
     */
    std::size_t memChannels = 1;
    /** Memory-task placement across channels. */
    ChannelPolicy channelPolicy = ChannelPolicy::Interleave;
    /**
     * Optional per-channel bandwidths in GB/s for asymmetric memory
     * systems (e.g. an HBM channel next to a CXL channel). Empty
     * (default): every channel serves bandwidthGBps / memChannels.
     * Non-empty: must hold exactly memChannels entries; bandwidthGBps
     * is ignored and the aggregate is the sum of the entries. Purely a
     * replay-rate knob — the compiled-schedule layout is unchanged.
     */
    std::vector<double> channelGBps;
    /**
     * False (paper): one fused compute pipe per task, costing the
     * slower of its arithmetic and shuffle halves. True: arithmetic
     * and shuffle are separate in-order resources that overlap across
     * tasks; a task's dependents wait for both halves.
     */
    bool splitComputePipes = false;

    /** Modular operations per second (the paper's MODOPS). */
    double
    modopsPerSec() const
    {
        return static_cast<double>(hples) * freqGHz * 1e9 * modopsMult /
               cyclesPerModOp;
    }

    /** Shuffle elements per second (crossbar, one per lane per cycle). */
    double
    shuffleElemsPerSec() const
    {
        return static_cast<double>(hples) * freqGHz * 1e9;
    }

    /** Off-chip bytes per second (aggregate over all channels). */
    double
    bytesPerSec() const
    {
        if (!channelGBps.empty()) {
            if (channelGBps.size() != channelCount())
                panic("channelGBps must have one entry per memory "
                      "channel");
            double sum = 0.0;
            for (double g : channelGBps)
                sum += gbps(g);
            return sum;
        }
        return gbps(bandwidthGBps);
    }

    /** Channels, clamped to at least one. */
    std::size_t
    channelCount() const
    {
        return memChannels > 0 ? memChannels : 1;
    }

    /**
     * Bytes per second of one DRAM channel under the symmetric split
     * (the mean channel rate when channels are asymmetric).
     */
    double
    channelBytesPerSec() const
    {
        return bytesPerSec() / static_cast<double>(channelCount());
    }

    /** Bytes per second of channel `c` (asymmetric-aware). */
    double
    channelBytesPerSec(std::size_t c) const
    {
        if (channelGBps.empty())
            return channelBytesPerSec();
        if (channelGBps.size() != channelCount())
            panic("channelGBps must have one entry per memory channel");
        if (c >= channelGBps.size())
            panic("channel index out of range");
        return gbps(channelGBps[c]);
    }

    /** Number of compute resources (1 fused, or 2 split pipes). */
    std::size_t
    computePipeCount() const
    {
        return splitComputePipes ? 2 : 1;
    }

    /** Memory configuration handed to the dataflow builders. */
    MemoryConfig
    memoryConfig() const
    {
        return {dataMemBytes, evkOnChip};
    }
};

/**
 * The fields of an RpuConfig that shape a compiled schedule: resource
 * layout (channels, placement policy, fused vs split pipes) and the
 * vector length the code generator lowered tasks against. Two configs
 * with equal layouts can replay the same sim::CompiledSchedule; the
 * remaining knobs (bandwidth, MODOPS multiplier, clocks) only scale
 * replay rates.
 */
struct RpuLayout
{
    std::size_t memChannels = 1;
    ChannelPolicy channelPolicy = ChannelPolicy::Interleave;
    bool splitComputePipes = false;
    std::size_t vectorLen = 1024;

    bool operator==(const RpuLayout &) const = default;

    static RpuLayout
    of(const RpuConfig &cfg)
    {
        return {cfg.channelCount(), cfg.channelPolicy,
                cfg.splitComputePipes, cfg.vectorLen};
    }

    /**
     * Nonzero packed encoding stamped onto compiled schedules
     * (sim::CompiledSchedule::layoutTag) so replaying against a
     * different layout is caught, not silently wrong. Nonzero because
     * memChannels >= 1 occupies the top bits.
     */
    std::uint64_t
    tag() const
    {
        return (static_cast<std::uint64_t>(memChannels) << 40) |
               (static_cast<std::uint64_t>(vectorLen) << 8) |
               (static_cast<std::uint64_t>(channelPolicy) << 1) |
               (splitComputePipes ? 1u : 0u);
    }

    /**
     * The tag() bits that shape a compiled skeleton: vector length
     * and pipe split. Two layouts agreeing on them lower a graph to
     * the same task order, deps and op numerators, and differ only in
     * which channel serves each memory op.
     */
    static constexpr std::uint64_t kSkeletonTagMask =
        (0xFFFFFFFFull << 8) | 1u;
};

} // namespace ciflow

#endif // CIFLOW_RPU_CONFIG_H
