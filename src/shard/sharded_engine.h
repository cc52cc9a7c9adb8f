/**
 * @file
 * ShardedEngine: K identical RPUs plus an interconnect, compiled into
 * one sim::CompiledSchedule.
 *
 * A sharded schedule is a *binding* of a single-chip schedule of the
 * same graph (an RpuEngine::compile result, such as the one every
 * HksExperiment already holds), not a second lowering of the graph.
 * One bind pass builds it: K copies of the single-chip resource block
 * (DRAM channels first, then compute pipe(s), the RpuEngine layout),
 * followed by the interconnect's link channels. The pass copies every
 * task's deps and op cost numerators from the source, offsets pipe
 * ops into their chip's block, and re-places memory ops with a
 * per-chip ChannelPlacer from the task's bytes and evk flag, so the
 * source may use any channel layout but must share the chip's pipe
 * split and vector length. Every cut edge of the Partition becomes
 * one *transfer task* between its producer and the first consumer on
 * the destination chip: a bytes payload queued on the link (transfers
 * contend like DRAM traffic) plus a pipelined propagation delay
 * (CompiledOp::postSeconds).
 *
 * The pass writes the output in place. Each transfer is a single-dep,
 * single-op task placed just before its first consumer, so source
 * task t lands at t + (transfers placed so far) and its deps and ops
 * shift by that same count: the output's CSR arrays are sized once,
 * for every cut edge materializing (CompiledSchedule::bulkWrite),
 * every entry is written where it lands, and the arrays are trimmed
 * to the transfers that did. Cut edges are found through a dense
 * (producer x shard) table that stays unset between binds — each bind
 * writes its cut's entries and resets them — so a lookup is one load.
 *
 * compile(g, p) is RpuEngine(chip).compile(g) followed by that bind;
 * the experiment overloads bind from HksExperiment::compiled() when
 * its skeleton matches and from the experiment's layout cache entry
 * for the chip otherwise, so they lower nothing the experiment has
 * not already compiled. Re-placing a schedule — a tuner point, a
 * placement-search cut, a failover's partition move — is one more
 * bind() into the caller's reused output. A K=1 partition binds to
 * the identical op stream with no transfer tasks, and its replay is
 * bit-identical to the single-RPU compiled replay
 * (tests/test_shard.cpp pins this).
 *
 * replay()/replayRuntime() evaluate a compiled shard schedule at the
 * chip + link rates through per-thread scratch, so a K-shard simulate
 * allocates nothing after warm-up — placement searches sweep thousands
 * of candidate cuts at full compiled-replay speed.
 */

#ifndef CIFLOW_SHARD_SHARDED_ENGINE_H
#define CIFLOW_SHARD_SHARDED_ENGINE_H

#include <vector>

#include "rpu/engine.h"
#include "rpu/experiment.h"
#include "shard/interconnect.h"
#include "shard/partition.h"
#include "sim/compiled_schedule.h"

namespace ciflow::shard
{

/** A partitioned graph compiled against K chips + interconnect. */
struct ShardedCompiled
{
    sim::CompiledSchedule schedule;
    std::size_t shards = 1;
    /** Resources per chip (channels + pipes). */
    std::size_t perChip = 0;
    /** Link resources after the chip blocks. */
    std::size_t links = 0;
    /** Transfer tasks materialized from the cut. */
    std::size_t transferTasks = 0;
    /** Total payload shipped over the interconnect. */
    std::uint64_t transferBytes = 0;
    /**
     * Graph -> schedule ids of the current binding: graph task t is
     * schedule task newId[t], and cut edge j's transfer is schedule
     * task transferId[j] (~0 if the edge never materialized). The
     * fault layer's done masks read them.
     */
    std::vector<sim::TaskId> newId, transferId;
};

/** Aggregate results of one sharded simulation. */
struct ShardedStats
{
    /** End-to-end runtime in seconds. */
    double runtime = 0.0;
    std::size_t shards = 1;
    /** DRAM-channel busy seconds, summed over all chips. */
    double memBusy = 0.0;
    /** Compute busy seconds, summed over all chips. */
    double compBusy = 0.0;
    /** Link busy (occupancy) seconds, summed over links. */
    double linkBusy = 0.0;
    std::size_t transferTasks = 0;
    std::uint64_t transferBytes = 0;
    /** Per-resource utilization (chip blocks, then links). */
    std::vector<sim::ResourceUse> resources;
    double runtimeMs() const { return runtime * 1e3; }
};

/** Simulates a partitioned TaskGraph on K chips + interconnect. */
class ShardedEngine
{
  public:
    /** fatal() unless checkInterconnect(ic) accepts the network. */
    ShardedEngine(const RpuConfig &chip, const InterconnectConfig &ic);

    /**
     * Compile `g` under partition `p`: RpuEngine(chip).compile(g)
     * followed by the bind pass. The result can be replayed at any
     * rates of a config sharing the chip layout and topology.
     */
    ShardedCompiled compile(const TaskGraph &g,
                            const Partition &p) const;

    /**
     * compile(exp.graph(), p), bound from exp.compiled() when that
     * schedule has this chip's pipe split and vector length and from
     * exp.compiled(chip()) otherwise, so the graph is lowered at most
     * once per experiment and layout. Bit-identical to
     * compile(exp.graph(), p).
     */
    ShardedCompiled compile(const HksExperiment &exp,
                            const Partition &p) const;

    /**
     * The bind pass — the one way a sharded schedule is built or
     * re-placed — into `out`, reusing its buffers: `src` must be a
     * single-chip compile of `g` with this chip's pipe split and
     * vector length (any channel layout), and not `out.schedule`
     * itself, or this panics. So does a malformed `p`: a task on a
     * shard >= p.shards, or a cut edge whose producer is outside the
     * graph, whose shards are out of range or equal, or whose
     * fromShard is not its producer's shard. `out` may hold an earlier
     * binding of any partition and shard count; the result replays
     * exactly like compile(g, p), id maps included
     * (tests/test_patch.cpp pins every entry point and move sequences
     * against the legacy graph lowering).
     */
    void bind(const TaskGraph &g, const sim::CompiledSchedule &src,
              const Partition &p, ShardedCompiled &out) const;

    /** bind() from `exp`'s schedule, as compile(exp, p) picks it. */
    void bind(const HksExperiment &exp, const Partition &p,
              ShardedCompiled &out) const;

    /** Replay rates: per-chip channel rates, link rates, work rates. */
    void rates(const ShardedCompiled &sc, sim::ReplayRates &r) const;

    /** Makespan-only replay (allocation-free; the search hot path). */
    double replayRuntime(const ShardedCompiled &sc) const;

    /** Replay plus ShardedStats packaging. */
    ShardedStats replay(const ShardedCompiled &sc) const;

    /** compile() + replay(). */
    ShardedStats run(const TaskGraph &g, const Partition &p) const;

    const RpuConfig &chip() const { return cfg; }
    const InterconnectConfig &interconnect() const { return net; }

  private:
    /** The single-chip source the experiment overloads bind from. */
    const sim::CompiledSchedule &sourceOf(const HksExperiment &exp) const;

    RpuConfig cfg;
    InterconnectConfig net;
};

} // namespace ciflow::shard

#endif // CIFLOW_SHARD_SHARDED_ENGINE_H
