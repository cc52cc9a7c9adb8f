#include "shard/sharded_engine.h"

#include <cstdio>

#include "common/logging.h"
#include "common/units.h"

namespace ciflow::shard
{

namespace
{

/**
 * Per-thread replay buffers, mirroring RpuEngine's: sweeps over many
 * candidate partitions replay allocation-free once warm.
 */
struct ReplayTls
{
    sim::ReplayRates rates;
    sim::ReplayScratch scratch;
};

ReplayTls &
replayTls()
{
    thread_local ReplayTls tls;
    return tls;
}

/** Layout tag for a sharded schedule (chip layout + K + topology). */
std::uint64_t
shardedTag(const RpuLayout &chip, std::size_t shards, Topology topo)
{
    // The constant low bit keeps the tag nonzero (tagged vs hand-built)
    // without masking the topology bit next to it.
    return chip.tag() * 1000003ull +
           ((static_cast<std::uint64_t>(shards) << 2) |
            (topo == Topology::PointToPoint ? 2u : 0u) | 1u);
}

/**
 * Whether `src` lowers with `chip`'s pipe split and vector length —
 * the two layout axes that shape a schedule's skeleton — so a bind can
 * copy its deps and op numerators verbatim.
 */
bool
sameSkeleton(const RpuConfig &chip, const sim::CompiledSchedule &src)
{
    return (src.layoutTag() & RpuLayout::kSkeletonTagMask) ==
           (RpuLayout::of(chip).tag() & RpuLayout::kSkeletonTagMask);
}

/**
 * The binds' cut-edge lookup on this thread, dense over (producer * K
 * + destination shard): the index of that edge's first occurrence in
 * Partition::cutEdges, or ~0. Every entry is ~0 between binds — a bind
 * writes its cut's entries and resets them before returning.
 */
std::vector<std::uint32_t> &
cutTableTls()
{
    thread_local std::vector<std::uint32_t> table;
    return table;
}

/**
 * Panic unless every task of `p` sits on one of its shards and every
 * cut edge joins two distinct shards in range, from its producer's
 * shard: the bind indexes its dense cut table and the chip blocks by
 * these ids. Branches, not panicIf, so a valid cut builds no message.
 */
void
checkPartition(const Partition &p)
{
    const std::size_t n = p.shardOf.size();
    const std::size_t k = p.shards;
    for (std::uint32_t s : p.shardOf)
        if (s >= k)
            panic("partition puts a task on a shard outside its shard "
                  "count");
    for (const CutEdge &e : p.cutEdges) {
        if (e.src >= n)
            panic("cut edge producer is outside the graph");
        if (e.fromShard >= k || e.toShard >= k)
            panic("cut edge names a shard outside the partition");
        if (e.fromShard == e.toShard)
            panic("cut edge does not cross shards");
        if (e.fromShard != p.shardOf[e.src])
            panic("cut edge does not leave its producer's shard");
    }
}

} // namespace

ShardedEngine::ShardedEngine(const RpuConfig &chip,
                             const InterconnectConfig &ic)
    : cfg(chip), net(ic)
{
    if (const sim::Error err = checkInterconnect(net))
        fatal("interconnect: " + err.message());
}

void
ShardedEngine::bind(const TaskGraph &g, const sim::CompiledSchedule &src,
                    const Partition &p, ShardedCompiled &sc) const
{
    const std::size_t n = src.taskCount();
    panicIf(!sameSkeleton(cfg, src),
            "bind source was compiled with another pipe split or "
            "vector length than the engine chip");
    panicIf(g.size() != n,
            "bind source was not compiled from this graph (task "
            "counts differ)");
    panicIf(p.shardOf.size() != n, "partition does not cover the graph");
    panicIf(&src == &sc.schedule, "bind source is its own output");
    checkPartition(p);
    const std::size_t k = p.shards;
    const std::size_t nchan = cfg.channelCount();
    const std::size_t pipes = cfg.computePipeCount();
    const std::size_t per_chip = nchan + pipes;
    // The source lays out channels first, then the same pipes.
    const std::size_t src_chan = src.resourceCount() - pipes;
    const std::uint64_t tag =
        shardedTag(RpuLayout::of(cfg), k, net.topology);
    sim::CompiledSchedule &cs = sc.schedule;

    sc.shards = k;
    sc.perChip = per_chip;
    sc.links = net.linkCount(k);
    sc.transferTasks = 0;
    sc.transferBytes = 0;

    // Chip resource blocks first — channels then pipe(s) within each
    // block, exactly the single-RPU layout — then the links. A reused
    // schedule already bound under this tag keeps its table.
    if (cs.layoutTag() != tag) {
        cs.patchBegin(k * per_chip + sc.links);
        char name[64];
        sim::ResourceId r = 0;
        const auto named = [&] { cs.patchResourceName(r++, name); };
        for (std::size_t s = 0; s < k; ++s) {
            for (std::size_t c = 0; c < nchan; ++c) {
                std::snprintf(name, sizeof(name), "rpu%zu.dram%zu", s, c);
                named();
            }
            if (cfg.splitComputePipes) {
                std::snprintf(name, sizeof(name), "rpu%zu.arith", s);
                named();
                std::snprintf(name, sizeof(name), "rpu%zu.shuffle", s);
                named();
            } else {
                std::snprintf(name, sizeof(name), "rpu%zu.compute", s);
                named();
            }
        }
        if (net.topology == Topology::SharedBus) {
            if (sc.links > 0)
                cs.patchResourceName(r++, "bus");
        } else {
            for (std::size_t a = 0; a < k; ++a)
                for (std::size_t d = 0; d < k; ++d)
                    if (a != d) {
                        std::snprintf(name, sizeof(name), "link%zu>%zu",
                                      a, d);
                        named();
                    }
        }
    }
    const sim::ResourceId link_base =
        static_cast<sim::ResourceId>(k * per_chip);

    // Cut-edge lookup: (producer, destination shard) -> the edge's
    // first occurrence; the transfer task itself is created lazily at
    // the first consumer.
    constexpr std::uint32_t kNoEdge = ~std::uint32_t{0};
    const std::size_t ncut = p.cutEdges.size();
    std::vector<std::uint32_t> &cutTable = cutTableTls();
    if (cutTable.size() < n * k)
        cutTable.resize(n * k, kNoEdge);
    for (std::size_t i = 0; i < ncut; ++i) {
        std::uint32_t &slot =
            cutTable[p.cutEdges[i].src * k + p.cutEdges[i].toShard];
        if (slot == kNoEdge)
            slot = static_cast<std::uint32_t>(i);
    }
    constexpr sim::TaskId kUnset = ~sim::TaskId{0};
    sc.transferId.assign(ncut, kUnset);
    sc.newId.resize(n);

    std::vector<ChannelPlacer> placers;
    placers.reserve(k);
    for (std::size_t s = 0; s < k; ++s)
        placers.emplace_back(cfg.channelPolicy, nchan);

    // Sized for every cut edge materializing; trimmed below to the
    // `placed` transfers that did. Source task t lands at t + placed,
    // its deps at depOff[t] + placed and its ops at opOff[t] + placed:
    // each transfer placed before it adds one task, one dep and one
    // op.
    const sim::ScheduleView v = src.view();
    const std::size_t ndeps = src.depCount();
    const std::size_t nops = src.opCount();
    const sim::ScheduleArrays w =
        cs.bulkWrite(n + ncut, ndeps + ncut, nops + ncut);
    std::uint32_t placed = 0;
    for (std::size_t t = 0; t < n; ++t) {
        const std::uint32_t shard = p.shardOf[t];
        const std::uint32_t *row = cutTable.data() + shard;
        const std::uint32_t d0 = v.depOff[t];
        const std::uint32_t d1 = v.depOff[t + 1];

        // Transfers t is the first consumer of, each one task ahead.
        for (std::uint32_t i = d0; i < d1; ++i) {
            const sim::TaskId d = v.depIds[i];
            if (p.shardOf[d] == shard)
                continue;
            const std::uint32_t e = row[static_cast<std::size_t>(d) * k];
            // Branch, not panicIf: the message must not be built per
            // cross-shard dependency.
            if (e == kNoEdge)
                panic("partition cut does not cover a cross-shard "
                      "dependency");
            if (sc.transferId[e] != kUnset)
                continue;
            const CutEdge &edge = p.cutEdges[e];
            const std::uint32_t id = static_cast<std::uint32_t>(t) + placed;
            const std::uint32_t dpos = d0 + placed;
            const std::uint32_t opos = v.opOff[t] + placed;
            w.depIds[dpos] = sc.newId[d];
            w.depOff[id + 1] = dpos + 1;
            w.opRes[opos] = link_base +
                            static_cast<sim::ResourceId>(net.linkIndex(
                                edge.fromShard, edge.toShard, k));
            w.opBytes[opos] = static_cast<double>(edge.bytes);
            w.opWork0[opos] = 0.0;
            w.opWork1[opos] = 0.0;
            w.opSec[opos] = 0.0;
            w.opPost[opos] = net.latencySec;
            w.opOff[id + 1] = opos + 1;
            sc.transferId[e] = id;
            ++placed;
            ++sc.transferTasks;
            sc.transferBytes += edge.bytes;
        }

        // t itself: every dep id comes from newId/transferId entries
        // of earlier iterations, so it precedes the task.
        const std::uint32_t id = static_cast<std::uint32_t>(t) + placed;
        sim::TaskId *deps = w.depIds + d0 + placed;
        for (std::uint32_t i = d0; i < d1; ++i) {
            const sim::TaskId d = v.depIds[i];
            deps[i - d0] =
                p.shardOf[d] == shard
                    ? sc.newId[d]
                    : sc.transferId[row[static_cast<std::size_t>(d) * k]];
        }
        w.depOff[id + 1] = d1 + placed;

        // Its ops: the source's cost numerators (validated by addTask
        // when the source was compiled), pipes offset into the chip's
        // block, memory ops re-placed by the chip's placer.
        const sim::ResourceId base =
            static_cast<sim::ResourceId>(shard * per_chip);
        const std::uint32_t o1 = v.opOff[t + 1];
        for (std::uint32_t i = v.opOff[t]; i < o1; ++i) {
            const std::uint32_t j = i + placed;
            w.opBytes[j] = v.opBytes[i];
            w.opWork0[j] = v.opWork0[i];
            w.opWork1[j] = v.opWork1[i];
            w.opSec[j] = v.opSec[i];
            w.opPost[j] = v.opPost[i];
            if (v.opRes[i] < src_chan) {
                const Task &task = g[static_cast<std::uint32_t>(t)];
                w.opRes[j] = base + static_cast<sim::ResourceId>(
                                        placers[shard].place(task.bytes,
                                                             task.isEvk));
            } else {
                w.opRes[j] =
                    base + static_cast<sim::ResourceId>(nchan) +
                    (v.opRes[i] - static_cast<sim::ResourceId>(src_chan));
            }
        }
        w.opOff[id + 1] = o1 + placed;
        sc.newId[t] = id;
    }
    cs.bulkWrite(n + placed, ndeps + placed, nops + placed);
    for (const CutEdge &e : p.cutEdges)
        cutTable[e.src * k + e.toShard] = kNoEdge;
    cs.patchCommit(tag);
}

const sim::CompiledSchedule &
ShardedEngine::sourceOf(const HksExperiment &exp) const
{
    return sameSkeleton(cfg, exp.compiled()) ? exp.compiled()
                                             : exp.compiled(cfg);
}

void
ShardedEngine::bind(const HksExperiment &exp, const Partition &p,
                    ShardedCompiled &out) const
{
    bind(exp.graph(), sourceOf(exp), p, out);
}

ShardedCompiled
ShardedEngine::compile(const TaskGraph &g, const Partition &p) const
{
    ShardedCompiled sc;
    bind(g, RpuEngine(cfg).compile(g), p, sc);
    return sc;
}

ShardedCompiled
ShardedEngine::compile(const HksExperiment &exp, const Partition &p) const
{
    ShardedCompiled sc;
    bind(exp, p, sc);
    return sc;
}

void
ShardedEngine::rates(const ShardedCompiled &sc,
                     sim::ReplayRates &r) const
{
    // The tag names the chip layout, shard count and topology the
    // schedule is bound under, so these rates serve any partition.
    panicIf(sc.schedule.layoutTag() !=
                shardedTag(RpuLayout::of(cfg), sc.shards,
                           net.topology),
            "sharded schedule layout does not match config");
    const std::size_t nchan = cfg.channelCount();
    const std::size_t nres = sc.schedule.resourceCount();
    panicIf(nres != sc.shards * sc.perChip + sc.links,
            "sharded schedule resource count does not match config");
    // Pipes never carry bytes; 1.0 keeps their byte component defined.
    r.bytesPerSec.assign(nres, 1.0);
    for (std::size_t s = 0; s < sc.shards; ++s)
        for (std::size_t c = 0; c < nchan; ++c)
            r.bytesPerSec[s * sc.perChip + c] = cfg.channelBytesPerSec(c);
    const double link_bps = gbps(net.linkGBps);
    for (std::size_t l = 0; l < sc.links; ++l)
        r.bytesPerSec[sc.shards * sc.perChip + l] = link_bps;
    r.workPerSec[kWorkArith] = cfg.modopsPerSec();
    r.workPerSec[kWorkShuffle] = cfg.shuffleElemsPerSec();
}

double
ShardedEngine::replayRuntime(const ShardedCompiled &sc) const
{
    ReplayTls &tls = replayTls();
    rates(sc, tls.rates);
    return sc.schedule.replay(tls.rates, tls.scratch);
}

ShardedStats
ShardedEngine::replay(const ShardedCompiled &sc) const
{
    ReplayTls &tls = replayTls();
    rates(sc, tls.rates);
    const double makespan = sc.schedule.replay(tls.rates, tls.scratch);

    const std::size_t nchan = cfg.channelCount();
    const std::size_t nres = sc.schedule.resourceCount();
    ShardedStats s;
    s.runtime = makespan;
    s.shards = sc.shards;
    s.transferTasks = sc.transferTasks;
    s.transferBytes = sc.transferBytes;
    for (std::size_t chip = 0; chip < sc.shards; ++chip) {
        for (std::size_t r = 0; r < sc.perChip; ++r) {
            const double busy = tls.scratch.busy[chip * sc.perChip + r];
            if (r < nchan)
                s.memBusy += busy;
            else
                s.compBusy += busy;
        }
    }
    for (std::size_t l = 0; l < sc.links; ++l)
        s.linkBusy += tls.scratch.busy[sc.shards * sc.perChip + l];
    s.resources.reserve(nres);
    for (std::size_t r = 0; r < nres; ++r)
        s.resources.push_back({sc.schedule.resourceName(
                                   static_cast<sim::ResourceId>(r)),
                               tls.scratch.busy[r],
                               tls.scratch.jobs[r]});
    return s;
}

ShardedStats
ShardedEngine::run(const TaskGraph &g, const Partition &p) const
{
    return replay(compile(g, p));
}

} // namespace ciflow::shard
