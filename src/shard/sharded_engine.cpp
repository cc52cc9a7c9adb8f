#include "shard/sharded_engine.h"

#include <algorithm>
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
    /** Batched-replay buffers (replayRuntimeMany). */
    std::vector<sim::ReplayRates> batchRates;
    sim::BatchScratch batchScratch;
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
    return (src.baseLayoutTag() & RpuLayout::kSkeletonTagMask) ==
           (RpuLayout::of(chip).tag() & RpuLayout::kSkeletonTagMask);
}

/** Bind state of the one-shot entry points, reused per thread. */
ShardBinding &
bindTls()
{
    thread_local ShardBinding b;
    return b;
}

/** Record `g`'s per-task memory payloads and evk flags in `b`. */
void
loadPayloads(const TaskGraph &g, ShardBinding &b)
{
    b.memBytes.resize(g.size());
    b.isEvk.resize(g.size());
    for (const Task &t : g.tasks()) {
        b.memBytes[t.id] = t.bytes;
        b.isEvk[t.id] = t.isEvk ? 1 : 0;
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
ShardedEngine::bindInto(const sim::CompiledSchedule &src,
                        const Partition &p, ShardBinding &b,
                        ShardedCompiled &sc) const
{
    const std::size_t n = src.taskCount();
    panicIf(!sameSkeleton(cfg, src),
            "bind source was compiled with another pipe split or "
            "vector length than the engine chip");
    panicIf(b.memBytes.size() != n,
            "bind source was not compiled from this graph (task "
            "counts differ)");
    panicIf(p.shardOf.size() != n, "partition does not cover the graph");
    panicIf(&src == &sc.schedule, "bind source is its own output");
    const std::size_t k = p.shards;
    const std::size_t nchan = cfg.channelCount();
    const std::size_t pipes = cfg.computePipeCount();
    const std::size_t per_chip = nchan + pipes;
    // The source lays out channels first, then the same pipes.
    const std::size_t src_chan = src.resourceCount() - pipes;
    const std::uint64_t tag =
        shardedTag(RpuLayout::of(cfg), k, net.topology);
    sim::CompiledSchedule &cs = sc.schedule;
    const bool reused = cs.resourceCount() > 0;

    sc.shards = k;
    sc.perChip = per_chip;
    sc.links = net.linkCount(k);
    sc.transferTasks = 0;
    sc.transferBytes = 0;

    // Chip resource blocks first — channels then pipe(s) within each
    // block, exactly the single-RPU layout — then the links. A reused
    // schedule already bound under this tag keeps its table.
    if (!reused || cs.baseLayoutTag() != tag) {
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

    // Cut-edge lookup: (producer, destination shard) -> edge index;
    // the transfer task itself is created lazily at first consumer.
    b.cutIndex.clear();
    for (std::size_t i = 0; i < p.cutEdges.size(); ++i)
        b.cutIndex.emplace_back(
            static_cast<std::uint64_t>(p.cutEdges[i].src) * k +
                p.cutEdges[i].toShard,
            static_cast<std::uint32_t>(i));
    std::sort(b.cutIndex.begin(), b.cutIndex.end());
    constexpr sim::TaskId kUnset = ~sim::TaskId{0};
    b.transferId.assign(p.cutEdges.size(), kUnset);
    b.newId.resize(n);
    b.chanOf.resize(n);

    std::vector<ChannelPlacer> placers;
    placers.reserve(k);
    for (std::size_t s = 0; s < k; ++s)
        placers.emplace_back(cfg.channelPolicy, nchan);

    // Exact totals up front (every cut edge becomes one single-op,
    // single-dep transfer task) so the CSR build never reallocates.
    const sim::ScheduleView v = src.view();
    const std::size_t ncut = p.cutEdges.size();
    cs.clearTasks();
    cs.reserve(n + ncut, src.depCount() + ncut, src.opCount() + ncut);
    for (std::size_t t = 0; t < n; ++t) {
        const std::uint32_t shard = p.shardOf[t];
        b.depScratch.clear();
        for (std::uint32_t i = v.depOff[t]; i < v.depOff[t + 1]; ++i) {
            const sim::TaskId d = v.depIds[i];
            if (p.shardOf[d] == shard) {
                b.depScratch.push_back(b.newId[d]);
                continue;
            }
            const std::uint64_t key =
                static_cast<std::uint64_t>(d) * k + shard;
            const auto it = std::lower_bound(
                b.cutIndex.begin(), b.cutIndex.end(),
                std::pair<std::uint64_t, std::uint32_t>{key, 0});
            // Branch, not panicIf: the message must not be built per
            // cross-shard dependency.
            if (it == b.cutIndex.end() || it->first != key)
                panic("partition cut does not cover a cross-shard "
                      "dependency");
            const std::size_t idx = it->second;
            if (b.transferId[idx] == kUnset) {
                const CutEdge &e = p.cutEdges[idx];
                sim::CompiledOp xfer;
                xfer.resource =
                    link_base +
                    static_cast<sim::ResourceId>(net.linkIndex(
                        e.fromShard, e.toShard, k));
                xfer.bytes = static_cast<double>(e.bytes);
                xfer.postSeconds = net.latencySec;
                const sim::TaskId dep = b.newId[d];
                b.transferId[idx] = cs.addTaskTrusted(&dep, 1, &xfer, 1);
                ++sc.transferTasks;
                sc.transferBytes += e.bytes;
            }
            b.depScratch.push_back(b.transferId[idx]);
        }

        b.opScratch.clear();
        const sim::ResourceId base =
            static_cast<sim::ResourceId>(shard * per_chip);
        for (std::uint32_t i = v.opOff[t]; i < v.opOff[t + 1]; ++i) {
            sim::CompiledOp o;
            o.bytes = v.opBytes[i];
            o.work[0] = v.opWork0[i];
            o.work[1] = v.opWork1[i];
            o.seconds = v.opSec[i];
            o.postSeconds = v.opPost[i];
            if (v.opRes[i] < src_chan) {
                if (b.shardDirty[shard])
                    b.chanOf[t] = static_cast<std::uint32_t>(
                        placers[shard].place(b.memBytes[t],
                                             b.isEvk[t] != 0));
                o.resource = base + b.chanOf[t];
            } else {
                o.resource =
                    base + static_cast<sim::ResourceId>(nchan) +
                    (v.opRes[i] - static_cast<sim::ResourceId>(src_chan));
            }
            b.opScratch.push_back(o);
        }
        // Trusted append: the source's ops passed addTask's cost
        // validation when it was compiled, transfer ops carry a cut
        // byte count and an interconnect latency the constructor
        // validated, and every dep id comes from newId/transferId
        // entries of earlier iterations, so it precedes the new task.
        b.newId[t] = cs.addTaskTrusted(b.depScratch.data(),
                                       b.depScratch.size(),
                                       b.opScratch.data(),
                                       b.opScratch.size());
    }

    if (reused)
        cs.patchCommit(tag);
    else
        cs.setLayoutTag(tag);
}

void
ShardedEngine::bind(const TaskGraph &g, const sim::CompiledSchedule &src,
                    const Partition &p, ShardedCompiled &out) const
{
    ShardBinding &b = bindTls();
    loadPayloads(g, b);
    b.shardDirty.assign(p.shards, 1);
    bindInto(src, p, b, out);
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

ShardedPatchable
ShardedEngine::patchableOf(sim::CompiledSchedule src, const TaskGraph &g,
                           const Partition &p) const
{
    ShardedPatchable ps;
    ps.source = std::move(src);
    loadPayloads(g, ps);
    ps.shardDirty.assign(p.shards, 1);
    bindInto(ps.source, p, ps, ps.compiled);
    ps.part = p;
    return ps;
}

ShardedPatchable
ShardedEngine::compilePatchable(const TaskGraph &g,
                                const Partition &p) const
{
    return patchableOf(RpuEngine(cfg).compile(g), g, p);
}

ShardedPatchable
ShardedEngine::compilePatchable(const HksExperiment &exp,
                                const Partition &p) const
{
    return patchableOf(sourceOf(exp), exp.graph(), p);
}

void
ShardedEngine::recompilePartition(ShardedPatchable &ps,
                                  const Partition &newP) const
{
    const std::size_t k = ps.compiled.shards;
    const std::size_t n = ps.part.shardOf.size();
    panicIf(newP.shards != k,
            "partition repatch cannot change the shard count: the "
            "chip resource blocks would resize, compile from scratch");
    panicIf(newP.shardOf.size() != n,
            "partition does not cover the compiled graph");
    panicIf(ps.compiled.schedule.baseLayoutTag() !=
                shardedTag(RpuLayout::of(cfg), k, net.topology),
            "patchable sharded schedule was compiled under a "
            "different engine configuration");

    // A shard is dirty when its membership changed (a task left or
    // joined); only dirty shards re-run placement. A clean shard's
    // task sequence is unchanged, so its placer would retrace the
    // recorded channels — the bind reuses them instead.
    ps.shardDirty.assign(k, 0);
    for (std::size_t t = 0; t < n; ++t)
        if (ps.part.shardOf[t] != newP.shardOf[t]) {
            ps.shardDirty[ps.part.shardOf[t]] = 1;
            ps.shardDirty[newP.shardOf[t]] = 1;
        }
    bindInto(ps.source, newP, ps, ps.compiled);
    ps.part = newP;
}

namespace
{

/**
 * Fill `r` with the replay rates of `chip_cfg`-configured chips joined
 * by `net`, for a schedule of `sc`'s shape. Shared by the scalar and
 * batched replay paths so every point of a batch derives its rates
 * exactly as a scalar replay would.
 */
void
fillRates(const RpuConfig &chip_cfg, const InterconnectConfig &net,
          const ShardedCompiled &sc, sim::ReplayRates &r)
{
    const std::size_t nchan = chip_cfg.channelCount();
    const std::size_t nres = sc.schedule.resourceCount();
    panicIf(nres != sc.shards * sc.perChip + sc.links,
            "sharded schedule resource count does not match config");
    // Pipes never carry bytes; 1.0 keeps their byte component defined.
    r.bytesPerSec.assign(nres, 1.0);
    for (std::size_t s = 0; s < sc.shards; ++s)
        for (std::size_t c = 0; c < nchan; ++c)
            r.bytesPerSec[s * sc.perChip + c] =
                chip_cfg.channelBytesPerSec(c);
    const double link_bps = gbps(net.linkGBps);
    for (std::size_t l = 0; l < sc.links; ++l)
        r.bytesPerSec[sc.shards * sc.perChip + l] = link_bps;
    r.workPerSec[kWorkArith] = chip_cfg.modopsPerSec();
    r.workPerSec[kWorkShuffle] = chip_cfg.shuffleElemsPerSec();
}

} // namespace

void
ShardedEngine::rates(const ShardedCompiled &sc,
                     sim::ReplayRates &r) const
{
    // The base tag identifies the layout of the *current* binding
    // (partition repatches re-stamp it), so these rates match exactly
    // this revision of the schedule.
    panicIf(sc.schedule.baseLayoutTag() !=
                shardedTag(RpuLayout::of(cfg), sc.shards,
                           net.topology),
            "sharded schedule layout does not match config");
    fillRates(cfg, net, sc, r);
}

double
ShardedEngine::replayRuntime(const ShardedCompiled &sc) const
{
    ReplayTls &tls = replayTls();
    rates(sc, tls.rates);
    return sc.schedule.replay(tls.rates, tls.scratch);
}

void
ShardedEngine::replayRuntimeMany(const ShardedCompiled &sc,
                                 const double *chip_bandwidths_gbps,
                                 std::size_t n, double *out) const
{
    if (n == 0)
        return;
    panicIf(sc.schedule.baseLayoutTag() !=
                shardedTag(RpuLayout::of(cfg), sc.shards,
                           net.topology),
            "sharded schedule layout does not match config");
    // Per-channel bandwidths override the aggregate knob, so a
    // *varying* bandwidth axis would be silently vacuous; a single
    // point simply replays the chip's configured (asymmetric) rates.
    panicIf(n > 1 && !cfg.channelGBps.empty(),
            "chip-bandwidth batch is vacuous under per-channel "
            "bandwidths (channelGBps overrides the aggregate)");
    ReplayTls &tls = replayTls();
    if (tls.batchRates.size() < n)
        tls.batchRates.resize(n);
    RpuConfig chip = cfg;
    for (std::size_t i = 0; i < n; ++i) {
        chip.bandwidthGBps = chip_bandwidths_gbps[i];
        fillRates(chip, net, sc, tls.batchRates[i]);
    }
    sc.schedule.replayMany(tls.batchRates.data(), n, tls.batchScratch);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tls.batchScratch.makespan[i];
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
