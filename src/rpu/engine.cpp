#include "rpu/engine.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "sim/event_queue.h"

namespace ciflow
{

namespace
{

/**
 * Per-thread replay buffers: rates and scratch are reused across every
 * replay on this thread, so repeated simulates (sweeps, bisection)
 * allocate nothing once warm — including on ExperimentRunner workers,
 * which each get their own instance.
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

} // namespace

ChannelPlacer::ChannelPlacer(ChannelPolicy policy, std::size_t channels)
    : pol(policy), nchan(channels > 0 ? channels : 1),
      dedicateEvk(policy == ChannelPolicy::EvkDedicated && nchan >= 2),
      dataChans(dedicateEvk ? nchan - 1 : nchan)
{
    if (pol == ChannelPolicy::LeastLoaded)
        bytesAssigned.assign(nchan, 0);
}

std::size_t
ChannelPlacer::place(const Task &t)
{
    return place(t.bytes, t.isEvk);
}

double
RpuEngine::arithTaskSeconds(const Task &t) const
{
    return static_cast<double>(t.modOps) / cfg.modopsPerSec();
}

double
RpuEngine::shuffleTaskSeconds(const Task &t, const CodeGen &cg) const
{
    InstrCounts ic = cg.forComputeTask(t);
    // The shuffle crossbar moves one element per lane per cycle.
    const double shuf_elems = static_cast<double>(ic.shuffle) *
                              static_cast<double>(cg.vectorLen());
    return shuf_elems / cfg.shuffleElemsPerSec();
}

double
RpuEngine::computeTaskSeconds(const Task &t, const CodeGen &cg) const
{
    // Arithmetic pipe time follows the modular-op count (the paper's
    // MODOPS metric); the shuffle crossbar overlaps on the fused pipe,
    // so a task costs the slower of the two.
    return std::max(arithTaskSeconds(t), shuffleTaskSeconds(t, cg));
}

double
RpuEngine::memTaskSeconds(const Task &t) const
{
    return static_cast<double>(t.bytes) / cfg.channelBytesPerSec();
}

void
RpuEngine::lowerTask(const Task &t, const CodeGen &cg,
                     ChannelPlacer &placer, sim::ResourceId base,
                     std::vector<sim::CompiledOp> &ops) const
{
    const std::size_t nchan = cfg.channelCount();
    if (t.kind == TaskKind::Compute) {
        const InstrCounts ic = cg.forComputeTask(t);
        const double shuf_elems = static_cast<double>(ic.shuffle) *
                                  static_cast<double>(cg.vectorLen());
        const sim::ResourceId pipe0 =
            base + static_cast<sim::ResourceId>(nchan);
        if (cfg.splitComputePipes) {
            sim::CompiledOp a;
            a.resource = pipe0;
            a.work[kWorkArith] = static_cast<double>(t.modOps);
            ops.push_back(a);
            if (t.shuffleOps > 0) {
                sim::CompiledOp s;
                s.resource = pipe0 + 1;
                s.work[kWorkShuffle] = shuf_elems;
                ops.push_back(s);
            }
        } else {
            // The fused pipe costs the slower half; replay's
            // component max reproduces computeTaskSeconds exactly.
            sim::CompiledOp o;
            o.resource = pipe0;
            o.work[kWorkArith] = static_cast<double>(t.modOps);
            o.work[kWorkShuffle] = shuf_elems;
            ops.push_back(o);
        }
    } else {
        sim::CompiledOp o;
        o.resource =
            base + static_cast<sim::ResourceId>(placer.place(t));
        o.bytes = static_cast<double>(t.bytes);
        ops.push_back(o);
    }
}

sim::CompiledSchedule
RpuEngine::compile(const TaskGraph &g) const
{
    g.validate();

    CodeGen cg(cfg.vectorLen);
    sim::CompiledSchedule cs;

    // Channels are registered first, so their ResourceIds are 0..N-1.
    const std::size_t nchan = cfg.channelCount();
    for (std::size_t c = 0; c < nchan; ++c)
        cs.addResource("dram" + std::to_string(c));
    if (cfg.splitComputePipes) {
        cs.addResource("arith");
        cs.addResource("shuffle");
    } else {
        cs.addResource("compute");
    }

    // Exact totals up front so the CSR build never reallocates: one op
    // per task, plus one extra for split-pipe compute tasks that carry
    // a shuffle half.
    std::size_t ndeps = 0, nops = 0;
    for (const Task &t : g.tasks()) {
        ndeps += t.deps.size();
        nops += 1;
        if (cfg.splitComputePipes && t.kind == TaskKind::Compute &&
            t.shuffleOps > 0)
            nops += 1;
    }
    cs.reserve(g.size(), ndeps, nops);

    ChannelPlacer placer(cfg.channelPolicy, nchan);
    std::vector<sim::CompiledOp> ops;
    for (const Task &t : g.tasks()) {
        ops.clear();
        lowerTask(t, cg, placer, 0, ops);
        cs.addTask(t.deps.data(), t.deps.size(), ops.data(),
                   ops.size());
    }
    cs.setLayoutTag(RpuLayout::of(cfg).tag());
    return cs;
}

void
RpuEngine::rates(const sim::CompiledSchedule &cs,
                 sim::ReplayRates &r) const
{
    const std::size_t nchan = cfg.channelCount();
    // The tag names the layout the schedule was compiled for, so
    // rates built here are valid for exactly that layout.
    panicIf(cs.layoutTag() != RpuLayout::of(cfg).tag(),
            "compiled schedule layout does not match config");
    panicIf(cs.resourceCount() != nchan + cfg.computePipeCount(),
            "compiled schedule resource count does not match config");
    // Pipes never carry bytes; 1.0 keeps their (zero) byte component
    // well defined.
    r.bytesPerSec.assign(cs.resourceCount(), 1.0);
    for (std::size_t c = 0; c < nchan; ++c)
        r.bytesPerSec[c] = cfg.channelBytesPerSec(c);
    r.workPerSec[kWorkArith] = cfg.modopsPerSec();
    r.workPerSec[kWorkShuffle] = cfg.shuffleElemsPerSec();
}

double
RpuEngine::replayRuntime(const sim::CompiledSchedule &cs) const
{
    ReplayTls &tls = replayTls();
    rates(cs, tls.rates);
    return cs.replay(tls.rates, tls.scratch);
}

SimStats
RpuEngine::replay(const sim::CompiledSchedule &cs,
                  const TaskGraph &g) const
{
    ReplayTls &tls = replayTls();
    rates(cs, tls.rates);
    const double makespan = cs.replay(tls.rates, tls.scratch);

    const std::size_t nchan = cfg.channelCount();
    const std::size_t nres = cs.resourceCount();
    SimStats s;
    s.runtime = makespan;
    s.memChannels = nchan;
    s.computePipes = cfg.computePipeCount();
    for (std::size_t c = 0; c < nchan; ++c)
        s.memBusy += tls.scratch.busy[c];
    for (std::size_t p = nchan; p < nres; ++p)
        s.compBusy += tls.scratch.busy[p];
    s.trafficBytes = g.trafficBytes();
    s.modOps = g.totalModOps();
    s.resources.reserve(nres);
    for (std::size_t r = 0; r < nres; ++r)
        s.resources.push_back({cs.resourceName(
                                   static_cast<sim::ResourceId>(r)),
                               tls.scratch.busy[r],
                               tls.scratch.jobs[r]});
    return s;
}

SimStats
RpuEngine::run(const TaskGraph &g) const
{
    return replay(compile(g), g);
}

SimStats
RpuEngine::runRebuild(const TaskGraph &g) const
{
    g.validate();

    CodeGen cg(cfg.vectorLen);
    sim::EventQueue eq;

    // Channels are registered first, so their ResourceIds are 0..N-1.
    const std::size_t nchan = cfg.channelCount();
    // Per-channel rates are hoisted out of the loop: equal for the
    // symmetric split, distinct under a channelGBps override.
    std::vector<double> chan_bps(nchan);
    for (std::size_t c = 0; c < nchan; ++c) {
        chan_bps[c] = cfg.channelBytesPerSec(c);
        eq.addChannel("dram" + std::to_string(c), chan_bps[c]);
    }

    sim::ResourceId comp = 0, arith = 0, shuf = 0;
    if (cfg.splitComputePipes) {
        arith = eq.addResource("arith");
        shuf = eq.addResource("shuffle");
    } else {
        comp = eq.addResource("compute");
    }

    ChannelPlacer placer(cfg.channelPolicy, nchan);
    std::vector<sim::SimOp> ops;
    for (const Task &t : g.tasks()) {
        ops.clear();
        if (t.kind == TaskKind::Compute) {
            if (cfg.splitComputePipes) {
                ops.push_back({arith, arithTaskSeconds(t)});
                if (t.shuffleOps > 0)
                    ops.push_back({shuf, shuffleTaskSeconds(t, cg)});
            } else {
                ops.push_back({comp, computeTaskSeconds(t, cg)});
            }
        } else {
            const std::size_t chan = placer.place(t);
            ops.push_back({static_cast<sim::ResourceId>(chan),
                           static_cast<double>(t.bytes) /
                               chan_bps[chan]});
        }
        eq.addTask(t.deps, ops);
    }

    sim::SimResult r = eq.run();

    SimStats s;
    s.runtime = r.makespan;
    s.memChannels = nchan;
    s.computePipes = cfg.computePipeCount();
    for (std::size_t c = 0; c < nchan; ++c)
        s.memBusy += r.resources[c].busySeconds;
    for (std::size_t p = nchan; p < r.resources.size(); ++p)
        s.compBusy += r.resources[p].busySeconds;
    s.trafficBytes = g.trafficBytes();
    s.modOps = g.totalModOps();
    s.resources = std::move(r.resources);
    return s;
}

} // namespace ciflow
