#include "hksflow/builder.h"

#include <algorithm>

#include "common/logging.h"

// The checks here are branches, not panicIf/fatalIf: they pass on every
// build, and panicIf would construct its message each time.

namespace ciflow
{

GraphBuilder::GraphBuilder(const HksParams &par_, const MemoryConfig &mem_)
    : par(par_), mem(mem_)
{
    // Staging allowance: the vector register file and decoupling queues
    // hold in-flight workspace that does not live in the data SRAM.
    effectiveCapacity = mem.dataCapacityBytes + 4 * par.towerBytes();
}

ObjId
GraphBuilder::newDramObject(std::uint64_t bytes)
{
    ObjState s;
    s.bytes = bytes;
    s.hasDramCopy = true;
    objs.push_back(s);
    return static_cast<ObjId>(objs.size() - 1);
}

ObjId
GraphBuilder::newObject(std::uint64_t bytes)
{
    ObjState s;
    s.bytes = bytes;
    objs.push_back(s);
    return static_cast<ObjId>(objs.size() - 1);
}

ObjId
GraphBuilder::newTransient()
{
    ObjState s;
    s.transient = true;
    objs.push_back(s);
    return static_cast<ObjId>(objs.size() - 1);
}

ObjId
GraphBuilder::newEvkObject(std::uint64_t bytes)
{
    ObjState s;
    s.bytes = bytes;
    s.isEvk = true;
    s.hasDramCopy = true;
    s.resident = mem.evkOnChip; // preloaded keys cost no DRAM traffic
    objs.push_back(s);
    return static_cast<ObjId>(objs.size() - 1);
}

ObjId
GraphBuilder::newGeneratedEvkObject()
{
    ObjState s;
    s.isEvk = true;
    s.resident = true; // expanded from a seed by the key unit
    objs.push_back(s);
    return static_cast<ObjId>(objs.size() - 1);
}

void
GraphBuilder::link(ObjId id)
{
    ObjState &o = objs[id];
    ObjId prev = newest;
    while (prev != kNone && objs[prev].lastUse > o.lastUse)
        prev = objs[prev].older;
    o.older = prev;
    o.newer = prev == kNone ? oldest : objs[prev].newer;
    (o.older == kNone ? oldest : objs[o.older].newer) = id;
    (o.newer == kNone ? newest : objs[o.newer].older) = id;
}

void
GraphBuilder::unlink(ObjId id)
{
    ObjState &o = objs[id];
    (o.older == kNone ? oldest : objs[o.older].newer) = o.newer;
    (o.newer == kNone ? newest : objs[o.newer].older) = o.older;
    o.older = o.newer = kNone;
}

void
GraphBuilder::evict(ObjId id)
{
    ObjState &o = objs[id];
    if (!evictable(o))
        panic("evicting an unevictable object");
    unlink(id);
    if (o.dirty && !o.dead) {
        Task st;
        st.kind = TaskKind::MemStore;
        st.stage = StageId::DataMove;
        st.bytes = o.bytes;
        if (o.provider >= 0)
            st.deps.push_back(static_cast<std::uint32_t>(o.provider));
        o.lastStore = graph.push(std::move(st));
        o.hasDramCopy = true;
        o.dirty = false;
    }
    o.resident = false;
    used -= o.bytes;
}

void
GraphBuilder::makeRoom(std::uint64_t need)
{
    while (used + need > effectiveCapacity) {
        if (oldest == kNone)
            fatal("on-chip data memory too small for this schedule: "
                  "increase capacity or choose another dataflow");
        evict(oldest);
    }
}

std::int64_t
GraphBuilder::ensureResident(ObjId id, bool for_write)
{
    ObjState &o = objs[id];
    if (o.dead)
        panic("touching a discarded object");
    // emitCompute pinned the object (or it is a transient or an evk
    // tower), so it is not in the eviction order and the touch moves
    // nothing there.
    o.lastUse = ++useClock;
    if (o.resident || o.transient) {
        if (o.transient && !for_write && o.provider < 0)
            panic("reading unproduced transient");
        return o.provider;
    }
    if (!o.hasDramCopy) {
        // First production of an on-chip object.
        if (!for_write)
            panic("reading an object that was never produced");
        if (!o.isEvk) {
            makeRoom(o.bytes);
            used += o.bytes;
            peak = std::max(peak, used);
        }
        o.resident = true;
        return o.provider;
    }
    // Load from DRAM.
    if (!o.isEvk) {
        makeRoom(o.bytes);
        used += o.bytes;
        peak = std::max(peak, used);
    }
    Task ld;
    ld.kind = TaskKind::MemLoad;
    ld.stage = StageId::DataMove;
    ld.bytes = o.bytes;
    ld.isEvk = o.isEvk;
    if (o.lastStore >= 0)
        ld.deps.push_back(static_cast<std::uint32_t>(o.lastStore));
    std::uint32_t t = graph.push(std::move(ld));
    o.resident = true;
    o.dirty = false;
    o.provider = t;
    return t;
}

std::uint32_t
GraphBuilder::emitCompute(StageId stage, OpCounts ops, ObjList operands,
                          ObjList outputs)
{
    // Pin everything involved so residency survives sibling loads.
    pinScratch.clear();
    auto pin_temp = [&](ObjId id) {
        ObjState &o = objs[id];
        if (!o.pinned && !o.transient && !o.isEvk) {
            if (o.resident)
                unlink(id);
            o.pinned = true;
            pinScratch.push_back(id);
        }
    };

    depScratch.clear();
    auto add_dep = [&](std::int64_t d) {
        if (d >= 0)
            depScratch.push_back(static_cast<std::uint32_t>(d));
    };

    for (ObjId id : operands)
        pin_temp(id);
    for (ObjId id : outputs)
        pin_temp(id);

    for (ObjId id : operands)
        add_dep(ensureResident(id, false));
    for (ObjId id : outputs) {
        bool in_place =
            std::find(operands.begin(), operands.end(), id) !=
            operands.end();
        add_dep(ensureResident(id, !in_place ? true : false));
    }

    std::sort(depScratch.begin(), depScratch.end());
    depScratch.erase(std::unique(depScratch.begin(), depScratch.end()),
                     depScratch.end());

    Task t;
    t.kind = TaskKind::Compute;
    t.stage = stage;
    t.modOps = ops.modOps;
    t.shuffleOps = ops.shuffleOps;
    t.deps.assign(depScratch.begin(), depScratch.end());
    std::uint32_t id = graph.push(std::move(t));

    for (ObjId o : outputs) {
        objs[o].provider = id;
        objs[o].dirty = true;
        objs[o].lastUse = ++useClock;
    }
    // Every object this call touched is pinned, transient or evk, so
    // the released ones are the newest candidates: each relinks at the
    // newest end, stepping back at most over those released before it.
    for (ObjId o : pinScratch)
        unpin(o);
    return id;
}

std::uint32_t
GraphBuilder::emitFinalStore(ObjId id)
{
    ObjState &o = objs[id];
    if (!o.resident && !o.transient)
        panic("final store of spilled object");
    Task st;
    st.kind = TaskKind::MemStore;
    st.stage = StageId::DataMove;
    st.bytes = o.bytes ? o.bytes : par.towerBytes();
    if (o.provider >= 0)
        st.deps.push_back(static_cast<std::uint32_t>(o.provider));
    std::uint32_t t = graph.push(std::move(st));
    o.lastStore = t;
    o.hasDramCopy = true;
    o.dirty = false;
    return t;
}

void
GraphBuilder::pin(ObjId id)
{
    ObjState &o = objs[id];
    if (!o.resident && !o.transient)
        panic("pinning a non-resident object");
    if (evictable(o))
        unlink(id);
    o.pinned = true;
}

void
GraphBuilder::unpin(ObjId id)
{
    ObjState &o = objs[id];
    if (!o.pinned)
        return;
    o.pinned = false;
    if (evictable(o))
        link(id);
}

void
GraphBuilder::discard(ObjId id)
{
    ObjState &o = objs[id];
    if (o.dead)
        return;
    if (evictable(o))
        unlink(id);
    o.dead = true;
    o.pinned = false;
    if (o.resident && !o.transient && !o.isEvk) {
        o.resident = false;
        used -= o.bytes;
    }
}

TaskGraph
GraphBuilder::take()
{
    graph.validate();
    return std::move(graph);
}

} // namespace ciflow
