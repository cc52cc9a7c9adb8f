/**
 * @file
 * Test-side reference for GraphBuilder: the capacity-aware builder as
 * the library carried it before its eviction order, when makeRoom
 * scanned every object ever created for the least recently used spill
 * candidate, once per eviction.
 *
 * The code is copied verbatim. Only the namespace, the inline linkage,
 * the class being a plain struct with the private members public and
 * emitCompute taking vectors (the operand lists of the time) differ.
 * The library's builder must emit the same graph, task for task, for
 * every sequence of calls.
 */

#ifndef CIFLOW_TESTS_LEGACY_BUILDER_H
#define CIFLOW_TESTS_LEGACY_BUILDER_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "hksflow/builder.h"

namespace ciflow::legacy
{

/** Capacity-aware task-graph construction with a full-scan LRU. */
struct GraphBuilder
{
    struct ObjState
    {
        std::uint64_t bytes = 0;
        bool resident = false;
        bool dirty = false;
        bool hasDramCopy = false;
        bool pinned = false;
        bool dead = false;
        bool transient = false;
        bool isEvk = false;
        std::uint64_t lastUse = 0;
        std::int64_t provider = -1;  // task that produced/loaded it
        std::int64_t lastStore = -1; // most recent writeback task
    };

    HksParams par;
    MemoryConfig mem;
    std::uint64_t effectiveCapacity;
    std::uint64_t used = 0;
    std::uint64_t peak = 0;
    std::uint64_t useClock = 0;
    std::vector<ObjState> objs;
    TaskGraph graph;

    GraphBuilder(const HksParams &par_, const MemoryConfig &mem_)
        : par(par_), mem(mem_)
    {
        // Staging allowance: the vector register file and decoupling
        // queues hold in-flight workspace that does not live in the
        // data SRAM.
        effectiveCapacity = mem.dataCapacityBytes + 4 * par.towerBytes();
    }

    ObjId
    newDramObject(std::uint64_t bytes)
    {
        ObjState s;
        s.bytes = bytes;
        s.hasDramCopy = true;
        objs.push_back(s);
        return static_cast<ObjId>(objs.size() - 1);
    }

    ObjId
    newObject(std::uint64_t bytes)
    {
        ObjState s;
        s.bytes = bytes;
        objs.push_back(s);
        return static_cast<ObjId>(objs.size() - 1);
    }

    ObjId
    newTransient()
    {
        ObjState s;
        s.transient = true;
        objs.push_back(s);
        return static_cast<ObjId>(objs.size() - 1);
    }

    ObjId
    newEvkObject(std::uint64_t bytes)
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
    newGeneratedEvkObject()
    {
        ObjState s;
        s.isEvk = true;
        s.resident = true; // expanded from a seed by the key unit
        objs.push_back(s);
        return static_cast<ObjId>(objs.size() - 1);
    }

    void
    evict(ObjId id)
    {
        ObjState &o = objs[id];
        panicIf(!o.resident || o.pinned || o.transient || o.isEvk,
                "evicting an unevictable object");
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
    makeRoom(std::uint64_t need)
    {
        while (used + need > effectiveCapacity) {
            // Pick the least-recently-used evictable object.
            std::int64_t victim = -1;
            std::uint64_t best = ~0ull;
            for (std::size_t i = 0; i < objs.size(); ++i) {
                const ObjState &o = objs[i];
                if (o.resident && !o.pinned && !o.transient && !o.isEvk &&
                    o.lastUse < best) {
                    best = o.lastUse;
                    victim = static_cast<std::int64_t>(i);
                }
            }
            fatalIf(victim < 0,
                    "on-chip data memory too small for this schedule: "
                    "increase capacity or choose another dataflow");
            evict(static_cast<ObjId>(victim));
        }
    }

    std::int64_t
    ensureResident(ObjId id, bool for_write)
    {
        ObjState &o = objs[id];
        panicIf(o.dead, "touching a discarded object");
        o.lastUse = ++useClock;
        if (o.resident || o.transient) {
            if (o.transient && !for_write)
                panicIf(o.provider < 0, "reading unproduced transient");
            return o.provider;
        }
        if (!o.hasDramCopy) {
            // First production of an on-chip object.
            panicIf(!for_write, "reading an object that was never produced");
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
    emitCompute(StageId stage, OpCounts ops,
                const std::vector<ObjId> &operands,
                const std::vector<ObjId> &outputs)
    {
        // Pin everything involved so residency survives sibling loads.
        std::vector<ObjId> temp_pinned;
        auto pin_temp = [&](ObjId id) {
            if (!objs[id].pinned && !objs[id].transient &&
                !objs[id].isEvk) {
                objs[id].pinned = true;
                temp_pinned.push_back(id);
            }
        };

        std::vector<std::uint32_t> deps;
        auto add_dep = [&](std::int64_t d) {
            if (d >= 0)
                deps.push_back(static_cast<std::uint32_t>(d));
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

        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());

        Task t;
        t.kind = TaskKind::Compute;
        t.stage = stage;
        t.modOps = ops.modOps;
        t.shuffleOps = ops.shuffleOps;
        t.deps = std::move(deps);
        std::uint32_t id = graph.push(std::move(t));

        for (ObjId o : outputs) {
            objs[o].provider = id;
            objs[o].dirty = true;
            objs[o].lastUse = ++useClock;
        }
        for (ObjId o : temp_pinned)
            objs[o].pinned = false;
        return id;
    }

    std::uint32_t
    emitFinalStore(ObjId id)
    {
        ObjState &o = objs[id];
        panicIf(!o.resident && !o.transient,
                "final store of spilled object");
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
    pin(ObjId id)
    {
        panicIf(!objs[id].resident && !objs[id].transient,
                "pinning a non-resident object");
        objs[id].pinned = true;
    }

    void
    unpin(ObjId id)
    {
        objs[id].pinned = false;
    }

    void
    discard(ObjId id)
    {
        ObjState &o = objs[id];
        if (o.dead)
            return;
        o.dead = true;
        o.pinned = false;
        if (o.resident && !o.transient && !o.isEvk) {
            o.resident = false;
            used -= o.bytes;
        }
    }

    std::uint64_t residentBytes() const { return used; }
    std::uint64_t peakResidentBytes() const { return peak; }

    TaskGraph
    take()
    {
        graph.validate();
        return std::move(graph);
    }
};

} // namespace ciflow::legacy

#endif // CIFLOW_TESTS_LEGACY_BUILDER_H
