/**
 * @file
 * GraphBuilder: turns a dataflow schedule into a TaskGraph under an
 * on-chip capacity constraint.
 *
 * The builder tracks named data objects (towers) in a model of the RPU's
 * vector data memory. Emitting a compute task makes its operands
 * resident (emitting MemLoad tasks for anything spilled to DRAM),
 * allocates its outputs, and spills least-recently-used unpinned objects
 * when capacity is exceeded — storing them only when dirty and still
 * live. Dataflow-specific knowledge enters through the *order* in which
 * tasks are emitted plus pin/discard hints, exactly the levers the paper
 * says distinguish MP/DC/OC ("These dataflows differ in their sequence
 * of instructions, reuse of loaded and computed data, intermediate data
 * generation, and off-chip memory interaction", §IV).
 *
 * The spill candidates (resident, unpinned objects that hold capacity)
 * sit in an intrusive list ordered by last use, so finding and spilling
 * the victim is O(1) however many objects the build has created or
 * pinned. Pinning or discarding unlinks in O(1); a released pin rejoins
 * at its last-use place, found by walking back from the newest end.
 *
 * Two modeling details:
 *  - evk data never occupies data-memory capacity: the RPU has a
 *    dedicated key memory; when streaming, evk loads still produce
 *    MemLoad tasks (tagged isEvk) that compete for DRAM bandwidth.
 *  - a small staging allowance (4 towers) above the configured capacity
 *    models the vector register file and queues, so a schedule's
 *    instantaneous workspace does not count against the SRAM budget.
 */

#ifndef CIFLOW_HKSFLOW_BUILDER_H
#define CIFLOW_HKSFLOW_BUILDER_H

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "hksflow/hks_params.h"
#include "hksflow/opmodel.h"
#include "hksflow/task.h"

namespace ciflow
{

/** Memory-system configuration for graph generation. */
struct MemoryConfig
{
    /** On-chip vector data memory in bytes (paper: 32 MiB). */
    std::uint64_t dataCapacityBytes = 32ull << 20;
    /** True: evks preloaded on-chip (392 MiB config); false: streamed. */
    bool evkOnChip = false;
    /**
     * Seeded key compression (§IV-D / MAD): the uniform halves of the
     * evk are regenerated on-chip from seeds, halving streamed key
     * traffic ("will further boost our AI to 3.82").
     */
    bool evkCompressed = false;
};

/** Handle to a data object tracked by the builder. */
using ObjId = std::uint32_t;

/**
 * A read-only run of object handles passed without a copy: a braced
 * list, a vector or a span. Only a parameter type: a braced list's
 * elements live until the end of the call it is written in (C++26's
 * std::span over an initializer list).
 */
class ObjList
{
  public:
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
    ObjList(std::initializer_list<ObjId> l) : first(l.begin()), n(l.size())
    {
    }
#pragma GCC diagnostic pop
    ObjList(const std::vector<ObjId> &v) : first(v.data()), n(v.size()) {}
    ObjList(std::span<const ObjId> s) : first(s.data()), n(s.size()) {}

    const ObjId *begin() const { return first; }
    const ObjId *end() const { return first + n; }

  private:
    const ObjId *first;
    std::size_t n;
};

/** Capacity-aware task-graph construction. */
class GraphBuilder
{
  public:
    GraphBuilder(const HksParams &par, const MemoryConfig &mem);

    /** New object that currently lives in DRAM (inputs). */
    ObjId newDramObject(std::uint64_t bytes);

    /** New object that will be produced on-chip (intermediates). */
    ObjId newObject(std::uint64_t bytes);

    /**
     * New transient object: pipeline-chained through the vector register
     * file, occupying no data-memory capacity (used for the fused OC
     * column chains).
     */
    ObjId newTransient();

    /** New evk tower object (key-memory resident or streamed). */
    ObjId newEvkObject(std::uint64_t bytes);

    /**
     * New evk tower that is *regenerated on-chip* from a seed (the
     * compressed uniform half): never loaded from DRAM.
     */
    ObjId newGeneratedEvkObject();

    /**
     * Emit a compute task. Operands are made resident (loads emitted as
     * needed); outputs are allocated. An object may appear in both lists
     * (in-place update / accumulator).
     */
    std::uint32_t emitCompute(StageId stage, OpCounts ops, ObjList operands,
                              ObjList outputs);

    /** Emit a final store of an object to DRAM (outputs of HKS). */
    std::uint32_t emitFinalStore(ObjId obj);

    /** Pin an object: it may not be evicted until unpinned. */
    void pin(ObjId obj);
    /**
     * Release a pin. The object rejoins the eviction order at its
     * last-use place: O(1) when it is the newest spill candidate, else
     * one step per candidate used after it.
     */
    void unpin(ObjId obj);

    /** Mark an object dead: it is unpinned and freed without a writeback. */
    void discard(ObjId obj);

    /** Bytes currently resident (excluding transients and evk). */
    std::uint64_t residentBytes() const { return used; }

    /** Peak resident bytes observed while building. */
    std::uint64_t peakResidentBytes() const { return peak; }

    /** Finish and return the graph (validates invariants). */
    TaskGraph take();

  private:
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
        /** Neighbours in the eviction order (kNone at either end). */
        ObjId older = kNone;
        ObjId newer = kNone;
    };

    static constexpr ObjId kNone = ~ObjId(0);

    /** Resident, unpinned and holding capacity: a spill candidate. */
    static bool
    evictable(const ObjState &o)
    {
        return o.resident && !o.pinned && !o.transient && !o.isEvk;
    }

    /** Add a spill candidate to the eviction order at its lastUse. */
    void link(ObjId obj);

    /** Remove a spill candidate from the eviction order. */
    void unlink(ObjId obj);

    /** Make obj resident; returns provider task id (or -1). */
    std::int64_t ensureResident(ObjId obj, bool for_write);

    /** Free capacity until `need` bytes fit; spills LRU unpinned. */
    void makeRoom(std::uint64_t need);

    /** Spill one object (writeback if dirty and live). */
    void evict(ObjId obj);

    HksParams par;
    MemoryConfig mem;
    std::uint64_t effectiveCapacity;
    std::uint64_t used = 0;
    std::uint64_t peak = 0;
    std::uint64_t useClock = 0;
    std::vector<ObjState> objs;
    /**
     * Ends of the eviction order: every spill candidate, oldest lastUse
     * first. Each touch takes a fresh clock value and every candidate
     * has been touched, so candidates' lastUse values are distinct and
     * the oldest is the object a least-recently-used scan would pick.
     */
    ObjId oldest = kNone;
    ObjId newest = kNone;
    /** emitCompute's scratch: the task's deps and its temporary pins. */
    std::vector<std::uint32_t> depScratch;
    std::vector<ObjId> pinScratch;
    TaskGraph graph;
};

} // namespace ciflow

#endif // CIFLOW_HKSFLOW_BUILDER_H
