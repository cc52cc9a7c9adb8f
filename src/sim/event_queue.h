/**
 * @file
 * Generic multi-resource discrete-event simulation core.
 *
 * Generalizes the paper's two-queue software framework (§V-C): every
 * resource (DRAM channel, arithmetic pipe, shuffle pipe, ...) owns an
 * in-order queue of operations; the operation at the head of a queue
 * issues once all of its task's dependencies have resolved, and the
 * resources run concurrently so independent work is overlapped.
 *
 * A *task* is the unit of dependency: it fans out into one or more
 * *ops*, each bound to a resource with a precomputed duration. The task
 * is resolved — and its dependents may start — when all of its ops have
 * finished; its finish time is the max over op finish times. This lets
 * a split-pipe machine run one compute task's arithmetic and shuffle
 * halves on different resources while dependents wait for both.
 *
 * Deadlock freedom (the invariant engine.h documented for the two-queue
 * special case) is structural: tasks enqueue their ops in task order
 * and dependencies point to earlier tasks (`addTask` rejects forward
 * dependencies up front), so task order itself is a valid issue order
 * for every in-order queue. run() exploits this with a single O(V+E)
 * pass over tasks — no readiness re-scanning, no deadlock detection.
 *
 * The core computes a scheduling recurrence rather than stepping a
 * clock: issue order never affects task finish times, so the result is
 * deterministic and — for a single channel plus a single fused compute
 * pipe — bit-identical to the legacy two-queue loop it replaced
 * (asserted by tests/test_sim_core.cpp, and against the multi-pass
 * queue walk by tests/test_compiled_schedule.cpp).
 *
 * For simulate-many workloads (bandwidth sweeps, bisection), compile
 * the graph once into a sim::CompiledSchedule and replay it per point
 * instead of rebuilding an EventQueue (see compiled_schedule.h).
 */

#ifndef CIFLOW_SIM_EVENT_QUEUE_H
#define CIFLOW_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/ids.h"
#include "sim/resource.h"

namespace ciflow::sim
{

/** One unit of service: `duration` seconds on `resource`. */
struct SimOp
{
    ResourceId resource = 0;
    double duration = 0.0;
};

/** Outcome of one simulation run. */
struct SimResult
{
    /** Completion time of the last task. */
    double makespan = 0.0;
    /** Finish time of every task, indexed by TaskId. */
    std::vector<double> taskFinish;
    /** Utilization per resource, indexed by ResourceId. */
    std::vector<ResourceUse> resources;
};

/** The simulation core: pluggable resources, in-order queues. */
class EventQueue
{
  public:
    /** Register a plain resource (compute pipe); returns its id. */
    ResourceId addResource(std::string name);

    /** Register a bandwidth-serving channel; returns its id. */
    ResourceId addChannel(std::string name, double bytes_per_sec);

    Resource &resource(ResourceId id);
    const Resource &resource(ResourceId id) const;

    /** The Channel with id `id` (panics when not a channel). */
    const Channel &channel(ResourceId id) const;

    std::size_t resourceCount() const { return res.size(); }

    /**
     * Add a task consisting of `ops` (at least one), depending on the
     * earlier tasks `deps`. Panics on forward/self dependencies, empty
     * ops, or an unknown resource id.
     */
    TaskId addTask(const std::vector<TaskId> &deps,
                   const std::vector<SimOp> &ops);

    std::size_t taskCount() const { return tasks.size(); }

    /** Simulate all tasks; reusable (state is reset on entry). */
    SimResult run();

  private:
    struct TaskRec
    {
        std::vector<TaskId> deps;
        std::vector<SimOp> ops;
    };

    std::vector<std::unique_ptr<Resource>> res;
    std::vector<TaskRec> tasks;
};

} // namespace ciflow::sim

#endif // CIFLOW_SIM_EVENT_QUEUE_H
