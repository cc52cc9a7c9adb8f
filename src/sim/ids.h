/**
 * @file
 * The identifiers and the per-resource utilization record shared by
 * both simulation engines: the compiled replay (sim/compiled_schedule.h)
 * and the reference EventQueue (sim/event_queue.h). Kept apart so the
 * replay layers above them — the compiled schedule, obs traces and the
 * RPU engine's packaging — name a resource or a task without including
 * the reference engine.
 */

#ifndef CIFLOW_SIM_IDS_H
#define CIFLOW_SIM_IDS_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace ciflow::sim
{

/** Id of a resource, dense from zero in registration order. */
using ResourceId = std::uint32_t;

/** Id of a task, dense from zero in insertion order. */
using TaskId = std::uint32_t;

/** Utilization of one resource after a run. */
struct ResourceUse
{
    std::string name;
    double busySeconds = 0.0;
    std::size_t jobs = 0;
};

} // namespace ciflow::sim

#endif // CIFLOW_SIM_IDS_H
