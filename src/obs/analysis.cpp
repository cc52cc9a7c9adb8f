#include "obs/analysis.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.h"

namespace ciflow::obs
{

std::vector<ResourceUtilization>
resourceUtilization(const TraceBuffer &buf, std::size_t resourceCount)
{
    std::vector<ResourceUtilization> out(resourceCount);
    for (std::size_t r = 0; r < resourceCount; ++r)
        out[r].resource = static_cast<sim::ResourceId>(r);
    for (const TraceOp &rec : buf.ops) {
        panicIf(rec.resource >= resourceCount,
                "trace record targets an unknown resource");
        ResourceUtilization &u = out[rec.resource];
        u.busySeconds += rec.finish - rec.start;
        u.queueWaitSeconds += rec.start - rec.ready;
        ++u.jobs;
    }
    if (buf.makespan > 0.0)
        for (ResourceUtilization &u : out)
            u.busyFraction = u.busySeconds / buf.makespan;
    return out;
}

std::vector<TaskCost>
topBottlenecks(const TraceBuffer &buf, std::size_t k)
{
    // Records are task-major, so one forward pass folds each task's
    // ops into one TaskCost without a map.
    std::vector<TaskCost> costs;
    for (const TraceOp &rec : buf.ops) {
        if (costs.empty() || costs.back().task != rec.task)
            costs.push_back({rec.task, 0.0, 0.0, 0.0});
        TaskCost &c = costs.back();
        c.serviceSeconds += rec.finish - rec.start;
        c.queueWaitSeconds += rec.start - rec.ready;
        if (rec.visible > c.finish)
            c.finish = rec.visible;
    }
    const std::size_t n = std::min(k, costs.size());
    const auto heavier = [](const TaskCost &a, const TaskCost &b) {
        if (a.serviceSeconds != b.serviceSeconds)
            return a.serviceSeconds > b.serviceSeconds;
        return a.task < b.task;
    };
    std::partial_sort(costs.begin(), costs.begin() + n, costs.end(),
                      heavier);
    costs.resize(n);
    return costs;
}

CriticalPath
criticalPath(const sim::CompiledSchedule &cs, const TraceBuffer &buf)
{
    panicIf(buf.ops.empty(), "critical path of an empty trace");
    const sim::ScheduleView v = cs.view();
    const std::size_t nt = v.taskCount;
    constexpr std::size_t none = static_cast<std::size_t>(-1);
    const double inf = std::numeric_limits<double>::infinity();

    // Issue order means "previous record on my resource" is the op
    // whose finish my start can be tight against; one pass builds the
    // backward queue-edge index. The same pass folds per-task visible
    // times (the replay's s.finish[t]) and the record that defines
    // them, using the strictly-greater update of the recurrence so
    // ties resolve to the same op.
    std::vector<std::size_t> prevOnRes(buf.ops.size(), none);
    std::vector<std::size_t> lastOnRes(v.resourceCount, none);
    std::vector<double> taskVisible(nt, 0.0);
    std::vector<double> taskReady(nt, 0.0);
    std::vector<std::size_t> taskSinkRec(nt, none);
    for (std::size_t i = 0; i < buf.ops.size(); ++i) {
        const TraceOp &rec = buf.ops[i];
        prevOnRes[i] = lastOnRes[rec.resource];
        lastOnRes[rec.resource] = i;
        if (rec.visible > taskVisible[rec.task] ||
            taskSinkRec[rec.task] == none) {
            taskVisible[rec.task] = rec.visible;
            taskSinkRec[rec.task] = i;
        }
        taskReady[rec.task] = rec.ready;
    }

    // Backward walk from the makespan-defining op: at each record the
    // recurrence computed start = max(freeAt[res], ready), and both
    // inputs are in the trace — so exactly one of three holds: start
    // is 0 (source reached), start equals the previous op's finish on
    // the resource (queue edge), or start equals some dependency's
    // visible time (dependency edge). The equalities are exact because
    // every time here is the very double the recurrence produced.
    std::size_t cur = none;
    for (std::size_t i = 0; i < buf.ops.size(); ++i)
        if (buf.ops[i].visible == buf.makespan) {
            cur = i;
            break;
        }
    panicIf(cur == none, "no op defines the trace makespan");

    CriticalPath cp;
    bool viaResource = false;
    while (true) {
        const TraceOp &rec = buf.ops[cur];
        cp.steps.push_back({rec.task, rec.op, rec.resource, rec.start,
                            rec.finish, rec.visible, viaResource});
        if (rec.start == 0.0)
            break;
        const std::size_t prev = prevOnRes[cur];
        if (prev != none && buf.ops[prev].finish == rec.start) {
            cur = prev;
            viaResource = true;
            continue;
        }
        std::size_t next = none;
        for (std::uint32_t d = v.depOff[rec.task];
             d < v.depOff[rec.task + 1]; ++d) {
            const sim::TaskId dep = v.depIds[d];
            if (taskVisible[dep] == rec.start &&
                taskSinkRec[dep] != none) {
                next = taskSinkRec[dep];
                break;
            }
        }
        // Branch, not panicIf: the message must not be built per step.
        if (next == none)
            panic("no tight edge at op " + std::to_string(rec.op) +
                  " of task " + std::to_string(rec.task) + " (start " +
                  std::to_string(rec.start) + ")");
        cur = next;
        viaResource = false;
    }
    std::reverse(cp.steps.begin(), cp.steps.end());
    cp.length = cp.steps.back().visible;
    panicIf(cp.length != buf.makespan,
            "critical-path length diverged from the makespan");

    // CPM-style backward pass over the dependency CSR: latest[t] is
    // the finish time task t could slip to before some transitive
    // dependent would outrun the makespan, holding each task's
    // ready-to-visible lag (queue waits included) fixed. Tasks point
    // at earlier deps only, so one reverse sweep finalizes latest[t]
    // before propagating it.
    std::vector<double> latest(nt, buf.makespan);
    for (std::size_t t = nt; t-- > 0;) {
        const double cand = latest[t] - (taskVisible[t] - taskReady[t]);
        for (std::uint32_t d = v.depOff[t]; d < v.depOff[t + 1]; ++d) {
            const sim::TaskId dep = v.depIds[d];
            if (cand < latest[dep])
                latest[dep] = cand;
        }
    }
    cp.taskSlack.resize(nt, 0.0);
    for (std::size_t t = 0; t < nt; ++t)
        cp.taskSlack[t] = latest[t] - taskVisible[t];
    cp.resourceSlack.assign(v.resourceCount, inf);
    for (const TraceOp &rec : buf.ops)
        if (cp.taskSlack[rec.task] < cp.resourceSlack[rec.resource])
            cp.resourceSlack[rec.resource] = cp.taskSlack[rec.task];
    return cp;
}

} // namespace ciflow::obs
