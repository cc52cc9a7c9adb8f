#include "obs/traced_replay.h"

#include <cmath>
#include <string>

#include "common/logging.h"
#include "sim/replay_kernel.h"

namespace ciflow::obs
{

namespace
{

/** Kernel recorder appending one TraceOp per executed op. */
struct TraceRecorder
{
    TraceBuffer &buf;
    const double *bytes;

    void
    operator()(sim::TaskId t, std::uint32_t i, sim::ResourceId res,
               std::uint32_t epoch, double ready, double start,
               double fin, double vis)
    {
        buf.ops.push_back({t, i, res, epoch, ready, start, fin, vis,
                           bytes[i]});
    }
};

/**
 * The kernel in rate mode `mode` with trace recording, plus the
 * overflow watchdog; `what` names the replay in its panic.
 */
template <class Rates>
double
tracedReplay(const sim::CompiledSchedule &cs,
             const sim::ReplayRates &rates, const Rates &mode,
             sim::ReplayScratch &s, TraceBuffer &buf, const char *what)
{
    const sim::ScheduleView v = cs.view();
    buf.reset(v.opCount);
    buf.makespan = sim::detail::replayKernel(v, rates, mode, s,
                                             TraceRecorder{buf, v.opBytes});
    if (!std::isfinite(buf.makespan))
        panic(std::string(what) + " produced a non-finite makespan: " +
              sim::detail::nonFiniteOpReport(cs, rates, mode));
    return buf.makespan;
}

} // namespace

double
replayTraced(const sim::CompiledSchedule &cs,
             const sim::ReplayRates &rates, sim::ReplayScratch &s,
             TraceBuffer &buf)
{
    if (sim::Error e = cs.checkReplay(rates))
        panic(e.message());
    return tracedReplay(cs, rates, sim::detail::ConstantRates{}, s, buf,
                        "traced replay");
}

double
replayPiecewiseTraced(const sim::CompiledSchedule &cs,
                      const sim::ReplayRates &rates,
                      const sim::RateEpochs &ep,
                      const std::uint8_t *done, sim::ReplayScratch &s,
                      TraceBuffer &buf)
{
    // Mirror replayPiecewise's zero-fault delegation so the trivial
    // case inherits bit-identity (and trace shape) from replayTraced.
    if (ep.empty() && done == nullptr)
        return replayTraced(cs, rates, s, buf);

    if (sim::Error e = cs.checkReplay(rates))
        panic(e.message());
    if (sim::Error e = cs.checkEpochs(ep))
        panic(e.message());
    return tracedReplay(cs, rates, sim::detail::PiecewiseRates{ep, done},
                        s, buf, "traced piecewise replay");
}

} // namespace ciflow::obs
