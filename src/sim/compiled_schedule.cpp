#include "sim/compiled_schedule.h"

#include <cmath>

#include "common/logging.h"
#include "sim/replay_kernel.h"

namespace ciflow::sim
{

ResourceId
CompiledSchedule::addResource(std::string name)
{
    names.push_back(std::move(name));
    return static_cast<ResourceId>(names.size() - 1);
}

const std::string &
CompiledSchedule::resourceName(ResourceId id) const
{
    panicIf(id >= names.size(), "unknown resource id");
    return names[id];
}

void
CompiledSchedule::reserve(std::size_t tasks, std::size_t deps,
                          std::size_t ops)
{
    depOff.reserve(tasks + 1);
    depIds.reserve(deps);
    opOff.reserve(tasks + 1);
    opRes.reserve(ops);
    opBytes.reserve(ops);
    opWork0.reserve(ops);
    opWork1.reserve(ops);
    opSec.reserve(ops);
    opPost.reserve(ops);
}

TaskId
CompiledSchedule::addTask(const TaskId *deps, std::size_t ndeps,
                          const CompiledOp *ops_in, std::size_t nops)
{
    const TaskId id = static_cast<TaskId>(taskCount());
    // Branches, not panicIf: the checks run per op and per dep of every
    // compile, and panicIf would construct its message each time.
    if (nops == 0)
        panic("task with no ops");
    // Compile-time half of the replay watchdog: a cost numerator that
    // is negative or non-finite can only ever produce a garbage
    // duration, so reject it here where the lowering bug is, not at
    // the millionth replay where the NaN surfaces.
    const auto sane = [](double x) {
        return std::isfinite(x) && x >= 0.0;
    };
    for (std::size_t i = 0; i < nops; ++i) {
        const CompiledOp &op = ops_in[i];
        if (op.resource >= names.size())
            panic("op on unknown resource");
        if (!(sane(op.bytes) && sane(op.work[0]) && sane(op.work[1]) &&
              sane(op.seconds) && sane(op.postSeconds)))
            panic("op with a negative or non-finite cost numerator");
    }
    for (std::size_t i = 0; i < ndeps; ++i)
        if (deps[i] >= id)
            panic("forward dependency in sim task");
    depIds.insert(depIds.end(), deps, deps + ndeps);
    depOff.push_back(static_cast<std::uint32_t>(depIds.size()));
    for (std::size_t i = 0; i < nops; ++i) {
        const CompiledOp &op = ops_in[i];
        opRes.push_back(op.resource);
        opBytes.push_back(op.bytes);
        opWork0.push_back(op.work[0]);
        opWork1.push_back(op.work[1]);
        opSec.push_back(op.seconds);
        opPost.push_back(op.postSeconds);
    }
    opOff.push_back(static_cast<std::uint32_t>(opRes.size()));
    return id;
}

TaskId
CompiledSchedule::addTask(const std::vector<TaskId> &deps,
                          const std::vector<CompiledOp> &ops_in)
{
    return addTask(deps.data(), deps.size(), ops_in.data(),
                   ops_in.size());
}

void
CompiledSchedule::patchBegin(std::size_t resources)
{
    panicIf(resources == 0, "patch to zero resources");
    names.resize(resources);
}

void
CompiledSchedule::patchResourceName(ResourceId id, const char *name)
{
    panicIf(id >= names.size(), "patch name for unknown resource id");
    names[id] = name;
}

void
CompiledSchedule::patchCommit(std::uint64_t newBaseTag)
{
    // A single vectorizable max-scan instead of a per-op check keeps
    // commit cost negligible next to the rebind itself.
    ResourceId hi = 0;
    for (std::size_t i = 0; i < opRes.size(); ++i)
        hi = opRes[i] > hi ? opRes[i] : hi;
    panicIf(!opRes.empty() && hi >= names.size(),
            "patched op targets an unknown resource");
    tag = newBaseTag;
    ++rev;
}

ScheduleArrays
CompiledSchedule::bulkWrite(std::size_t tasks, std::size_t deps,
                            std::size_t ops)
{
    depOff.resize(tasks + 1);
    depIds.resize(deps);
    opOff.resize(tasks + 1);
    opRes.resize(ops);
    opBytes.resize(ops);
    opWork0.resize(ops);
    opWork1.resize(ops);
    opSec.resize(ops);
    opPost.resize(ops);
    return ScheduleArrays{depOff.data(),  depIds.data(),  opOff.data(),
                          opRes.data(),   opBytes.data(), opWork0.data(),
                          opWork1.data(), opSec.data(),   opPost.data()};
}

Error
CompiledSchedule::checkReplay(const ReplayRates &rates) const
{
    if (rates.bytesPerSec.size() != names.size())
        return {ErrorCode::RateMismatch,
                "replay rates cover a different resource count: rates "
                "have " +
                    std::to_string(rates.bytesPerSec.size()) +
                    " resources, schedule (layout tag " +
                    std::to_string(layoutTag()) + ") has " +
                    std::to_string(names.size())};
    // Run-time half of the replay watchdog. With every rate positive,
    // no divide in the replay recurrence can produce NaN (numerators
    // are validated non-negative at addTask, and the zero-numerator
    // skip means 0/0 never happens); the only degenerate outcome left
    // is overflow to +inf, which propagates to the makespan and is
    // caught by the post-replay finite check. A rate of +inf is
    // deliberately legal — it models a free resource (every payload
    // divides to exactly 0 seconds), which the degenerate-interconnect
    // tests rely on. NaN fails `> 0.0` like any other comparison.
    for (std::size_t k = 0; k < kWorkClasses; ++k) {
        const double w = rates.workPerSec[k];
        if (!(w > 0.0))
            return {ErrorCode::NonFiniteRate,
                    "work class " + std::to_string(k) + " rate is " +
                        std::to_string(w) +
                        "; rates must be positive (NaN, zero and "
                        "negative are rejected)"};
    }
    for (std::size_t r = 0; r < names.size(); ++r) {
        const double b = rates.bytesPerSec[r];
        if (!(b > 0.0))
            return {ErrorCode::NonFiniteRate,
                    "resource " + names[r] + " byte rate is " +
                        std::to_string(b) +
                        "; rates must be positive (NaN, zero and "
                        "negative are rejected)"};
    }
    return {};
}

Error
CompiledSchedule::checkEpochs(const RateEpochs &ep) const
{
    if (ep.off.empty()) {
        if (!ep.at.empty() || !ep.mult.empty())
            return {ErrorCode::BadFaultTrace,
                    "rate epochs carry times/multipliers but no "
                    "per-resource offset table"};
        return {};
    }
    if (ep.off.size() != names.size() + 1)
        return {ErrorCode::BadFaultTrace,
                "rate-epoch offsets cover " +
                    std::to_string(ep.off.size() - 1) +
                    " resources, schedule has " +
                    std::to_string(names.size())};
    if (ep.off.front() != 0 || ep.off.back() != ep.at.size() ||
        ep.at.size() != ep.mult.size())
        return {ErrorCode::BadFaultTrace,
                "rate-epoch offsets do not span the epoch arrays"};
    for (std::size_t r = 0; r < names.size(); ++r) {
        if (ep.off[r] > ep.off[r + 1])
            return {ErrorCode::BadFaultTrace,
                    "rate-epoch offsets are not monotone at resource " +
                        names[r]};
        for (std::uint32_t j = ep.off[r]; j < ep.off[r + 1]; ++j) {
            if (!(std::isfinite(ep.at[j]) && ep.at[j] >= 0.0))
                return {ErrorCode::BadFaultTrace,
                        "resource " + names[r] + " epoch at t=" +
                            std::to_string(ep.at[j]) +
                            " is not finite and non-negative"};
            if (j > ep.off[r] && ep.at[j] <= ep.at[j - 1])
                return {ErrorCode::BadFaultTrace,
                        "resource " + names[r] +
                            " epoch times are not strictly increasing"};
            if (!(std::isfinite(ep.mult[j]) && ep.mult[j] > 0.0))
                return {ErrorCode::BadFaultTrace,
                        "resource " + names[r] + " epoch multiplier " +
                            std::to_string(ep.mult[j]) +
                            " is not finite and positive"};
        }
    }
    return {};
}

void
CompiledSchedule::checkRates(const ReplayRates &rates) const
{
    if (Error e = checkReplay(rates))
        panic(e.message());
}

double
CompiledSchedule::replay(const ReplayRates &rates,
                         ReplayScratch &s) const
{
    checkRates(rates);
    const double makespan = detail::replayKernel(
        view(), rates, detail::ConstantRates{}, s, detail::NoRecord{});
    // With rates validated finite-positive and numerators validated at
    // addTask, the only way here is overflow to +inf — still garbage,
    // still reported deterministically.
    if (!std::isfinite(makespan))
        panic("replay produced a non-finite makespan: " +
              detail::nonFiniteOpReport(*this, rates,
                                        detail::ConstantRates{}));
    return makespan;
}

Error
CompiledSchedule::tryReplay(const ReplayRates &rates, ReplayScratch &s,
                            double &out) const
{
    if (Error e = checkReplay(rates))
        return e;
    const double makespan = detail::replayKernel(
        view(), rates, detail::ConstantRates{}, s, detail::NoRecord{});
    if (!std::isfinite(makespan))
        return {ErrorCode::NonFiniteDuration,
                "replay produced a non-finite makespan: " +
                    detail::nonFiniteOpReport(*this, rates,
                                              detail::ConstantRates{})};
    out = makespan;
    return {};
}

double
CompiledSchedule::replayPiecewise(const ReplayRates &rates,
                                  const RateEpochs &ep,
                                  const std::uint8_t *done,
                                  ReplayScratch &s) const
{
    // The zero-fault path must be *the* replay, not a twin of it: with
    // no epochs and no done mask there is nothing piecewise to do, so
    // delegate and inherit bit-identity by construction.
    if (ep.empty() && done == nullptr)
        return replay(rates, s);

    checkRates(rates);
    if (Error e = checkEpochs(ep))
        panic(e.message());
    const detail::PiecewiseRates mode{ep, done};
    const double makespan =
        detail::replayKernel(view(), rates, mode, s, detail::NoRecord{});
    if (!std::isfinite(makespan))
        panic("piecewise replay produced a non-finite makespan: " +
              detail::nonFiniteOpReport(*this, rates, mode));
    return makespan;
}

namespace
{

#if !defined(__GNUC__)
#error "replayMany's lane points need the GNU vector extensions (GCC or Clang)"
#endif

/**
 * Point type of a replayMany() block: kBatchLanes replay points side
 * by side over the lane-contiguous BatchScratch buffers, each time one
 * explicit vector value — kBatchLanes doubles wide, element-aligned
 * (the scratch buffers guarantee no more), allowed to alias the double
 * arrays it loads from. GCC/Clang lower it to the widest unit the
 * target has and split otherwise, so the lane math is guaranteed SIMD
 * while every element still sees the exact IEEE divide/max/add of the
 * scalar replay.
 */
struct LanePoints
{
    typedef double V
        __attribute__((vector_size(kBatchLanes * sizeof(double)),
                       aligned(8), may_alias));

    /** Row `i` of a lane-contiguous buffer: its kBatchLanes lanes. */
    static V &
    row(std::vector<double> &buf, std::size_t i)
    {
        return *reinterpret_cast<V *>(&buf[i * kBatchLanes]);
    }

    BatchScratch &s;
    V w0, w1;

    V &finish(std::size_t t) const { return row(s.finish, t); }
    V &freeAt(ResourceId r) const { return row(s.freeAt, r); }
    V &busy(ResourceId r) const { return row(s.busy, r); }
    V bytesRate(ResourceId r) const { return row(s.bps, r); }
};

/**
 * One full block of kBatchLanes point-lanes: the replay kernel's
 * recurrence (detail::replayBody) over LanePoints, so every lane is
 * bit-identical to its scalar replay. Per-ISA clones: the resolver
 * picks the widest vector unit the host has (AVX-512, AVX2, or
 * baseline SSE2) at load time. Every clone runs the identical IEEE
 * operations — ISA width changes how many lanes one instruction
 * covers, never a result bit. ThreadSanitizer builds keep the baseline
 * body only: the clones' ifunc resolver runs during relocation, before
 * the TSan runtime is up.
 */
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
[[gnu::target_clones("default", "avx2", "arch=x86-64-v4")]]
#endif
void
blockBodyFull(const ScheduleView &v, BatchScratch &s, double *makespans)
{
    const LanePoints pts{s, LanePoints::row(s.w0, 0),
                         LanePoints::row(s.w1, 0)};
    *reinterpret_cast<LanePoints::V *>(makespans) = detail::replayBody(
        v, pts, detail::ConstantRates{}, detail::NoRecord{});
}

} // namespace

void
CompiledSchedule::replayBlock(const ReplayRates *points,
                              std::size_t lanes, BatchScratch &s,
                              double *makespans) const
{
    const std::size_t nr = names.size();

    // Transpose the block's rates into lane-contiguous layout so the
    // per-op lane loops read them with unit stride. A tail block
    // (lanes < kBatchLanes) repeats its last point in the spare
    // lanes: a full-width block costs about one scalar replay, while
    // a narrower one would need a runtime-width lane loop costing
    // several. The spare lanes replay validated rates and their
    // makespans are dropped.
    for (std::size_t l = 0; l < lanes; ++l)
        checkRates(points[l]);
    for (std::size_t l = 0; l < kBatchLanes; ++l) {
        const ReplayRates &p = points[l < lanes ? l : lanes - 1];
        for (std::size_t r = 0; r < nr; ++r)
            s.bps[r * kBatchLanes + l] = p.bytesPerSec[r];
        s.w0[l] = p.workPerSec[0];
        s.w1[l] = p.workPerSec[1];
    }
    for (std::size_t i = 0; i < nr * kBatchLanes; ++i) {
        s.freeAt[i] = 0.0;
        s.busy[i] = 0.0;
    }
    for (std::size_t r = 0; r < nr; ++r)
        s.jobs[r] = 0;

    double block[kBatchLanes];
    blockBodyFull(view(), s, block);
    for (std::size_t l = 0; l < lanes; ++l)
        makespans[l] = block[l];
}

void
CompiledSchedule::replayMany(const ReplayRates *points, std::size_t n,
                             BatchScratch &s) const
{
    const std::size_t nt = taskCount();
    const std::size_t nr = names.size();
    if (s.makespan.size() < n)
        s.makespan.resize(n);
    if (s.finish.size() < nt * kBatchLanes)
        s.finish.resize(nt * kBatchLanes);
    if (s.freeAt.size() < nr * kBatchLanes) {
        s.freeAt.resize(nr * kBatchLanes);
        s.busy.resize(nr * kBatchLanes);
        s.bps.resize(nr * kBatchLanes);
    }
    if (s.jobs.size() < nr)
        s.jobs.resize(nr);
    if (s.w0.size() < kBatchLanes) {
        s.w0.resize(kBatchLanes);
        s.w1.resize(kBatchLanes);
    }
    for (std::size_t base = 0; base < n; base += kBatchLanes) {
        const std::size_t lanes =
            n - base < kBatchLanes ? n - base : kBatchLanes;
        replayBlock(points + base, lanes, s, s.makespan.data() + base);
    }
    // Watchdog: lanes are bit-identical to scalar replays, so a
    // non-finite lane is the same overflow replay() would panic on —
    // report it with the same rescan.
    for (std::size_t i = 0; i < n; ++i)
        if (!std::isfinite(s.makespan[i]))
            panic("replay produced a non-finite makespan at point " +
                  std::to_string(i) + ": " +
                  detail::nonFiniteOpReport(*this, points[i],
                                            detail::ConstantRates{}));
}

} // namespace ciflow::sim
