#include "fault/fault_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"

namespace ciflow::fault
{

const char *
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::ChipFail:
        return "chip-fail";
    case FaultKind::ChannelDegrade:
        return "channel-degrade";
    case FaultKind::LinkDegrade:
        return "link-degrade";
    case FaultKind::TransientStall:
        return "stall";
    }
    return "?";
}

void
FaultTrace::normalize()
{
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.atSec != b.atSec)
                             return a.atSec < b.atSec;
                         if (a.kind != b.kind)
                             return a.kind < b.kind;
                         if (a.shard != b.shard)
                             return a.shard < b.shard;
                         return a.channel < b.channel;
                     });
}

std::string
FaultTrace::serialize() const
{
    // Hex floats round-trip doubles exactly, so two traces serialize
    // to the same bytes iff they are the same trace to the bit.
    std::string out = "trace seed=" + std::to_string(seed) + " n=" +
                      std::to_string(events.size()) + "\n";
    char line[160];
    for (const FaultEvent &e : events) {
        std::snprintf(line, sizeof(line),
                      "%s at=%a shard=%u chan=%u factor=%a dur=%a\n",
                      faultKindName(e.kind), e.atSec, e.shard,
                      e.channel, e.factor, e.durSec);
        out += line;
    }
    return out;
}

sim::Error
checkTrace(const FaultTrace &t, const MachineShape &shape)
{
    const auto bad = [](std::size_t i, const std::string &what) {
        return sim::Error{sim::ErrorCode::BadFaultTrace,
                          "event " + std::to_string(i) + ": " + what};
    };
    for (std::size_t i = 0; i < t.events.size(); ++i) {
        const FaultEvent &e = t.events[i];
        if (!(std::isfinite(e.atSec) && e.atSec >= 0.0))
            return bad(i, "time " + std::to_string(e.atSec) +
                              " is not finite and non-negative");
        switch (e.kind) {
        case FaultKind::ChipFail:
            if (e.shard >= shape.shards)
                return bad(i, "chip-fail targets shard " +
                                  std::to_string(e.shard) + " of " +
                                  std::to_string(shape.shards));
            break;
        case FaultKind::ChannelDegrade:
            if (e.shard >= shape.shards)
                return bad(i, "degrade targets shard " +
                                  std::to_string(e.shard) + " of " +
                                  std::to_string(shape.shards));
            if (e.channel >= shape.channels)
                return bad(i, "degrade targets channel " +
                                  std::to_string(e.channel) + " of " +
                                  std::to_string(shape.channels));
            break;
        case FaultKind::LinkDegrade:
            if (e.channel >= shape.links)
                return bad(i, "degrade targets link " +
                                  std::to_string(e.channel) + " of " +
                                  std::to_string(shape.links));
            break;
        case FaultKind::TransientStall:
            if (e.shard >= shape.shards)
                return bad(i, "stall targets shard " +
                                  std::to_string(e.shard) + " of " +
                                  std::to_string(shape.shards));
            if (!(std::isfinite(e.durSec) && e.durSec > 0.0))
                return bad(i, "stall duration " +
                                  std::to_string(e.durSec) +
                                  " is not finite and positive");
            // Open-ended horizons admit events at arbitrarily large
            // times; a stall whose end overflows to +inf would silently
            // become a permanent degrade in the epoch fold.
            if (!std::isfinite(e.atSec + e.durSec))
                return bad(i, "stall end time overflows (atSec + "
                              "durSec is not finite)");
            break;
        }
        if (e.kind != FaultKind::ChipFail &&
            !(std::isfinite(e.factor) && e.factor > 0.0))
            return bad(i, "factor " + std::to_string(e.factor) +
                              " is not finite and positive");
    }
    return {};
}

namespace
{

/** Independent Rng for fault class `cls` of resource `res`. */
Rng
streamRng(std::uint64_t seed, unsigned cls, std::uint64_t res)
{
    return Rng(
        splitmix64(splitmix64(seed ^ (std::uint64_t{cls} << 56)) ^ res));
}

/** Exponential inter-arrival with mean `mtbf` (in (0, +inf)). */
double
expDraw(Rng &rng, double mtbf)
{
    // 53-bit uniform in [0, 1); log1p(-u) is finite for u < 1.
    const double u =
        static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    return -mtbf * std::log1p(-u);
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t i)
{
    return splitmix64(splitmix64(seed) ^ splitmix64(i + 1));
}

FaultTrace
sampleTrace(const FaultModel &model, const MachineShape &shape,
            std::uint64_t seed)
{
    FaultTrace t;
    t.seed = seed;
    const double horizon = model.horizonSec;

    if (model.chipFailMtbfSec > 0.0)
        for (std::uint32_t s = 0; s < shape.shards; ++s) {
            Rng rng = streamRng(seed, 0, s);
            const double at = expDraw(rng, model.chipFailMtbfSec);
            if (at < horizon) {
                FaultEvent e;
                e.atSec = at;
                e.kind = FaultKind::ChipFail;
                e.shard = s;
                t.events.push_back(e);
            }
        }

    if (model.channelDegradeMtbfSec > 0.0)
        for (std::uint32_t s = 0; s < shape.shards; ++s)
            for (std::uint32_t c = 0; c < shape.channels; ++c) {
                Rng rng = streamRng(
                    seed, 1,
                    std::uint64_t{s} * shape.channels + c);
                for (double at =
                         expDraw(rng, model.channelDegradeMtbfSec);
                     at < horizon;
                     at += expDraw(rng, model.channelDegradeMtbfSec)) {
                    FaultEvent e;
                    e.atSec = at;
                    e.kind = FaultKind::ChannelDegrade;
                    e.shard = s;
                    e.channel = c;
                    e.factor = model.degradeFactor;
                    t.events.push_back(e);
                }
            }

    if (model.linkDegradeMtbfSec > 0.0)
        for (std::uint32_t l = 0; l < shape.links; ++l) {
            Rng rng = streamRng(seed, 2, l);
            for (double at = expDraw(rng, model.linkDegradeMtbfSec);
                 at < horizon;
                 at += expDraw(rng, model.linkDegradeMtbfSec)) {
                FaultEvent e;
                e.atSec = at;
                e.kind = FaultKind::LinkDegrade;
                e.channel = l;
                e.factor = model.degradeFactor;
                t.events.push_back(e);
            }
        }

    if (model.stallMtbfSec > 0.0)
        for (std::uint32_t s = 0; s < shape.shards; ++s) {
            Rng rng = streamRng(seed, 3, s);
            for (double at = expDraw(rng, model.stallMtbfSec);
                 at < horizon; at += expDraw(rng, model.stallMtbfSec)) {
                FaultEvent e;
                e.atSec = at;
                e.kind = FaultKind::TransientStall;
                e.shard = s;
                e.factor = model.stallFactor;
                e.durSec = model.stallDurSec;
                t.events.push_back(e);
            }
        }

    t.normalize();
    return t;
}

} // namespace ciflow::fault
