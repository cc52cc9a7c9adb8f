#include "hksflow/hks_params.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace ciflow
{

std::size_t
HksParams::digitTowers(std::size_t j) const
{
    // A branch, not panicIf: graph build calls this per tower, and
    // panicIf would construct its message each time.
    if (j >= dnum)
        panic("digit index out of range");
    std::size_t first = j * alpha;
    return std::min(alpha, kl - first);
}

std::uint64_t
HksParams::evkBytes() const
{
    return std::uint64_t(dnum) * 2 * extTowers() * towerBytes();
}

std::uint64_t
HksParams::tempBytes() const
{
    // INTT outputs (kl towers) + extended polys (dnum * (kl+kp)) +
    // per-digit key products (2 * dnum * (kl+kp)); matches Table III.
    std::uint64_t towers = kl + 3 * std::uint64_t(dnum) * extTowers();
    return towers * towerBytes();
}

std::uint64_t
HksParams::inputBytes() const
{
    return std::uint64_t(kl) * towerBytes();
}

std::uint64_t
HksParams::outputBytes() const
{
    return 2 * inputBytes();
}

std::string
HksParams::describe() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s: N=2^%zu kl=%zu kp=%zu dnum=%zu alpha=%zu "
                  "evk=%.0fMiB temp=%.0fMiB",
                  name.c_str(), logN, kl, kp, dnum, alpha,
                  evkBytes() / (1024.0 * 1024.0),
                  tempBytes() / (1024.0 * 1024.0));
    return buf;
}

const std::vector<HksParams> &
paperBenchmarks()
{
    static const std::vector<HksParams> kBench = {
        {"BTS1", 17, 28, 28, 1, 28},
        {"BTS2", 17, 40, 20, 2, 20},
        {"BTS3", 17, 45, 15, 3, 15},
        {"ARK", 16, 24, 6, 4, 6},
        {"DPRIVE", 16, 26, 7, 3, 9},
    };
    return kBench;
}

const HksParams &
benchmarkByName(const std::string &name)
{
    for (const auto &b : paperBenchmarks())
        if (b.name == name)
            return b;
    fatal("unknown benchmark: " + name);
}

} // namespace ciflow
