/**
 * @file
 * Shared order statistics: the nearest-rank percentile.
 *
 * Every latency/degradation percentile the repo reports — the fault
 * layer's Monte Carlo p50/p99 degradation, the serving layer's
 * p50/p99/p999 request latencies — uses the same convention: the
 * nearest-rank method over an ascending-sorted sample,
 *
 *   rank = clamp(ceil(p * n), 1, n);  result = sorted[rank - 1]
 *
 * so a percentile is always an *observed* value (never interpolated),
 * p <= 0 selects the minimum and p >= 1 the maximum. The rule is
 * written once, in nearestRankIndex: FaultSim::monteCarlo computed it
 * inline before the serving layer needed the identical rule, and
 * tests/test_stats.cpp pins this implementation bitwise against that
 * original inline code.
 *
 * Two readers share it. percentileSorted is an O(1) lookup into a
 * sample the caller sorted (the Monte Carlo harness sorts once, since
 * its mean sums the sorted sample). percentilesBySelection reads a few
 * percentiles of an unsorted sample by selection instead, in expected
 * linear time: the serving loop aggregates every run that way.
 */

#ifndef CIFLOW_COMMON_STATS_H
#define CIFLOW_COMMON_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace ciflow::stats
{

/**
 * Zero-based index of the nearest-rank p-th percentile in an
 * ascending-sorted sample of n > 0 values: clamp(ceil(p * n), 1, n) - 1.
 */
inline std::size_t
nearestRankIndex(std::size_t n, double p)
{
    // Clamp before converting: a negative rank converted to size_t is
    // undefined behaviour (optimized builds disagree on the result).
    const double rank = std::ceil(p * static_cast<double>(n));
    if (!(rank > 1.0))
        return 0;
    if (rank >= static_cast<double>(n))
        return n - 1;
    return static_cast<std::size_t>(rank) - 1;
}

/**
 * Nearest-rank percentile of an ascending-sorted sample: element
 * nearestRankIndex(n, p) of `sorted`, a pure O(1) lookup. Panics on
 * an empty sample — an empty completed-run set is a caller decision
 * (report 0, skip the row), not a statistic.
 */
inline double
percentileSorted(const double *sorted, std::size_t n, double p)
{
    panicIf(n == 0, "percentile of an empty sample");
    return sorted[nearestRankIndex(n, p)];
}

/** percentileSorted over a vector (must be ascending-sorted). */
inline double
percentileSorted(const std::vector<double> &sorted, double p)
{
    return percentileSorted(sorted.data(), sorted.size(), p);
}

/**
 * Nearest-rank percentiles of an *unsorted* sample by selection:
 * out[i] is the element percentileSorted returns for ps[i] on the
 * sorted sample. `ps` must be ascending; each rank is selected with
 * std::nth_element on the tail the previous selection left (equal
 * ranks select once), so a few percentiles cost expected O(n) instead
 * of a sort. The sample is reordered. Values compare equal only when
 * they are the same double (no NaN, no -0.0 next to +0.0), so the
 * selected bits are the sorted sample's. Panics on an empty sample.
 */
inline void
percentilesBySelection(std::vector<double> &sample, const double *ps,
                       std::size_t np, double *out)
{
    const std::size_t n = sample.size();
    if (n == 0)
        panic("percentile of an empty sample");
    const auto at = [&](std::size_t i) {
        return sample.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::size_t from = 0, prev = 0;
    for (std::size_t i = 0; i < np; ++i) {
        if (i > 0 && ps[i] < ps[i - 1])
            panic("selection percentiles must be ascending");
        const std::size_t idx = nearestRankIndex(n, ps[i]);
        if (i == 0 || idx != prev) {
            // Everything before `from` is <= the previous selection,
            // so rank idx lies in the tail.
            std::nth_element(at(from), at(idx), sample.end());
            from = idx + 1;
            prev = idx;
        }
        out[i] = sample[idx];
    }
}

} // namespace ciflow::stats

#endif // CIFLOW_COMMON_STATS_H
