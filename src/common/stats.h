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
 * p <= 0 selects the minimum and p >= 1 the maximum. The helper exists
 * so the convention is written once: FaultSim::monteCarlo computed it
 * inline before the serving layer needed the identical rule, and
 * tests/test_stats.cpp pins this implementation bitwise against that
 * original inline code.
 */

#ifndef CIFLOW_COMMON_STATS_H
#define CIFLOW_COMMON_STATS_H

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/logging.h"

namespace ciflow::stats
{

/**
 * Nearest-rank percentile of an ascending-sorted sample: element
 * clamp(ceil(p * n), 1, n) - 1 of `sorted`. The caller sorts; this is
 * a pure O(1) lookup, so harnesses sort once and read many
 * percentiles. Panics on an empty sample — an empty completed-run set
 * is a caller decision (report 0, skip the row), not a statistic.
 */
inline double
percentileSorted(const double *sorted, std::size_t n, double p)
{
    panicIf(n == 0, "percentile of an empty sample");
    // Clamp before converting: a negative rank converted to size_t is
    // undefined behaviour (optimized builds disagree on the result).
    const double rank = std::ceil(p * static_cast<double>(n));
    if (!(rank > 1.0))
        return sorted[0];
    if (rank >= static_cast<double>(n))
        return sorted[n - 1];
    return sorted[static_cast<std::size_t>(rank) - 1];
}

/** percentileSorted over a vector (must be ascending-sorted). */
inline double
percentileSorted(const std::vector<double> &sorted, double p)
{
    return percentileSorted(sorted.data(), sorted.size(), p);
}

} // namespace ciflow::stats

#endif // CIFLOW_COMMON_STATS_H
