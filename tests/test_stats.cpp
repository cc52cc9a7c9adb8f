/**
 * @file
 * Tests for the shared nearest-rank percentile helper
 * (common/stats.h): the rank formula on known arrays, edge ranks for
 * p50/p99/p999 at awkward sample counts, N=1 and all-ties inputs,
 * out-of-range p clamping, bitwise agreement with a replica of the
 * inline code it was extracted from (fault/monte_carlo.cpp), the
 * selection reader against sort + lookup, and the death paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

using namespace ciflow;

namespace
{

/**
 * Verbatim replica of the nearest-rank lambda FaultSim::monteCarlo
 * carried before the helper was extracted; the extraction is only
 * safe if the two agree to the bit on every input.
 */
double
legacyRank(const std::vector<double> &completed, double p)
{
    const std::size_t n = completed.size();
    std::size_t r =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    if (r == 0)
        r = 1;
    if (r > n)
        r = n;
    return completed[r - 1];
}

TEST(Percentile, NearestRankOnKnownArray)
{
    // Classic nearest-rank example: 5 samples, ranks ceil(p*5).
    const std::vector<double> v{15.0, 20.0, 35.0, 40.0, 50.0};
    EXPECT_EQ(stats::percentileSorted(v, 0.05), 15.0); // ceil(0.25)=1
    EXPECT_EQ(stats::percentileSorted(v, 0.30), 20.0); // ceil(1.5)=2
    EXPECT_EQ(stats::percentileSorted(v, 0.40), 20.0); // ceil(2.0)=2
    EXPECT_EQ(stats::percentileSorted(v, 0.50), 35.0); // ceil(2.5)=3
    EXPECT_EQ(stats::percentileSorted(v, 1.00), 50.0); // ceil(5.0)=5
}

TEST(Percentile, SingleSampleReturnsItForAnyP)
{
    const std::vector<double> v{42.5};
    for (double p : {0.0, 0.001, 0.5, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(stats::percentileSorted(v, p), 42.5) << "p=" << p;
    }
}

TEST(Percentile, TiesReturnTheTiedValue)
{
    const std::vector<double> v{7.0, 7.0, 7.0, 7.0};
    for (double p : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0})
        EXPECT_EQ(stats::percentileSorted(v, p), 7.0) << "p=" << p;
}

TEST(Percentile, OutOfRangePClampsToMinAndMax)
{
    const std::vector<double> v{1.0, 2.0, 3.0};
    // p <= 0 clamps the rank to 1 (the minimum)...
    EXPECT_EQ(stats::percentileSorted(v, 0.0), 1.0);
    EXPECT_EQ(stats::percentileSorted(v, -2.0), 1.0);
    // ...and p >= 1 to n (the maximum).
    EXPECT_EQ(stats::percentileSorted(v, 1.0), 3.0);
    EXPECT_EQ(stats::percentileSorted(v, 7.5), 3.0);
}

TEST(Percentile, EdgeRanksAtTailPercentiles)
{
    // n = 100: p99 is exactly rank 99 (ceil(99.0) — an exact-integer
    // product), p999 rounds up to rank 100.
    std::vector<double> v(100);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i + 1);
    EXPECT_EQ(stats::percentileSorted(v, 0.50), 50.0);
    EXPECT_EQ(stats::percentileSorted(v, 0.99), 99.0);
    EXPECT_EQ(stats::percentileSorted(v, 0.999), 100.0);

    // n = 101: every tail product is fractional and rounds up
    // (p999 reaches rank 101 — the appended maximum).
    v.push_back(102.0);
    EXPECT_EQ(stats::percentileSorted(v, 0.50), 51.0); // ceil(50.5)
    EXPECT_EQ(stats::percentileSorted(v, 0.99), 100.0); // ceil(99.99)
    EXPECT_EQ(stats::percentileSorted(v, 0.999), 102.0);

    // n = 1000: p999 is the exact-integer rank 999, not the max.
    std::vector<double> w(1000);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = static_cast<double>(i + 1);
    EXPECT_EQ(stats::percentileSorted(w, 0.999), 999.0);
    EXPECT_EQ(stats::percentileSorted(w, 0.9991), 1000.0);
}

TEST(Percentile, PointerOverloadMatchesVectorOverload)
{
    const std::vector<double> v{0.5, 1.5, 2.5, 3.5};
    for (double p : {0.0, 0.3, 0.5, 0.99, 1.0})
        EXPECT_EQ(stats::percentileSorted(v.data(), v.size(), p),
                  stats::percentileSorted(v, p));
}

TEST(Percentile, BitwiseAgreementWithLegacyMonteCarloRank)
{
    // Randomized sorted samples at the awkward sizes (1, 2, primes,
    // powers of ten) against the replica of the old inline code, at
    // the exact percentiles monteCarlo uses plus tail ones.
    Rng rng(0xC1F703);
    for (std::size_t n :
         {1ul, 2ul, 3ul, 7ul, 10ul, 99ul, 100ul, 101ul, 997ul, 1000ul}) {
        std::vector<double> v(n);
        for (double &x : v)
            x = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        std::sort(v.begin(), v.end());
        for (double p : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            const double a = stats::percentileSorted(v, p);
            const double b = legacyRank(v, p);
            EXPECT_EQ(a, b) << "n=" << n << " p=" << p;
        }
    }
}

TEST(Percentile, SelectionMatchesSortBitwise)
{
    // percentilesBySelection on an unsorted sample returns, for every
    // requested p, the bits std::sort + percentileSorted give: awkward
    // sizes, heavy duplicates, and requests that share a rank or sit
    // on adjacent ranks.
    Rng rng(0x5E1EC7);
    for (std::size_t n : {1ul, 2ul, 3ul, 999ul, 1000ul, 1001ul, 4096ul}) {
        const double dn = static_cast<double>(n);
        const std::size_t k = n / 2;
        const std::vector<std::vector<double>> requests = {
            {0.0, 0.5, 0.99, 0.999, 1.0},
            {0.5, 0.5, 0.99, 0.99},
            {static_cast<double>(k) / dn, static_cast<double>(k + 1) / dn,
             static_cast<double>(k + 1) / dn},
            {0.999, 0.9991, 1.0},
            {1.0},
        };
        for (bool duplicates : {false, true}) {
            std::vector<double> v(n);
            for (double &x : v)
                x = duplicates
                        ? static_cast<double>(rng.uniform(7)) * 0.125
                        : static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
            std::vector<double> sorted = v;
            std::sort(sorted.begin(), sorted.end());
            for (const std::vector<double> &ps : requests) {
                std::vector<double> sample = v;
                std::vector<double> got(ps.size());
                stats::percentilesBySelection(sample, ps.data(), ps.size(),
                                              got.data());
                for (std::size_t i = 0; i < ps.size(); ++i)
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                              std::bit_cast<std::uint64_t>(
                                  stats::percentileSorted(sorted, ps[i])))
                        << "n=" << n << " dup=" << duplicates
                        << " p=" << ps[i];
            }
        }
    }
}

TEST(PercentileDeath, EmptySamplePanics)
{
    const std::vector<double> empty;
    EXPECT_DEATH(stats::percentileSorted(empty, 0.5),
                 "percentile of an empty sample");
    std::vector<double> none;
    double out = 0.0;
    const double p = 0.5;
    EXPECT_DEATH(stats::percentilesBySelection(none, &p, 1, &out),
                 "percentile of an empty sample");
}

TEST(PercentileDeath, DescendingSelectionRequestsPanic)
{
    std::vector<double> v{3.0, 1.0, 2.0};
    const double ps[] = {0.9, 0.5};
    double out[2];
    EXPECT_DEATH(stats::percentilesBySelection(v, ps, 2, out),
                 "selection percentiles must be ascending");
}

} // namespace
