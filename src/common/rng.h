/**
 * @file
 * Deterministic random number generation for ciflow.
 *
 * All randomness in the library flows through Rng so that tests and
 * examples are reproducible from a seed. Distributions provided are the
 * ones CKKS needs: uniform-mod-q polynomial coefficients, ternary secrets,
 * and a centered-binomial approximation of the discrete Gaussian error
 * (standard deviation ~3.2, matching common HE library practice).
 */

#ifndef CIFLOW_COMMON_RNG_H
#define CIFLOW_COMMON_RNG_H

#include <cstdint>
#include <random>
#include <vector>

namespace ciflow
{

/**
 * The splitmix64 finalizer: a bijective 64-bit mix whose every output
 * bit depends on every input bit. Decorrelates derived stream seeds
 * (fault::deriveSeed) and folds fields into running hashes as
 * splitmix64(field + seed).
 */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Seedable pseudo-random source for all HE sampling in ciflow. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : gen(seed) {}

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        return gen();
    }

    /** Uniform value in [0, bound) using rejection-free multiplication. */
    std::uint64_t
    uniform(std::uint64_t bound)
    {
        // Lemire's multiply-shift; bias is negligible for bound << 2^64
        // and irrelevant for modulus sampling in tests.
        unsigned __int128 m =
            static_cast<unsigned __int128>(gen()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform coefficient vector mod q of length n. */
    std::vector<std::uint64_t>
    uniformPoly(std::size_t n, std::uint64_t q)
    {
        std::vector<std::uint64_t> v(n);
        for (auto &x : v)
            x = uniform(q);
        return v;
    }

    /**
     * Ternary secret coefficients in {-1, 0, 1}, returned as signed
     * values. Hamming weight is ~2n/3 (uniform ternary).
     */
    std::vector<int>
    ternaryPoly(std::size_t n)
    {
        std::vector<int> v(n);
        for (auto &x : v)
            x = static_cast<int>(uniform(3)) - 1;
        return v;
    }

    /**
     * Centered binomial error with variance 21/2 (stddev ~3.24),
     * approximating the sigma = 3.2 discrete Gaussian used by HE
     * libraries. Sum of 21 fair coin differences.
     */
    std::vector<int>
    errorPoly(std::size_t n)
    {
        std::vector<int> v(n);
        for (auto &x : v) {
            int acc = 0;
            std::uint64_t bits = gen();
            for (int i = 0; i < 21; ++i) {
                acc += static_cast<int>(bits & 1) -
                       static_cast<int>((bits >> 1) & 1);
                bits >>= 2;
            }
            x = acc;
        }
        return v;
    }

  private:
    std::mt19937_64 gen;
};

} // namespace ciflow

#endif // CIFLOW_COMMON_RNG_H
