/**
 * @file
 * RNS polynomials in Z_Q[X]/(X^N + 1) and the NTT table cache.
 *
 * An RnsPoly is the N x ell "matrix" view the paper uses: `towers()`
 * residue polynomials, one per prime, each of length N. A poly is either
 * in coefficient or evaluation (NTT) domain; pointwise operations demand
 * matching domains and bases.
 */

#ifndef CIFLOW_HEMATH_POLY_H
#define CIFLOW_HEMATH_POLY_H

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "hemath/modarith.h"
#include "hemath/ntt.h"

namespace ciflow
{

/** Which domain a polynomial's towers currently live in. */
enum class Domain { Coeff, Eval };

/** Cache of NttTable instances keyed by (degree, modulus). */
class NttContext
{
  public:
    /** Get (building on first use) the table for (n, q). */
    const NttTable &table(std::size_t n, u64 q);

  private:
    std::map<std::pair<std::size_t, u64>, std::unique_ptr<NttTable>> cache;
};

/** A polynomial in RNS representation. */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /** Zero polynomial of degree n over the given primes. */
    RnsPoly(std::size_t n, std::vector<u64> primes,
            Domain d = Domain::Coeff);

    std::size_t degree() const { return n; }
    std::size_t towerCount() const { return moduli.size(); }
    Domain domain() const { return dom; }

    u64 modulus(std::size_t i) const { return moduli[i]; }
    const std::vector<u64> &primes() const { return moduli; }

    std::vector<u64> &tower(std::size_t i) { return data[i]; }
    const std::vector<u64> &tower(std::size_t i) const { return data[i]; }

    /** Raw tower storage (tower-major). */
    std::vector<std::vector<u64>> &towers() { return data; }
    const std::vector<std::vector<u64>> &towers() const { return data; }

    /** this += o (same base, same domain). */
    void addInPlace(const RnsPoly &o);
    /** this -= o (same base, same domain). */
    void subInPlace(const RnsPoly &o);
    /** this = -this. */
    void negateInPlace();
    /** this *= o pointwise (both must be in Eval domain). */
    void mulPointwiseInPlace(const RnsPoly &o);
    /** Multiply tower i by scalar s_i (one scalar per tower). */
    void mulScalarInPlace(const std::vector<u64> &scalars);

    /** Transform all towers to Eval domain (no-op if already there). */
    void toEval(NttContext &ctx);
    /** Transform all towers to Coeff domain (no-op if already there). */
    void toCoeff(NttContext &ctx);

    /**
     * Apply the Galois automorphism X -> X^g (g odd, 0 < g < 2N) in the
     * coefficient domain. Panics when called in Eval domain.
     */
    RnsPoly automorphism(std::size_t g) const;

    /**
     * Apply the same automorphism directly in the evaluation domain as
     * a point permutation: the transform stores a(psi^{2k+1}) at index
     * bitrev(k), and sigma_g maps the evaluation at psi^{2k+1} to the
     * one at psi^{(2k+1)g mod 2N}. No NTTs needed — this is what makes
     * hoisted rotations cheap. Panics when called in Coeff domain.
     */
    RnsPoly automorphismEval(std::size_t g) const;

    /** Restrict to the first `count` towers. */
    RnsPoly firstTowers(std::size_t count) const;
    /** Restrict to towers [first, first+count). */
    RnsPoly towerRange(std::size_t first, std::size_t count) const;
    /** Drop the last tower (rescale helper). */
    void dropLastTower();

    /** Append a tower (prime + residues). */
    void appendTower(u64 q, std::vector<u64> coeffs);

    /** Byte size of the stored residues (N * towers * 8). */
    std::size_t byteSize() const { return n * moduli.size() * 8; }

    bool operator==(const RnsPoly &o) const
    {
        return n == o.n && dom == o.dom && moduli == o.moduli &&
               data == o.data;
    }

  private:
    void checkCompatible(const RnsPoly &o) const;

    std::size_t n = 0;
    Domain dom = Domain::Coeff;
    std::vector<u64> moduli;
    std::vector<std::vector<u64>> data;
};

} // namespace ciflow

#endif // CIFLOW_HEMATH_POLY_H
