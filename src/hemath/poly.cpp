#include "hemath/poly.h"

#include "common/logging.h"

namespace ciflow
{

const NttTable &
NttContext::table(std::size_t n, u64 q)
{
    auto key = std::make_pair(n, q);
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, std::make_unique<NttTable>(n, q)).first;
    return *it->second;
}

RnsPoly::RnsPoly(std::size_t n_, std::vector<u64> primes, Domain d)
    : n(n_), dom(d), moduli(std::move(primes))
{
    data.assign(moduli.size(), std::vector<u64>(n, 0));
}

void
RnsPoly::checkCompatible(const RnsPoly &o) const
{
    panicIf(n != o.n, "RnsPoly degree mismatch");
    panicIf(moduli != o.moduli, "RnsPoly basis mismatch");
    panicIf(dom != o.dom, "RnsPoly domain mismatch");
}

void
RnsPoly::addInPlace(const RnsPoly &o)
{
    checkCompatible(o);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
        const u64 q = moduli[i];
        for (std::size_t k = 0; k < n; ++k)
            data[i][k] = addMod(data[i][k], o.data[i][k], q);
    }
}

void
RnsPoly::subInPlace(const RnsPoly &o)
{
    checkCompatible(o);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
        const u64 q = moduli[i];
        for (std::size_t k = 0; k < n; ++k)
            data[i][k] = subMod(data[i][k], o.data[i][k], q);
    }
}

void
RnsPoly::negateInPlace()
{
    for (std::size_t i = 0; i < moduli.size(); ++i) {
        const u64 q = moduli[i];
        for (std::size_t k = 0; k < n; ++k)
            data[i][k] = negMod(data[i][k], q);
    }
}

void
RnsPoly::mulPointwiseInPlace(const RnsPoly &o)
{
    checkCompatible(o);
    panicIf(dom != Domain::Eval,
            "pointwise multiply requires Eval domain");
    for (std::size_t i = 0; i < moduli.size(); ++i) {
        const u64 q = moduli[i];
        for (std::size_t k = 0; k < n; ++k)
            data[i][k] = mulMod(data[i][k], o.data[i][k], q);
    }
}

void
RnsPoly::mulScalarInPlace(const std::vector<u64> &scalars)
{
    panicIf(scalars.size() != moduli.size(),
            "per-tower scalar arity mismatch");
    for (std::size_t i = 0; i < moduli.size(); ++i) {
        const u64 q = moduli[i];
        const u64 s = scalars[i] % q;
        const u64 sp = preconMulMod(s, q);
        for (std::size_t k = 0; k < n; ++k)
            data[i][k] = mulModPrecon(data[i][k], s, sp, q);
    }
}

void
RnsPoly::toEval(NttContext &ctx)
{
    if (dom == Domain::Eval)
        return;
    for (std::size_t i = 0; i < moduli.size(); ++i)
        ctx.table(n, moduli[i]).forward(data[i]);
    dom = Domain::Eval;
}

void
RnsPoly::toCoeff(NttContext &ctx)
{
    if (dom == Domain::Coeff)
        return;
    for (std::size_t i = 0; i < moduli.size(); ++i)
        ctx.table(n, moduli[i]).inverse(data[i]);
    dom = Domain::Coeff;
}

RnsPoly
RnsPoly::automorphism(std::size_t g) const
{
    panicIf(dom != Domain::Coeff,
            "automorphism implemented in coefficient domain only");
    panicIf(g % 2 == 0 || g >= 2 * n, "invalid Galois element");
    RnsPoly out(n, moduli, Domain::Coeff);
    for (std::size_t i = 0; i < moduli.size(); ++i) {
        const u64 q = moduli[i];
        for (std::size_t k = 0; k < n; ++k) {
            // X^k -> X^{k g} = (+/-) X^{kg mod N} in Z[X]/(X^N+1).
            std::size_t idx = (k * g) % (2 * n);
            if (idx < n)
                out.data[i][idx] = data[i][k];
            else
                out.data[i][idx - n] = negMod(data[i][k], q);
        }
    }
    return out;
}

RnsPoly
RnsPoly::automorphismEval(std::size_t g) const
{
    panicIf(dom != Domain::Eval,
            "automorphismEval requires Eval domain");
    panicIf(g % 2 == 0 || g >= 2 * n, "invalid Galois element");

    std::size_t log_n = 0;
    while ((std::size_t(1) << log_n) < n)
        ++log_n;
    auto brv = [&](std::size_t v) {
        std::size_t r = 0;
        for (std::size_t i = 0; i < log_n; ++i) {
            r = (r << 1) | (v & 1);
            v >>= 1;
        }
        return r;
    };

    // perm[dst] = src, in stored (bit-reversed) index space.
    std::vector<std::size_t> perm(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t src_k = (((2 * k + 1) * g) % (2 * n) - 1) / 2;
        perm[brv(k)] = brv(src_k);
    }

    RnsPoly out(n, moduli, Domain::Eval);
    for (std::size_t i = 0; i < moduli.size(); ++i)
        for (std::size_t d = 0; d < n; ++d)
            out.data[i][d] = data[i][perm[d]];
    return out;
}

RnsPoly
RnsPoly::firstTowers(std::size_t count) const
{
    return towerRange(0, count);
}

RnsPoly
RnsPoly::towerRange(std::size_t first, std::size_t count) const
{
    panicIf(first + count > moduli.size(), "towerRange out of bounds");
    RnsPoly out;
    out.n = n;
    out.dom = dom;
    out.moduli.assign(moduli.begin() + first,
                      moduli.begin() + first + count);
    out.data.assign(data.begin() + first, data.begin() + first + count);
    return out;
}

void
RnsPoly::dropLastTower()
{
    panicIf(moduli.empty(), "dropLastTower on empty poly");
    moduli.pop_back();
    data.pop_back();
}

void
RnsPoly::appendTower(u64 q, std::vector<u64> coeffs)
{
    panicIf(coeffs.size() != n, "appendTower size mismatch");
    moduli.push_back(q);
    data.push_back(std::move(coeffs));
}

} // namespace ciflow
