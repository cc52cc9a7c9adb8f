#include "hksflow/dataflow.h"

#include <algorithm>
#include <span>

#include "common/logging.h"

namespace ciflow
{

const char *
dataflowName(Dataflow d)
{
    switch (d) {
      case Dataflow::MP:
        return "MP";
      case Dataflow::DC:
        return "DC";
      case Dataflow::OC:
        return "OC";
    }
    panic("unknown dataflow");
}

const std::vector<Dataflow> &
allDataflows()
{
    static const std::vector<Dataflow> kAll = {Dataflow::MP, Dataflow::DC,
                                               Dataflow::OC};
    return kAll;
}

namespace
{

/** Shared object bookkeeping for one HKS build. */
struct HksBuild
{
    HksBuild(const HksParams &p, const MemoryConfig &m)
        : par(p), om(p), b(p, m)
    {
        const std::uint64_t tb = par.towerBytes();
        in.resize(par.kl);
        intt.resize(par.kl, kInvalid);
        for (std::size_t t = 0; t < par.kl; ++t)
            in[t] = b.newDramObject(tb);
        for (int c = 0; c < 2; ++c)
            acc[c].assign(par.extTowers(), kInvalid);
        evkB.assign(par.dnum,
                    std::vector<ObjId>(par.extTowers(), kInvalid));
        evkA = evkB;
        for (std::size_t j = 0; j < par.dnum; ++j) {
            for (std::size_t t = 0; t < par.extTowers(); ++t) {
                evkB[j][t] = b.newEvkObject(tb);
                // Compressed keys regenerate the uniform half on-chip.
                evkA[j][t] = m.evkCompressed
                                 ? b.newGeneratedEvkObject()
                                 : b.newEvkObject(tb);
            }
        }
        contrib.assign(par.extTowers(), 0);
    }

    static constexpr ObjId kInvalid = ~ObjId(0);

    bool
    inDigit(std::size_t j, std::size_t t) const
    {
        return t >= par.digitFirst(j) &&
               t < par.digitFirst(j) + par.digitTowers(j);
    }

    /**
     * INTT all towers of digit j (allocating intt objects). When
     * pin_each is set, every output is pinned as soon as it is produced
     * so capacity pressure from later towers cannot evict it.
     */
    void
    inttDigit(std::size_t j, bool pin_each = false)
    {
        const std::uint64_t tb = par.towerBytes();
        const std::size_t first = par.digitFirst(j);
        for (std::size_t i = 0; i < par.digitTowers(j); ++i) {
            intt[first + i] = b.newObject(tb);
            b.emitCompute(StageId::ModUpIntt, om.nttTower(),
                          {in[first + i]}, {intt[first + i]});
            if (pin_each)
                b.pin(intt[first + i]);
        }
    }

    /** BConv input scaling for digit j, in place on its INTT towers. */
    void
    scaleDigit(std::size_t j)
    {
        const std::span<const ObjId> towers = digitIntts(j);
        b.emitCompute(StageId::ModUpBconv,
                      om.bconvScale(par.digitTowers(j)), towers, towers);
    }

    /** Digit j's INTT towers (a view of `intt`). */
    std::span<const ObjId>
    digitIntts(std::size_t j) const
    {
        return std::span<const ObjId>(intt).subspan(par.digitFirst(j),
                                                    par.digitTowers(j));
    }

    /**
     * Apply-key contribution of digit j to extended tower t, given the
     * extended operand (bypass tower or converted column). Handles acc
     * creation, the P5 reduce for later digits, and evk streaming.
     */
    void
    applyKey(std::size_t j, std::size_t t, ObjId ext)
    {
        if (contrib[t] == 0) {
            acc[0][t] = b.newObject(par.towerBytes());
            acc[1][t] = b.newObject(par.towerBytes());
            b.emitCompute(StageId::ModUpKeyMul, om.keyMulTower(),
                          {ext, evkB[j][t], evkA[j][t]},
                          {acc[0][t], acc[1][t]});
            if (pinAcc) {
                b.pin(acc[0][t]);
                b.pin(acc[1][t]);
            }
        } else {
            ObjId tmp0 = b.newTransient();
            ObjId tmp1 = b.newTransient();
            b.emitCompute(StageId::ModUpKeyMul, om.keyMulTower(),
                          {ext, evkB[j][t], evkA[j][t]}, {tmp0, tmp1});
            b.emitCompute(StageId::ModUpReduce, om.reduceTower(),
                          {tmp0, tmp1, acc[0][t], acc[1][t]},
                          {acc[0][t], acc[1][t]});
            b.discard(tmp0);
            b.discard(tmp1);
        }
        ++contrib[t];
        b.discard(evkB[j][t]);
        b.discard(evkA[j][t]);
    }

    /**
     * ModDown for both result polynomials. `per_tower` selects the OC
     * style (fused single-column conversions) versus the materialized
     * stage-sequential style used by MP/DC.
     */
    void
    modDown(bool per_tower)
    {
        const std::uint64_t tb = par.towerBytes();
        for (int c = 0; c < 2; ++c) {
            // P1: INTT the P-part.
            std::vector<ObjId> md(par.kp);
            for (std::size_t k = 0; k < par.kp; ++k) {
                ObjId src = acc[c][par.kl + k];
                md[k] = b.newObject(tb);
                b.emitCompute(StageId::ModDownIntt, om.nttTower(), {src},
                              {md[k]});
                b.discard(src);
                b.pin(md[k]);
            }
            // P2 scaling.
            b.emitCompute(StageId::ModDownBconv, om.bconvScale(par.kp),
                          md, md);
            if (per_tower) {
                // OC: one output tower at a time, column fused through
                // the register file.
                for (std::size_t i = 0; i < par.kl; ++i) {
                    ObjId col = b.newTransient();
                    b.emitCompute(StageId::ModDownBconv,
                                  om.bconvColumn(par.kp), md, {col});
                    b.emitCompute(StageId::ModDownNtt, om.nttTower(),
                                  {col}, {col});
                    ObjId out = b.newTransient();
                    b.emitCompute(StageId::ModDownFinish,
                                  om.modDownFinishTower(),
                                  {acc[c][i], col}, {out});
                    b.emitFinalStore(out);
                    b.discard(col);
                    b.discard(out);
                    b.discard(acc[c][i]);
                }
            } else {
                // MP/DC: materialize all columns, then NTT, then finish.
                std::vector<ObjId> cols(par.kl);
                for (std::size_t i = 0; i < par.kl; ++i) {
                    cols[i] = b.newObject(tb);
                    b.emitCompute(StageId::ModDownBconv,
                                  om.bconvColumn(par.kp), md, {cols[i]});
                }
                for (std::size_t k = 0; k < par.kp; ++k)
                    b.discard(md[k]);
                for (std::size_t i = 0; i < par.kl; ++i)
                    b.emitCompute(StageId::ModDownNtt, om.nttTower(),
                                  {cols[i]}, {cols[i]});
                for (std::size_t i = 0; i < par.kl; ++i) {
                    ObjId out = b.newTransient();
                    b.emitCompute(StageId::ModDownFinish,
                                  om.modDownFinishTower(),
                                  {acc[c][i], cols[i]}, {out});
                    b.emitFinalStore(out);
                    b.discard(out);
                    b.discard(cols[i]);
                    b.discard(acc[c][i]);
                }
            }
            for (std::size_t k = 0; k < par.kp; ++k) {
                b.unpin(md[k]);
                b.discard(md[k]);
            }
        }
    }

    HksParams par;
    OpModel om;
    GraphBuilder b;
    std::vector<ObjId> in;
    std::vector<ObjId> intt;
    std::vector<ObjId> acc[2];
    std::vector<std::vector<ObjId>> evkB, evkA;
    std::vector<std::size_t> contrib;
    /** OC small-benchmark strategy: keep partial sums pinned on-chip. */
    bool pinAcc = false;
};

TaskGraph
buildMp(const HksParams &par, const MemoryConfig &mem)
{
    HksBuild h(par, mem);
    const std::uint64_t tb = par.towerBytes();

    // P1 over all towers.
    for (std::size_t j = 0; j < par.dnum; ++j)
        h.inttDigit(j);

    // P2 over all digits: scaling then every conversion column.
    // Column (j, t) is bcol[j * ext + t]; in-digit slots stay unused.
    const std::size_t ext = par.extTowers();
    std::vector<ObjId> bcol(par.dnum * ext, HksBuild::kInvalid);
    for (std::size_t j = 0; j < par.dnum; ++j)
        h.scaleDigit(j);
    for (std::size_t j = 0; j < par.dnum; ++j) {
        const std::span<const ObjId> towers = h.digitIntts(j);
        for (std::size_t t = 0; t < ext; ++t) {
            if (h.inDigit(j, t))
                continue;
            ObjId col = h.b.newObject(tb);
            bcol[j * ext + t] = col;
            h.b.emitCompute(StageId::ModUpBconv,
                            h.om.bconvColumn(par.digitTowers(j)), towers,
                            {col});
        }
        for (ObjId o : towers)
            h.b.discard(o);
    }

    // P3 over every converted tower, in (digit, tower) order.
    for (ObjId col : bcol)
        if (col != HksBuild::kInvalid)
            h.b.emitCompute(StageId::ModUpNtt, h.om.nttTower(), {col},
                            {col});

    // P4: stage-sequential apply-key, materializing every digit's full
    // product — the "extremely large" MP intermediate of §IV-A
    // (2*dnum*(kl+kp) towers; cf. the key-product term of Table III).
    std::vector<std::pair<ObjId, ObjId>> prod(par.dnum * ext);
    for (std::size_t j = 0; j < par.dnum; ++j) {
        for (std::size_t t = 0; t < ext; ++t) {
            ObjId x = h.inDigit(j, t) ? h.in[t] : bcol[j * ext + t];
            ObjId p0 = h.b.newObject(tb);
            ObjId p1 = h.b.newObject(tb);
            h.b.emitCompute(StageId::ModUpKeyMul, h.om.keyMulTower(),
                            {x, h.evkB[j][t], h.evkA[j][t]}, {p0, p1});
            h.b.discard(x);
            h.b.discard(h.evkB[j][t]);
            h.b.discard(h.evkA[j][t]);
            prod[j * ext + t] = {p0, p1};
        }
    }

    // P5: reduce the digit products into the final ModUp output.
    for (std::size_t t = 0; t < ext; ++t) {
        h.acc[0][t] = prod[t].first;
        h.acc[1][t] = prod[t].second;
        for (std::size_t j = 1; j < par.dnum; ++j) {
            auto [p0, p1] = prod[j * ext + t];
            h.b.emitCompute(StageId::ModUpReduce, h.om.reduceTower(),
                            {h.acc[0][t], h.acc[1][t], p0, p1},
                            {h.acc[0][t], h.acc[1][t]});
            h.b.discard(p0);
            h.b.discard(p1);
        }
    }

    h.modDown(false);
    return h.b.take();
}

TaskGraph
buildDc(const HksParams &par, const MemoryConfig &mem)
{
    HksBuild h(par, mem);
    const std::uint64_t tb = par.towerBytes();

    for (std::size_t j = 0; j < par.dnum; ++j) {
        // All of P1..P5 for this digit before the next (Figure 2b).
        h.inttDigit(j);
        h.scaleDigit(j);
        const std::span<const ObjId> towers = h.digitIntts(j);

        // Column t is cols[t]; in-digit slots stay unused.
        std::vector<ObjId> cols(par.extTowers(), HksBuild::kInvalid);
        for (std::size_t t = 0; t < par.extTowers(); ++t) {
            if (h.inDigit(j, t))
                continue;
            ObjId col = h.b.newObject(tb);
            cols[t] = col;
            h.b.emitCompute(StageId::ModUpBconv,
                            h.om.bconvColumn(par.digitTowers(j)), towers,
                            {col});
        }
        for (ObjId o : towers)
            h.b.discard(o);
        for (ObjId col : cols)
            if (col != HksBuild::kInvalid)
                h.b.emitCompute(StageId::ModUpNtt, h.om.nttTower(), {col},
                                {col});

        for (std::size_t t = 0; t < par.extTowers(); ++t) {
            if (h.inDigit(j, t)) {
                h.applyKey(j, t, h.in[t]);
                h.b.discard(h.in[t]);
            } else {
                h.applyKey(j, t, cols[t]);
                h.b.discard(cols[t]);
            }
        }
    }

    h.modDown(false);
    return h.b.take();
}

TaskGraph
buildOc(const HksParams &par, const MemoryConfig &mem)
{
    HksBuild h(par, mem);
    const std::uint64_t tb = par.towerBytes();

    // Two residency strategies (§IV-C):
    //  - when the whole partial-sum array (2*(kl+kp) towers) fits next
    //    to one digit, pin it and stream digits one at a time — the
    //    partial sums never touch DRAM (paper's ModUp P5 priority on
    //    keeping [P0]B/[P1]B on-chip);
    //  - otherwise pin the INTT outputs of the first dnum-1 digits and
    //    defer the last digit to a second pass that completes the
    //    spilled partial sums.
    std::size_t widest_digit = 0;
    for (std::size_t j = 0; j < par.dnum; ++j)
        widest_digit = std::max(widest_digit, par.digitTowers(j));
    const bool acc_resident =
        (2 * par.extTowers() + widest_digit + 2) * tb <=
        mem.dataCapacityBytes + 4 * tb;

    std::vector<std::size_t> resident, deferred;
    if (acc_resident) {
        h.pinAcc = true;
        for (std::size_t j = 0; j < par.dnum; ++j)
            deferred.push_back(j);
    } else {
        std::uint64_t budget = mem.dataCapacityBytes > 2 * tb
                                   ? mem.dataCapacityBytes - 2 * tb
                                   : 0;
        std::uint64_t pinned_bytes = 0;
        const std::size_t keep =
            par.dnum == 1 ? 1 : par.dnum - 1; // at most dnum-1 resident
        for (std::size_t j = 0; j < par.dnum; ++j) {
            std::uint64_t need = par.digitTowers(j) * tb;
            bool fits = pinned_bytes + need <= budget;
            if (j < keep && (fits || j == 0)) {
                resident.push_back(j);
                pinned_bytes += need;
            } else {
                deferred.push_back(j);
            }
        }
    }

    auto contribute = [&](std::size_t j, std::size_t t) {
        if (h.inDigit(j, t)) {
            h.applyKey(j, t, h.in[t]);
            h.b.discard(h.in[t]);
        } else {
            // Fused column: BConv column -> NTT -> apply key, chained
            // through the vector registers (no materialized tower).
            ObjId col = h.b.newTransient();
            h.b.emitCompute(StageId::ModUpBconv,
                            h.om.bconvColumn(par.digitTowers(j)),
                            h.digitIntts(j), {col});
            h.b.emitCompute(StageId::ModUpNtt, h.om.nttTower(), {col},
                            {col});
            h.applyKey(j, t, col);
            h.b.discard(col);
        }
    };

    // Pass A: resident digits, one output tower at a time.
    for (std::size_t j : resident) {
        h.inttDigit(j, true);
        h.scaleDigit(j);
    }
    for (std::size_t t = 0; t < par.extTowers(); ++t)
        for (std::size_t j : resident)
            contribute(j, t);
    for (std::size_t j : resident) {
        for (ObjId o : h.digitIntts(j)) {
            h.b.unpin(o);
            h.b.discard(o);
        }
    }

    // Deferred passes: one per remaining digit.
    for (std::size_t j : deferred) {
        h.inttDigit(j, true);
        h.scaleDigit(j);
        for (std::size_t t = 0; t < par.extTowers(); ++t)
            contribute(j, t);
        for (ObjId o : h.digitIntts(j)) {
            h.b.unpin(o);
            h.b.discard(o);
        }
    }

    h.modDown(true);
    return h.b.take();
}

} // namespace

TaskGraph
buildHksGraph(const HksParams &par, Dataflow d, const MemoryConfig &mem)
{
    fatalIf(mem.dataCapacityBytes < minDataCapacity(par, d),
            "data memory below the minimum for this benchmark/dataflow");
    switch (d) {
      case Dataflow::MP:
        return buildMp(par, mem);
      case Dataflow::DC:
        return buildDc(par, mem);
      case Dataflow::OC:
        return buildOc(par, mem);
    }
    panic("unknown dataflow");
}

std::uint64_t
minDataCapacity(const HksParams &par, Dataflow)
{
    std::size_t widest = par.kp;
    for (std::size_t j = 0; j < par.dnum; ++j)
        widest = std::max(widest, par.digitTowers(j));
    return (widest + 2) * par.towerBytes();
}

} // namespace ciflow
