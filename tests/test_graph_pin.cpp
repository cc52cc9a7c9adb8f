/**
 * @file
 * Golden pin of the task graphs the dataflow builders emit. Every field
 * of every task (kind, stage, bytes, modOps, shuffleOps, isEvk and the
 * deps) is hashed in order, over the five paper benchmarks and
 * synthetic shapes up to kl 96, in every evk mode (streamed, on-chip,
 * compressed), at capacities from the dataflow's minimum, where every
 * spill decision matters, up to 128 MiB.
 *
 * The constants were computed with the builder that picked each spill
 * victim by scanning every object for the least recently used one. Any
 * change to the spill order, to pin handling or to a dataflow's
 * emission order moves them. The dataflows release every long-lived
 * pin just before discarding the object, so random call sequences
 * check the rest of the API against that scan builder
 * (legacy_builder.h): pins held across many emits and released out of
 * order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hksflow/dataflow.h"
#include "legacy_builder.h"

using namespace ciflow;

namespace
{

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/** What one pinned group of graphs folds to. */
struct Digest
{
    std::size_t graphs = 0;
    std::size_t tasks = 0;
    std::uint64_t hash = 0;
};

struct Pin
{
    const char *group;
    Digest want;
};

void
fold(Fnv &f, const TaskGraph &g)
{
    f.add(g.size());
    for (const Task &t : g.tasks()) {
        f.add(static_cast<std::uint64_t>(t.kind));
        f.add(static_cast<std::uint64_t>(t.stage));
        f.add(t.bytes);
        f.add(t.modOps);
        f.add(t.shuffleOps);
        f.add(t.isEvk ? 1 : 0);
        f.add(t.deps.size());
        for (std::uint32_t d : t.deps)
            f.add(d);
    }
}

/**
 * Capacities from the dataflow's minimum up to 128 MiB: the minimum and
 * one and two towers above it (tight), half again above it, and the
 * paper-style 16/32/64/128 MiB points that fit.
 */
std::vector<std::uint64_t>
capacities(const HksParams &par, Dataflow d)
{
    const std::uint64_t lo = minDataCapacity(par, d);
    const std::uint64_t tb = par.towerBytes();
    const std::uint64_t hi = std::uint64_t(128) << 20;
    std::vector<std::uint64_t> caps;
    const std::uint64_t mib = 1 << 20;
    for (std::uint64_t c : {lo, lo + tb, lo + 2 * tb, lo + lo / 2,
                            16 * mib, 32 * mib, 64 * mib, hi})
        if (c >= lo && c <= hi)
            caps.push_back(c);
    std::sort(caps.begin(), caps.end());
    caps.erase(std::unique(caps.begin(), caps.end()), caps.end());
    return caps;
}

/** Every evk mode at every capacity of one (shape, dataflow). */
Digest
digestOf(const HksParams &par, Dataflow d)
{
    Fnv f;
    Digest out;
    const MemoryConfig modes[] = {{0, false, false},
                                  {0, true, false},
                                  {0, false, true}};
    for (MemoryConfig mem : modes) {
        for (std::uint64_t cap : capacities(par, d)) {
            mem.dataCapacityBytes = cap;
            const TaskGraph g = buildHksGraph(par, d, mem);
            fold(f, g);
            ++out.graphs;
            out.tasks += g.size();
        }
    }
    out.hash = f.h;
    return out;
}

HksParams
synthetic(std::size_t logN, std::size_t kl, std::size_t kp,
          std::size_t dnum)
{
    return {"SYN", logN, kl, kp, dnum, (kl + dnum - 1) / dnum};
}

/** The pinned shapes in group order: paper benchmarks, then synthetic. */
std::vector<HksParams>
pinnedShapes()
{
    std::vector<HksParams> shapes = paperBenchmarks();
    // The set-up scaling curve's shapes (logN 16, dnum 3, kp = kl/3).
    for (std::size_t kl : {6, 12, 24, 48, 96})
        shapes.push_back(synthetic(16, kl, kl / 3, 3));
    // Ragged digits, alpha = 1, a single digit and wide digits.
    shapes.push_back(synthetic(14, 9, 3, 2));
    shapes.push_back(synthetic(16, 13, 2, 4));
    shapes.push_back(synthetic(13, 6, 6, 6));
    shapes.push_back(synthetic(15, 7, 7, 1));
    shapes.push_back(synthetic(17, 45, 15, 5));
    return shapes;
}

std::string
groupName(const HksParams &par, Dataflow d)
{
    return par.name + "/N" + std::to_string(par.logN) + "/kl" +
           std::to_string(par.kl) + "/kp" + std::to_string(par.kp) +
           "/d" + std::to_string(par.dnum) + "/" + dataflowName(d);
}

// clang-format off
const Pin kPins[] = {
    {"BTS1/N17/kl28/kp28/d1/MP", {18, 14790, 0x7bab6b7234533428ull}},
    {"BTS1/N17/kl28/kp28/d1/DC", {18, 14790, 0x7bab6b7234533428ull}},
    {"BTS1/N17/kl28/kp28/d1/OC", {18, 12426, 0xc1f7f0d0cd5cd3bdull}},
    {"BTS2/N17/kl40/kp20/d2/MP", {21, 44394, 0xb66e1cd99e9273eaull}},
    {"BTS2/N17/kl40/kp20/d2/DC", {21, 37128, 0x5da7f747ccd07528ull}},
    {"BTS2/N17/kl40/kp20/d2/OC", {21, 28440, 0xe5a0ffd7305f791eull}},
    {"BTS3/N17/kl45/kp15/d3/MP", {21, 63534, 0xa7a65d20e6415f76ull}},
    {"BTS3/N17/kl45/kp15/d3/DC", {21, 53478, 0x7c96dff8dbf0a55aull}},
    {"BTS3/N17/kl45/kp15/d3/OC", {21, 38325, 0x116abeb0954bd930ull}},
    {"ARK/N16/kl24/kp6/d4/MP", {24, 40260, 0x1eeb4ed0ada0f556ull}},
    {"ARK/N16/kl24/kp6/d4/DC", {24, 33702, 0x655a164604281aceull}},
    {"ARK/N16/kl24/kp6/d4/OC", {24, 25212, 0xef3b9a435dc6b063ull}},
    {"DPRIVE/N16/kl26/kp7/d3/MP", {24, 35163, 0x68cf91156aa3bc6eull}},
    {"DPRIVE/N16/kl26/kp7/d3/DC", {24, 29160, 0x41d729f1705aa76aull}},
    {"DPRIVE/N16/kl26/kp7/d3/OC", {24, 22509, 0x4837a9e01df579bfull}},
    {"SYN/N16/kl6/kp2/d3/MP", {21, 5589, 0x6fb5bb64646e187aull}},
    {"SYN/N16/kl6/kp2/d3/DC", {21, 4641, 0xdf1ec9bb5ad1c41eull}},
    {"SYN/N16/kl6/kp2/d3/OC", {21, 4221, 0xd72bcc88239b99efull}},
    {"SYN/N16/kl12/kp4/d3/MP", {24, 14784, 0x442066868a4d7f02ull}},
    {"SYN/N16/kl12/kp4/d3/DC", {24, 12558, 0x874ff213b082dd1eull}},
    {"SYN/N16/kl12/kp4/d3/OC", {24, 10371, 0x0f46ab023aa65d00ull}},
    {"SYN/N16/kl24/kp8/d3/MP", {24, 33378, 0x862bcf9bf3a4b0a8ull}},
    {"SYN/N16/kl24/kp8/d3/DC", {24, 27978, 0xa4e17b042dcd2893ull}},
    {"SYN/N16/kl24/kp8/d3/OC", {24, 21624, 0xc0ed1e261020c0e0ull}},
    {"SYN/N16/kl48/kp16/d3/MP", {24, 73272, 0xa2673c1684d65a82ull}},
    {"SYN/N16/kl48/kp16/d3/DC", {24, 61374, 0xf3373b68c14db710ull}},
    {"SYN/N16/kl48/kp16/d3/OC", {24, 45696, 0xdc69cc6c7b3b5198ull}},
    {"SYN/N16/kl96/kp32/d3/MP", {21, 136389, 0x2b004c8cc0e14326ull}},
    {"SYN/N16/kl96/kp32/d3/DC", {21, 115575, 0x1b70b61466e7b2ffull}},
    {"SYN/N16/kl96/kp32/d3/OC", {21, 83649, 0xe68372f590b28d83ull}},
    {"SYN/N14/kl9/kp3/d2/MP", {24, 7182, 0xaf0db6662791c1d3ull}},
    {"SYN/N14/kl9/kp3/d2/DC", {24, 6012, 0xfb469cdedc6487caull}},
    {"SYN/N14/kl9/kp3/d2/OC", {24, 5586, 0x1d3c81550c9954d4ull}},
    {"SYN/N16/kl13/kp2/d4/MP", {24, 18468, 0xd43c313e85e25092ull}},
    {"SYN/N16/kl13/kp2/d4/DC", {24, 15372, 0xd71db3b4ec442488ull}},
    {"SYN/N16/kl13/kp2/d4/OC", {24, 12339, 0xe1ef4dc2f0bee55eull}},
    {"SYN/N13/kl6/kp6/d6/MP", {24, 17202, 0xdb812c754d6e408full}},
    {"SYN/N13/kl6/kp6/d6/DC", {24, 14607, 0x668e4a86fe959b2aull}},
    {"SYN/N13/kl6/kp6/d6/OC", {24, 10863, 0x90bc84c0d058a2bcull}},
    {"SYN/N15/kl7/kp7/d1/MP", {24, 3864, 0xb04d12ce88217fb0ull}},
    {"SYN/N15/kl7/kp7/d1/DC", {24, 3864, 0xb04d12ce88217fb0ull}},
    {"SYN/N15/kl7/kp7/d1/OC", {24, 3651, 0x58040d67fed18483ull}},
    {"SYN/N17/kl45/kp15/d5/MP", {21, 96588, 0xd05aeb3c81e2f038ull}},
    {"SYN/N17/kl45/kp15/d5/DC", {21, 83496, 0x8de00edec5d4d327ull}},
    {"SYN/N17/kl45/kp15/d5/OC", {21, 55863, 0x073a62f69ad959daull}},
};
// clang-format on

} // namespace

TEST(GraphPin, EveryTaskFieldMatchesTheGoldenHashes)
{
    std::size_t i = 0;
    for (const HksParams &par : pinnedShapes()) {
        for (Dataflow d : allDataflows()) {
            const std::string name = groupName(par, d);
            const Digest got = digestOf(par, d);
            ASSERT_LT(i, std::size(kPins)) << name << " has no pin";
            const Pin &pin = kPins[i++];
            char line[160];
            std::snprintf(line, sizeof(line),
                          "{\"%s\", {%zu, %zu, 0x%016" PRIx64 "ull}}",
                          name.c_str(), got.graphs, got.tasks, got.hash);
            EXPECT_EQ(name, pin.group);
            EXPECT_TRUE(got.graphs == pin.want.graphs &&
                        got.tasks == pin.want.tasks &&
                        got.hash == pin.want.hash)
                << "built " << line;
        }
    }
    EXPECT_EQ(i, std::size(kPins));
}

namespace
{

bool
sameGraph(const TaskGraph &a, const TaskGraph &b)
{
    if (a.size() != b.size())
        return false;
    for (std::uint32_t i = 0; i < a.size(); ++i) {
        const Task &x = a[i];
        const Task &y = b[i];
        if (x.kind != y.kind || x.stage != y.stage || x.bytes != y.bytes ||
            x.modOps != y.modOps || x.shuffleOps != y.shuffleOps ||
            x.isEvk != y.isEvk || x.deps != y.deps)
            return false;
    }
    return true;
}

} // namespace

TEST(GraphPin, RandomCallSequencesMatchTheFullScanBuilder)
{
    const HksParams par{"TINY", 10, 6, 2, 3, 2};
    const std::uint64_t tb = par.towerBytes();
    const OpCounts ops{1000, 10};
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        Rng rng(seed);
        // 4-7 towers plus the 4-tower staging allowance: room for one
        // emit's five objects next to two long-lived pins, so most
        // emits spill but none runs out of room.
        const MemoryConfig mem{(4 + rng.uniform(4)) * tb,
                               rng.uniform(2) == 1};
        GraphBuilder b(par, mem);
        legacy::GraphBuilder ref(par, mem);

        // The test's view of each object.
        struct Obj
        {
            bool readable = false;
            bool transient = false;
            bool evk = false;
            bool dead = false;
            bool pinned = false;
        };
        std::vector<Obj> objs;
        // Objects of the latest emit: resident (or transient) until the
        // next emit, so they may be pinned or stored.
        std::vector<ObjId> lastEmit;
        // Live pins on objects that take up room.
        std::size_t pins = 0;
        const auto holdsRoom = [&](ObjId o) {
            return !objs[o].transient && !objs[o].evk;
        };
        const auto pick = [&](auto ok) -> std::int64_t {
            std::vector<ObjId> c;
            for (ObjId i = 0; i < objs.size(); ++i)
                if (ok(i))
                    c.push_back(i);
            if (c.empty())
                return -1;
            return c[rng.uniform(c.size())];
        };
        const auto live = [&](ObjId o) { return !objs[o].dead; };

        for (int step = 0; step < 400; ++step) {
            const std::uint64_t op = objs.size() < 3 ? 0 : rng.uniform(12);
            if (op < 2) {
                Obj o;
                ObjId got = 0, want = 0;
                switch (rng.uniform(6)) {
                  case 0:
                    got = b.newDramObject(tb);
                    want = ref.newDramObject(tb);
                    o.readable = true;
                    break;
                  case 1:
                  case 2:
                    got = b.newObject(tb);
                    want = ref.newObject(tb);
                    break;
                  case 3:
                    got = b.newTransient();
                    want = ref.newTransient();
                    o.transient = true;
                    break;
                  case 4:
                    got = b.newEvkObject(tb);
                    want = ref.newEvkObject(tb);
                    o.readable = o.evk = true;
                    break;
                  default:
                    got = b.newGeneratedEvkObject();
                    want = ref.newGeneratedEvkObject();
                    o.readable = o.evk = true;
                    break;
                }
                ASSERT_EQ(got, want);
                objs.push_back(o);
            } else if (op < 7) {
                std::vector<ObjId> in, out;
                const std::size_t nin = rng.uniform(4);
                for (std::size_t k = 0; k < nin; ++k) {
                    const std::int64_t i = pick([&](ObjId x) {
                        return live(x) && objs[x].readable;
                    });
                    if (i >= 0)
                        in.push_back(static_cast<ObjId>(i));
                }
                const std::size_t nout = 1 + rng.uniform(2);
                for (std::size_t k = 0; k < nout; ++k) {
                    // In place on an operand, or any live object that
                    // is not an evk tower.
                    if (!in.empty() && rng.uniform(3) == 0 &&
                        !objs[in.back()].evk) {
                        out.push_back(in.back());
                        continue;
                    }
                    const std::int64_t i = pick([&](ObjId x) {
                        return live(x) && !objs[x].evk;
                    });
                    if (i >= 0)
                        out.push_back(static_cast<ObjId>(i));
                }
                if (out.empty())
                    continue;
                ASSERT_EQ(b.emitCompute(StageId::ModUpNtt, ops, in, out),
                          ref.emitCompute(StageId::ModUpNtt, ops, in, out));
                for (ObjId o : out)
                    objs[o].readable = true;
                lastEmit = in;
                lastEmit.insert(lastEmit.end(), out.begin(), out.end());
            } else if (op == 7) {
                if (lastEmit.empty() || pins >= 2)
                    continue;
                const ObjId o = lastEmit[rng.uniform(lastEmit.size())];
                if (!live(o) || objs[o].pinned)
                    continue;
                b.pin(o);
                ref.pin(o);
                objs[o].pinned = true;
                pins += holdsRoom(o);
            } else if (op == 8) {
                const std::int64_t i =
                    pick([&](ObjId x) { return objs[x].pinned; });
                if (i < 0)
                    continue;
                const ObjId o = static_cast<ObjId>(i);
                b.unpin(o);
                ref.unpin(o);
                objs[o].pinned = false;
                pins -= holdsRoom(o);
            } else if (op == 9) {
                // Releasing what holds no pin, dead objects included.
                const ObjId o = static_cast<ObjId>(rng.uniform(objs.size()));
                if (objs[o].pinned)
                    continue;
                b.unpin(o);
                ref.unpin(o);
            } else if (op == 10) {
                const std::int64_t i = pick(live);
                if (i < 0)
                    continue;
                const ObjId o = static_cast<ObjId>(i);
                b.discard(o);
                ref.discard(o);
                if (objs[o].pinned)
                    pins -= holdsRoom(o);
                objs[o].dead = true;
                objs[o].pinned = false;
            } else {
                if (lastEmit.empty())
                    continue;
                const ObjId o = lastEmit[rng.uniform(lastEmit.size())];
                if (!live(o) || objs[o].evk)
                    continue;
                ASSERT_EQ(b.emitFinalStore(o), ref.emitFinalStore(o));
            }
            ASSERT_EQ(b.residentBytes(), ref.residentBytes())
                << "seed " << seed << " step " << step;
        }
        EXPECT_EQ(b.peakResidentBytes(), ref.peakResidentBytes());
        EXPECT_TRUE(sameGraph(b.take(), ref.take())) << "seed " << seed;
    }
}
