/**
 * @file
 * Tests for the compile-once/simulate-many layer: CompiledSchedule CSR
 * structure and replay semantics, bit-identity of the single-pass
 * scheduler against the legacy multi-pass queue walk on randomized
 * DAGs, and compiled-vs-rebuild SimStats equivalence across the paper
 * bandwidth sweep for all dataflows and pipe configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "rpu/experiment.h"
#include "sim/compiled_schedule.h"
#include "sim/event_queue.h"

using namespace ciflow;

namespace
{

/**
 * Resource name "r<r>", built by appending: GCC 12 flags
 * `resName(r)` with a -Wrestrict false positive.
 */
std::string
resName(std::size_t r)
{
    std::string s = "r";
    s += std::to_string(r);
    return s;
}

/** A task for the generic-core reference model. */
struct RefTask
{
    std::vector<sim::TaskId> deps;
    std::vector<sim::SimOp> ops;
};

/**
 * The multi-pass scheduling loop EventQueue::run used before the
 * single-pass rewrite, kept verbatim as the reference model: per
 * resource in-order queues filled in task order, heads re-scanned
 * until all ops have issued.
 */
struct RefResult
{
    std::vector<double> finish;
    std::vector<double> freeAt, busy;
    std::vector<std::size_t> jobs;
    double makespan = 0.0;
};

RefResult
multiPassRun(std::size_t nr, const std::vector<RefTask> &tasks)
{
    const std::size_t nt = tasks.size();
    RefResult out;
    out.freeAt.assign(nr, 0.0);
    out.busy.assign(nr, 0.0);
    out.jobs.assign(nr, 0);

    struct Queued
    {
        sim::TaskId task;
        double duration;
    };
    std::vector<std::vector<Queued>> queue(nr);
    std::size_t total_ops = 0;
    for (sim::TaskId t = 0; t < nt; ++t) {
        for (const sim::SimOp &op : tasks[t].ops) {
            queue[op.resource].push_back({t, op.duration});
            ++total_ops;
        }
    }

    std::vector<std::size_t> head(nr, 0);
    std::vector<double> finish(nt, 0.0);
    std::vector<std::uint32_t> ops_left(nt, 0);
    std::vector<char> resolved(nt, 0);
    for (sim::TaskId t = 0; t < nt; ++t)
        ops_left[t] = static_cast<std::uint32_t>(tasks[t].ops.size());

    auto ready_at = [&](sim::TaskId t) -> double {
        double ready = 0.0;
        for (sim::TaskId d : tasks[t].deps) {
            if (!resolved[d])
                return -1.0;
            ready = ready > finish[d] ? ready : finish[d];
        }
        return ready;
    };

    std::size_t remaining = total_ops;
    while (remaining > 0) {
        bool progress = false;
        for (std::size_t r = 0; r < nr; ++r) {
            while (head[r] < queue[r].size()) {
                const Queued &q = queue[r][head[r]];
                double ready = ready_at(q.task);
                if (ready < 0.0)
                    break;
                double start =
                    out.freeAt[r] > ready ? out.freeAt[r] : ready;
                double fin = start + q.duration;
                out.freeAt[r] = fin;
                out.busy[r] += q.duration;
                ++out.jobs[r];
                if (fin > finish[q.task])
                    finish[q.task] = fin;
                if (--ops_left[q.task] == 0)
                    resolved[q.task] = 1;
                ++head[r];
                --remaining;
                progress = true;
            }
        }
        if (!progress) {
            ADD_FAILURE() << "reference model deadlocked";
            break;
        }
    }
    out.finish = std::move(finish);
    for (double f : out.freeAt)
        out.makespan = out.makespan > f ? out.makespan : f;
    return out;
}

/** Random DAG over `nr` resources: tasks with 1-3 ops, backward deps. */
std::vector<RefTask>
randomDag(std::mt19937 &rng, std::size_t nt, std::size_t nr)
{
    std::uniform_int_distribution<std::size_t> op_count(1, 3);
    std::uniform_int_distribution<std::size_t> res(0, nr - 1);
    std::uniform_real_distribution<double> dur(0.0, 2.0);
    std::vector<RefTask> tasks(nt);
    for (std::size_t t = 0; t < nt; ++t) {
        const std::size_t nops = op_count(rng);
        for (std::size_t i = 0; i < nops; ++i)
            tasks[t].ops.push_back(
                {static_cast<sim::ResourceId>(res(rng)), dur(rng)});
        if (t > 0) {
            std::uniform_int_distribution<std::size_t> dep_count(0, 3);
            std::uniform_int_distribution<sim::TaskId> dep(
                0, static_cast<sim::TaskId>(t - 1));
            const std::size_t ndeps = dep_count(rng);
            for (std::size_t i = 0; i < ndeps; ++i)
                tasks[t].deps.push_back(dep(rng));
        }
    }
    return tasks;
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.memBusy, b.memBusy);
    EXPECT_EQ(a.compBusy, b.compBusy);
    EXPECT_EQ(a.memChannels, b.memChannels);
    EXPECT_EQ(a.computePipes, b.computePipes);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.modOps, b.modOps);
    ASSERT_EQ(a.resources.size(), b.resources.size());
    for (std::size_t r = 0; r < a.resources.size(); ++r) {
        EXPECT_EQ(a.resources[r].name, b.resources[r].name);
        EXPECT_EQ(a.resources[r].busySeconds,
                  b.resources[r].busySeconds);
        EXPECT_EQ(a.resources[r].jobs, b.resources[r].jobs);
    }
}

} // namespace

// --- CompiledSchedule structure and replay ---------------------------

TEST(CompiledSchedule, CsrArraysTrackTasks)
{
    sim::CompiledSchedule cs;
    auto dram = cs.addResource("dram");
    auto pipe = cs.addResource("pipe");
    EXPECT_EQ(cs.resourceCount(), 2u);
    EXPECT_EQ(cs.resourceName(dram), "dram");

    sim::CompiledOp mem;
    mem.resource = dram;
    mem.bytes = 1000.0;
    sim::CompiledOp cmp;
    cmp.resource = pipe;
    cmp.work[0] = 500.0;
    auto t0 = cs.addTask({}, {mem});
    cs.addTask({t0}, {cmp});
    EXPECT_EQ(cs.taskCount(), 2u);
    EXPECT_EQ(cs.opCount(), 2u);
    EXPECT_EQ(cs.depCount(), 1u);
}

TEST(CompiledSchedule, RejectsMalformedTasks)
{
    sim::CompiledSchedule cs;
    auto a = cs.addResource("a");
    sim::CompiledOp op;
    op.resource = a;
    op.seconds = 1.0;
    cs.addTask({}, {op});
    EXPECT_DEATH(cs.addTask({}, {}), "no ops");
    EXPECT_DEATH(cs.addTask({5}, {op}), "forward dependency");
    sim::CompiledOp bad = op;
    bad.resource = a + 7;
    EXPECT_DEATH(cs.addTask({}, {bad}), "unknown resource");
}

TEST(CompiledSchedule, ReplayScalesEachComponentByItsRate)
{
    sim::CompiledSchedule cs;
    auto dram = cs.addResource("dram");
    auto pipe = cs.addResource("pipe");
    sim::CompiledOp mem;
    mem.resource = dram;
    mem.bytes = 1000.0;
    sim::CompiledOp cmp;
    cmp.resource = pipe;
    cmp.work[0] = 600.0; // arith
    cmp.work[1] = 200.0; // shuffle
    auto t0 = cs.addTask({}, {mem});
    cs.addTask({t0}, {cmp});

    sim::ReplayRates rates;
    rates.bytesPerSec = {1e3, 1.0};
    rates.workPerSec[0] = 100.0;
    rates.workPerSec[1] = 100.0;
    sim::ReplayScratch scratch;
    // mem: 1000/1e3 = 1s; compute: max(6, 2) = 6s after the load.
    EXPECT_DOUBLE_EQ(cs.replay(rates, scratch), 7.0);
    EXPECT_DOUBLE_EQ(scratch.finish[0], 1.0);
    EXPECT_DOUBLE_EQ(scratch.finish[1], 7.0);
    EXPECT_DOUBLE_EQ(scratch.busy[pipe], 6.0);
    EXPECT_EQ(scratch.jobs[dram], 1u);

    // Doubling the bandwidth halves only the memory component; the
    // shuffle class dominating the work op is untouched.
    rates.bytesPerSec[0] = 2e3;
    rates.workPerSec[0] = 1000.0; // arith now 0.6s < shuffle 2s
    EXPECT_DOUBLE_EQ(cs.replay(rates, scratch), 2.5);
}

TEST(CompiledSchedule, ReplayRejectsRateCountMismatch)
{
    sim::CompiledSchedule cs;
    auto a = cs.addResource("a");
    cs.addResource("b");
    cs.setLayoutTag(77);
    sim::CompiledOp op;
    op.resource = a;
    op.seconds = 1.0;
    cs.addTask({}, {op});
    sim::ReplayRates rates;
    rates.bytesPerSec = {1.0}; // one entry short
    sim::ReplayScratch scratch;
    // The panic names both counts and the schedule's layout tag, so a
    // stale ReplayRates crossing schedules is diagnosable.
    EXPECT_DEATH(cs.replay(rates, scratch),
                 "different resource count.*rates have 1.*"
                 "layout tag 77.*has 2");
    sim::BatchScratch batch;
    EXPECT_DEATH(cs.replayMany(&rates, 1, batch),
                 "different resource count.*rates have 1.*"
                 "layout tag 77.*has 2");
}

TEST(CompiledSchedule, BulkBuildMatchesIncremental)
{
    // reserve() + the span-style addTask build the identical schedule
    // the vector overload does.
    auto build = [](sim::CompiledSchedule &cs, bool bulk) {
        cs.addResource("dram");
        cs.addResource("pipe");
        if (bulk)
            cs.reserve(3, 2, 4);
        sim::CompiledOp mem;
        mem.resource = 0;
        mem.bytes = 1000.0;
        sim::CompiledOp cmp;
        cmp.resource = 1;
        cmp.work[0] = 600.0;
        cmp.work[1] = 150.0;
        if (bulk) {
            cs.addTask(nullptr, 0, &mem, 1);
            const sim::TaskId d0[1] = {0};
            const sim::CompiledOp both[2] = {mem, cmp};
            cs.addTask(d0, 1, both, 2);
            const sim::TaskId d1[1] = {1};
            cs.addTask(d1, 1, &cmp, 1);
        } else {
            auto t0 = cs.addTask({}, {mem});
            auto t1 = cs.addTask({t0}, {mem, cmp});
            cs.addTask({t1}, {cmp});
        }
    };
    sim::CompiledSchedule inc, bulk;
    build(inc, false);
    build(bulk, true);
    EXPECT_EQ(bulk.taskCount(), inc.taskCount());
    EXPECT_EQ(bulk.opCount(), inc.opCount());
    EXPECT_EQ(bulk.depCount(), inc.depCount());

    sim::ReplayRates rates;
    rates.bytesPerSec = {500.0, 1.0};
    rates.workPerSec[0] = 300.0;
    rates.workPerSec[1] = 100.0;
    sim::ReplayScratch s1, s2;
    EXPECT_EQ(bulk.replay(rates, s1), inc.replay(rates, s2));
    for (std::size_t t = 0; t < inc.taskCount(); ++t)
        EXPECT_EQ(s1.finish[t], s2.finish[t]);
}

TEST(CompiledSchedule, ScratchIsReusedAcrossReplays)
{
    sim::CompiledSchedule cs;
    auto a = cs.addResource("a");
    sim::CompiledOp op;
    op.resource = a;
    op.seconds = 1.0;
    auto t0 = cs.addTask({}, {op});
    cs.addTask({t0}, {op});

    sim::ReplayRates rates;
    rates.bytesPerSec = {1.0};
    sim::ReplayScratch scratch;
    const double first = cs.replay(rates, scratch);
    const double *finish_buf = scratch.finish.data();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(cs.replay(rates, scratch), first);
    // Same buffer across replays: no reallocation on the hot path.
    EXPECT_EQ(scratch.finish.data(), finish_buf);
}

// --- single-pass scheduler vs legacy multi-pass queue walk -----------

TEST(SinglePassScheduler, RandomDagsBitIdenticalToMultiPass)
{
    std::mt19937 rng(20260725);
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t nr = 2 + trial % 4;
        const std::size_t nt = 50 + 37 * (trial % 5);
        std::vector<RefTask> tasks = randomDag(rng, nt, nr);

        RefResult ref = multiPassRun(nr, tasks);

        // Same DAG through the single-pass EventQueue...
        sim::EventQueue eq;
        for (std::size_t r = 0; r < nr; ++r)
            eq.addResource(resName(r));
        for (const RefTask &t : tasks)
            eq.addTask(t.deps, t.ops);
        sim::SimResult got = eq.run();

        // ...and through a CompiledSchedule with fixed-seconds ops.
        sim::CompiledSchedule cs;
        for (std::size_t r = 0; r < nr; ++r)
            cs.addResource(resName(r));
        std::vector<sim::CompiledOp> cops;
        for (const RefTask &t : tasks) {
            cops.clear();
            for (const sim::SimOp &op : t.ops) {
                sim::CompiledOp o;
                o.resource = op.resource;
                o.seconds = op.duration;
                cops.push_back(o);
            }
            cs.addTask(t.deps, cops);
        }
        sim::ReplayRates rates;
        rates.bytesPerSec.assign(nr, 1.0);
        sim::ReplayScratch scratch;
        const double cs_makespan = cs.replay(rates, scratch);

        EXPECT_EQ(got.makespan, ref.makespan) << "trial " << trial;
        EXPECT_EQ(cs_makespan, ref.makespan) << "trial " << trial;
        ASSERT_EQ(got.taskFinish.size(), nt);
        for (std::size_t t = 0; t < nt; ++t) {
            ASSERT_EQ(got.taskFinish[t], ref.finish[t])
                << "trial " << trial << " task " << t;
            ASSERT_EQ(scratch.finish[t], ref.finish[t])
                << "trial " << trial << " task " << t;
        }
        for (std::size_t r = 0; r < nr; ++r) {
            EXPECT_EQ(got.resources[r].busySeconds, ref.busy[r]);
            EXPECT_EQ(got.resources[r].jobs, ref.jobs[r]);
            EXPECT_EQ(scratch.busy[r], ref.busy[r]);
            EXPECT_EQ(scratch.jobs[r], ref.jobs[r]);
        }
    }
}

// --- batched replayMany vs scalar replay -----------------------------

namespace
{

/**
 * Random compiled DAG mixing bytes/work/seconds, zero-cost ops (every
 * cost numerator 0) and postSeconds.
 */
sim::CompiledSchedule
randomCompiledDag(std::mt19937 &rng, std::size_t nt, std::size_t nr)
{
    sim::CompiledSchedule cs;
    for (std::size_t r = 0; r < nr; ++r)
        cs.addResource(resName(r));
    std::uniform_int_distribution<std::size_t> op_count(1, 3);
    std::uniform_int_distribution<std::size_t> res(0, nr - 1);
    std::uniform_int_distribution<int> kind(0, 4);
    std::uniform_real_distribution<double> mag(0.5, 2000.0);
    std::uniform_real_distribution<double> post(0.0, 0.5);
    std::vector<sim::TaskId> deps;
    std::vector<sim::CompiledOp> ops;
    for (std::size_t t = 0; t < nt; ++t) {
        ops.clear();
        const std::size_t nops = op_count(rng);
        for (std::size_t i = 0; i < nops; ++i) {
            sim::CompiledOp o;
            o.resource = static_cast<sim::ResourceId>(res(rng));
            switch (kind(rng)) {
            case 0:
                o.bytes = mag(rng);
                break;
            case 1:
                o.work[0] = mag(rng);
                break;
            case 2:
                o.work[0] = mag(rng);
                o.work[1] = mag(rng);
                break;
            case 3:
                o.seconds = mag(rng) * 1e-3;
                break;
            default:
                // Zero-cost: every component is skipped and the op
                // takes 0 s on every lane.
                break;
            }
            // Two ops in five pipeline a propagation delay, so the
            // batched path is exercised with postSeconds != 0.
            if (kind(rng) < 2)
                o.postSeconds = post(rng);
            ops.push_back(o);
        }
        deps.clear();
        if (t > 0) {
            std::uniform_int_distribution<std::size_t> dep_count(0, 3);
            std::uniform_int_distribution<sim::TaskId> dep(
                0, static_cast<sim::TaskId>(t - 1));
            const std::size_t ndeps = dep_count(rng);
            for (std::size_t i = 0; i < ndeps; ++i)
                deps.push_back(dep(rng));
        }
        cs.addTask(deps, ops);
    }
    return cs;
}

/**
 * Random replay point over `nr` resources. About one rate in eight is
 * +inf, the free resource or work class checkReplay accepts: every
 * payload it serves divides to exactly 0 s.
 */
sim::ReplayRates
randomRates(std::mt19937 &rng, std::size_t nr)
{
    std::uniform_real_distribution<double> rate(1.0, 5000.0);
    std::bernoulli_distribution free(0.125);
    const auto draw = [&] {
        return free(rng) ? std::numeric_limits<double>::infinity()
                         : rate(rng);
    };
    sim::ReplayRates r;
    r.bytesPerSec.resize(nr);
    for (std::size_t i = 0; i < nr; ++i)
        r.bytesPerSec[i] = draw();
    r.workPerSec[0] = draw();
    r.workPerSec[1] = draw();
    return r;
}

} // namespace

TEST(BatchedReplay, RandomDagsBitIdenticalToScalarOnAllLanes)
{
    std::mt19937 rng(20260726);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t nr = 2 + trial % 4;
        const std::size_t nt = 40 + 31 * (trial % 5);
        const sim::CompiledSchedule cs = randomCompiledDag(rng, nt, nr);

        // One full block: every lane must reproduce its scalar replay
        // to the bit — makespan, per-task finish, per-resource busy
        // seconds and job counts.
        std::vector<sim::ReplayRates> pts;
        for (std::size_t l = 0; l < sim::kBatchLanes; ++l)
            pts.push_back(randomRates(rng, nr));
        sim::BatchScratch batch;
        cs.replayMany(pts.data(), pts.size(), batch);

        for (std::size_t l = 0; l < pts.size(); ++l) {
            sim::ReplayScratch scalar;
            const double makespan = cs.replay(pts[l], scalar);
            ASSERT_EQ(batch.makespan[l], makespan)
                << "trial " << trial << " lane " << l;
            for (std::size_t t = 0; t < nt; ++t)
                ASSERT_EQ(batch.finish[t * pts.size() + l],
                          scalar.finish[t])
                    << "trial " << trial << " lane " << l << " task "
                    << t;
            for (std::size_t r = 0; r < nr; ++r) {
                ASSERT_EQ(batch.busy[r * pts.size() + l],
                          scalar.busy[r])
                    << "trial " << trial << " lane " << l;
                ASSERT_EQ(batch.jobs[r], scalar.jobs[r]);
            }
        }
    }
}

TEST(BatchedReplay, DegenerateAndTailBatchWidths)
{
    std::mt19937 rng(20260727);
    const std::size_t nr = 3, nt = 120;
    const sim::CompiledSchedule cs = randomCompiledDag(rng, nt, nr);

    // Odd batch sizes: B=1 (degenerate), a sub-block, and a size that
    // forces full blocks plus a tail. Every makespan must equal the
    // scalar replay at its point.
    for (std::size_t n :
         {std::size_t{1}, sim::kBatchLanes - 1,
          2 * sim::kBatchLanes + 3}) {
        std::vector<sim::ReplayRates> pts;
        for (std::size_t i = 0; i < n; ++i)
            pts.push_back(randomRates(rng, nr));
        sim::BatchScratch batch;
        cs.replayMany(pts.data(), n, batch);
        for (std::size_t i = 0; i < n; ++i) {
            sim::ReplayScratch scalar;
            EXPECT_EQ(batch.makespan[i], cs.replay(pts[i], scalar))
                << "n=" << n << " point " << i;
        }
        // The tail block runs at full width: its lane buffers keep the
        // kBatchLanes stride, the real lanes hold their points' scalar
        // state and the spare lanes repeat the last point.
        const std::size_t base =
            (n - 1) / sim::kBatchLanes * sim::kBatchLanes;
        for (std::size_t l = 0; l < sim::kBatchLanes; ++l) {
            const std::size_t i = std::min(base + l, n - 1);
            sim::ReplayScratch scalar;
            cs.replay(pts[i], scalar);
            for (std::size_t t = 0; t < nt; ++t)
                ASSERT_EQ(batch.finish[t * sim::kBatchLanes + l],
                          scalar.finish[t])
                    << "n=" << n << " lane " << l << " task " << t;
            for (std::size_t r = 0; r < nr; ++r) {
                ASSERT_EQ(batch.busy[r * sim::kBatchLanes + l],
                          scalar.busy[r])
                    << "n=" << n << " lane " << l << " resource " << r;
                ASSERT_EQ(batch.jobs[r], scalar.jobs[r]);
            }
        }
    }
}

TEST(BatchedReplay, ExperimentBatchMatchesScalarAcrossConfigMatrix)
{
    // The acceptance matrix: paper sweep x dataflows x fused/split x
    // multi-channel, batched through simulateRuntimeMany and compared
    // bit-for-bit against per-point simulateRuntime.
    const HksParams &b = benchmarkByName("ARK");
    MemoryConfig mem{32ull << 20, false};
    for (Dataflow d : allDataflows()) {
        HksExperiment exp(b, d, mem);
        for (bool split : {false, true}) {
            for (std::size_t chans : {1u, 2u}) {
                std::vector<RpuConfig> cfgs;
                for (double bw : paperBandwidthSweep()) {
                    for (double mult : {1.0, 2.0}) {
                        RpuConfig cfg;
                        cfg.bandwidthGBps = bw;
                        cfg.modopsMult = mult;
                        cfg.splitComputePipes = split;
                        cfg.memChannels = chans;
                        cfgs.push_back(cfg);
                    }
                }
                std::vector<double> batched(cfgs.size());
                exp.simulateRuntimeMany(cfgs.data(), cfgs.size(),
                                        batched.data());
                for (std::size_t i = 0; i < cfgs.size(); ++i)
                    EXPECT_EQ(batched[i], exp.simulateRuntime(cfgs[i]))
                        << "point " << i;
            }
        }
    }
}

TEST(BatchedReplay, BandwidthOverloadMatchesScalarSweep)
{
    const HksParams &b = benchmarkByName("BTS1");
    HksExperiment exp(b, Dataflow::OC, MemoryConfig{32ull << 20, true});
    const std::vector<double> &grid = paperBandwidthSweepExtended();
    const std::vector<double> batched =
        exp.simulateRuntimeMany(grid, 2.0);
    ASSERT_EQ(batched.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(batched[i], exp.simulateRuntime(grid[i], 2.0));
}

TEST(BatchedReplay, RejectsMixedLayoutsInOneBatch)
{
    const HksParams &b = benchmarkByName("BTS1");
    HksExperiment exp(b, Dataflow::OC, MemoryConfig{32ull << 20, true});
    std::vector<RpuConfig> cfgs(2);
    cfgs[1].memChannels = 4; // layout-changing knob
    std::vector<double> out(2);
    EXPECT_DEATH(
        exp.simulateRuntimeMany(cfgs.data(), cfgs.size(), out.data()),
        "share one compiled layout");
}

// --- compiled vs rebuild on the paper experiments --------------------

class CompiledVsRebuild : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CompiledVsRebuild, PaperSweepAllDataflowsAndPipeConfigs)
{
    const HksParams &b = benchmarkByName(GetParam());
    MemoryConfig mem{32ull << 20, false};
    for (Dataflow d : allDataflows()) {
        HksExperiment exp(b, d, mem);
        for (bool split : {false, true}) {
            for (double bw : paperBandwidthSweep()) {
                RpuConfig cfg;
                cfg.bandwidthGBps = bw;
                cfg.splitComputePipes = split;
                cfg.dataMemBytes = mem.dataCapacityBytes;
                cfg.evkOnChip = mem.evkOnChip;
                SimStats compiled = exp.simulate(cfg);
                SimStats rebuilt =
                    RpuEngine(cfg).runRebuild(exp.graph());
                expectSameStats(compiled, rebuilt);
                EXPECT_EQ(exp.simulateRuntime(bw), compiled.runtime);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PaperBenchmarks, CompiledVsRebuild,
                         ::testing::Values("ARK", "BTS1"));

TEST(CompiledVsRebuildConfigs, MultiChannelAndEvkDedicated)
{
    const HksParams &b = benchmarkByName("ARK");
    MemoryConfig mem{32ull << 20, false};
    HksExperiment exp(b, Dataflow::OC, mem);
    for (std::size_t chans : {2u, 4u}) {
        for (ChannelPolicy pol :
             {ChannelPolicy::Interleave, ChannelPolicy::EvkDedicated}) {
            RpuConfig cfg;
            cfg.bandwidthGBps = 64.0;
            cfg.memChannels = chans;
            cfg.channelPolicy = pol;
            cfg.splitComputePipes = true;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            expectSameStats(exp.simulate(cfg),
                            RpuEngine(cfg).runRebuild(exp.graph()));
        }
    }
}

TEST(CompiledVsRebuildConfigs, ModopsMultiplierSweep)
{
    const HksParams &b = benchmarkByName("BTS1");
    MemoryConfig mem{32ull << 20, true};
    HksExperiment exp(b, Dataflow::MP, mem);
    for (double mult : {1.0, 2.0, 4.0, 8.0, 16.0}) {
        RpuConfig cfg;
        cfg.bandwidthGBps = 128.0;
        cfg.modopsMult = mult;
        cfg.dataMemBytes = mem.dataCapacityBytes;
        cfg.evkOnChip = mem.evkOnChip;
        expectSameStats(exp.simulate(cfg),
                        RpuEngine(cfg).runRebuild(exp.graph()));
        EXPECT_EQ(exp.simulateRuntime(128.0, mult),
                  exp.simulate(128.0, mult).runtime);
    }
}

TEST(CompiledSchedule, ReplayRejectsLayoutMismatch)
{
    // Same resource count, different placement policy: the layout tag
    // must catch what the resource-count check cannot.
    const HksParams &b = benchmarkByName("ARK");
    MemoryConfig mem{32ull << 20, false};
    HksExperiment exp(b, Dataflow::OC, mem);
    RpuConfig interleave;
    interleave.memChannels = 2;
    sim::CompiledSchedule cs = RpuEngine(interleave).compile(exp.graph());
    RpuConfig dedicated = interleave;
    dedicated.channelPolicy = ChannelPolicy::EvkDedicated;
    EXPECT_EQ(RpuEngine(interleave).replayRuntime(cs),
              RpuEngine(interleave).replayRuntime(cs));
    EXPECT_DEATH(RpuEngine(dedicated).replayRuntime(cs),
                 "layout does not match");
}

TEST(CompiledSchedule, ExperimentExposesCompiledDefaultLayout)
{
    const HksParams &b = benchmarkByName("ARK");
    HksExperiment exp(b, Dataflow::OC, MemoryConfig{32ull << 20, true});
    const sim::CompiledSchedule &cs = exp.compiled();
    // Default layout: one channel plus one fused pipe.
    EXPECT_EQ(cs.resourceCount(), 2u);
    EXPECT_EQ(cs.taskCount(), exp.graph().size());
}
