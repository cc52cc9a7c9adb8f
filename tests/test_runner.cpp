/**
 * @file
 * Tests for ExperimentRunner: parallel sweeps must be bit-identical to
 * serial evaluation, the graph cache must share experiments, and the
 * pool must survive mixed workloads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "rpu/runner.h"

using namespace ciflow;

namespace
{

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.memBusy, b.memBusy);
    EXPECT_EQ(a.compBusy, b.compBusy);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.modOps, b.modOps);
}

} // namespace

TEST(Runner, ThreadCountDefaultsToHardware)
{
    ExperimentRunner r;
    EXPECT_GE(r.threadCount(), 1u);
    ExperimentRunner r4(4);
    EXPECT_EQ(r4.threadCount(), 4u);
}

TEST(Runner, CacheSharesExperimentsPerKey)
{
    ExperimentRunner r(2);
    const HksParams &b = benchmarkByName("ARK");
    MemoryConfig mem{32ull << 20, true};
    auto e1 = r.experiment(b, Dataflow::OC, mem);
    auto e2 = r.experiment(b, Dataflow::OC, mem);
    EXPECT_EQ(e1.get(), e2.get());
    EXPECT_EQ(r.cachedExperiments(), 1u);

    // Any key ingredient change is a different experiment.
    auto e3 = r.experiment(b, Dataflow::MP, mem);
    EXPECT_NE(e1.get(), e3.get());
    MemoryConfig streamed{32ull << 20, false};
    auto e4 = r.experiment(b, Dataflow::OC, streamed);
    EXPECT_NE(e1.get(), e4.get());
    EXPECT_EQ(r.cachedExperiments(), 3u);
}

TEST(Runner, ParallelSweepMatchesSerialExactly)
{
    const HksParams &b = benchmarkByName("BTS2");
    MemoryConfig mem{32ull << 20, false};
    ExperimentRunner runner(4);
    auto exp = runner.experiment(b, Dataflow::OC, mem);

    std::vector<SweepPoint> points;
    for (double bw : paperBandwidthSweepExtended())
        for (double m : {1.0, 2.0, 4.0})
            points.push_back({bw, m});

    std::vector<SimStats> parallel = runner.sweep(*exp, points);
    ASSERT_EQ(parallel.size(), points.size());

    ExperimentRunner serial(1);
    std::vector<SimStats> one_thread = serial.sweep(*exp, points);

    for (std::size_t i = 0; i < points.size(); ++i) {
        SimStats direct = exp->simulate(points[i].bandwidthGBps,
                                        points[i].modopsMult);
        expectSameStats(parallel[i], direct);
        expectSameStats(one_thread[i], direct);
    }
}

TEST(Runner, SweepRuntimesMatchesPerPointPathExactly)
{
    // The batched fast path (kBatchLanes-sized jobs through
    // simulateRuntimeMany) must return exactly the runtimes of the
    // serial per-point path, in point order, from both a parallel and
    // a single-thread pool.
    const HksParams &b = benchmarkByName("BTS2");
    MemoryConfig mem{32ull << 20, false};
    ExperimentRunner runner(4);
    auto exp = runner.experiment(b, Dataflow::OC, mem);

    std::vector<SweepPoint> points;
    for (double bw : paperBandwidthSweepExtended())
        for (double m : {1.0, 2.0, 4.0})
            points.push_back({bw, m});

    const std::vector<double> parallel =
        runner.sweepRuntimes(*exp, points);
    ASSERT_EQ(parallel.size(), points.size());

    ExperimentRunner serial(1);
    const std::vector<double> one_thread =
        serial.sweepRuntimes(*exp, points);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const double direct = exp->simulateRuntime(
            points[i].bandwidthGBps, points[i].modopsMult);
        EXPECT_EQ(parallel[i], direct) << i;
        EXPECT_EQ(one_thread[i], direct) << i;
    }

    // The bandwidth overload agrees with the SweepPoint one.
    const std::vector<double> &bws = paperBandwidthSweep();
    const std::vector<double> rts = runner.sweepRuntimes(*exp, bws);
    for (std::size_t i = 0; i < bws.size(); ++i)
        EXPECT_EQ(rts[i], exp->simulateRuntime(bws[i]));
}

TEST(Runner, BandwidthSweepKeepsPointOrder)
{
    const HksParams &b = benchmarkByName("ARK");
    ExperimentRunner runner(3);
    auto exp =
        runner.experiment(b, Dataflow::MP, MemoryConfig{32ull << 20, true});
    const std::vector<double> &bws = paperBandwidthSweep();
    std::vector<SimStats> stats = runner.sweep(*exp, bws);
    ASSERT_EQ(stats.size(), bws.size());
    // Runtime is monotone in bandwidth, so order preservation shows up
    // as a sorted result column.
    for (std::size_t i = 1; i < stats.size(); ++i)
        EXPECT_LE(stats[i].runtime, stats[i - 1].runtime * (1 + 1e-12));
}

TEST(Runner, SweepConfigsCoversMultiChannel)
{
    const HksParams &b = benchmarkByName("ARK");
    ExperimentRunner runner(2);
    auto exp = runner.experiment(b, Dataflow::OC,
                                 MemoryConfig{32ull << 20, false});
    std::vector<RpuConfig> cfgs(3);
    cfgs[0].bandwidthGBps = 64.0;
    cfgs[1].bandwidthGBps = 64.0;
    cfgs[1].memChannels = 4;
    cfgs[2].bandwidthGBps = 64.0;
    cfgs[2].memChannels = 4;
    cfgs[2].channelPolicy = ChannelPolicy::EvkDedicated;
    std::vector<SimStats> stats = runner.sweepConfigs(*exp, cfgs);
    ASSERT_EQ(stats.size(), 3u);
    EXPECT_EQ(stats[0].memChannels, 1u);
    EXPECT_EQ(stats[1].memChannels, 4u);
    // Multi-channel placement changes the schedule.
    EXPECT_NE(stats[1].runtime, stats[0].runtime);
}

TEST(Runner, RunAllExecutesEveryJobOnce)
{
    ExperimentRunner runner(4);
    std::atomic<int> counter{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back([&counter] { ++counter; });
    runner.runAll(jobs);
    EXPECT_EQ(counter.load(), 64);
    runner.runAll({}); // empty set is a no-op
    EXPECT_EQ(counter.load(), 64);
}

TEST(Runner, RunAllNestsFromPoolWorkers)
{
    // Jobs that themselves runAll on the same runner: the calling
    // worker must help drain the queue instead of stranding its slot
    // (with 2 workers and 4 fanning-out jobs, blocking would deadlock).
    ExperimentRunner runner(2);
    std::atomic<int> counter{0};
    std::vector<std::function<void()>> outer;
    for (int i = 0; i < 4; ++i)
        outer.push_back([&] {
            std::vector<std::function<void()>> inner;
            for (int j = 0; j < 8; ++j)
                inner.push_back([&counter] { ++counter; });
            runner.runAll(inner);
        });
    runner.runAll(outer);
    EXPECT_EQ(counter.load(), 32);
}

TEST(Runner, SweepInsidePoolJobsMatchesDirect)
{
    // The table4_ocbase pattern: per-benchmark jobs on the pool, each
    // evaluating the paper grid with a nested parallel sweep.
    ExperimentRunner runner(2);
    const std::vector<std::string> names = {"ARK", "BTS1"};
    std::vector<double> got(names.size(), 0.0);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < names.size(); ++i)
        jobs.push_back([&, i] {
            got[i] = ocBaseBandwidth(runner, benchmarkByName(names[i]));
        });
    runner.runAll(jobs);
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(got[i], ocBaseBandwidth(benchmarkByName(names[i])))
            << names[i];
}

TEST(Runner, CachedHelpersMatchDirectOnes)
{
    ExperimentRunner runner(2);
    for (const char *name : {"ARK", "BTS1"}) {
        const HksParams &b = benchmarkByName(name);
        EXPECT_EQ(baselineRuntime(runner, b), baselineRuntime(b)) << name;
        EXPECT_EQ(ocBaseBandwidth(runner, b), ocBaseBandwidth(b)) << name;
    }
    // Both helpers populate the cache (MP + OC on-chip experiments).
    EXPECT_GE(runner.cachedExperiments(), 4u);
}

TEST(Runner, ConcurrentExperimentLookupsShareOneBuild)
{
    ExperimentRunner runner(4);
    const HksParams &b = benchmarkByName("DPRIVE");
    MemoryConfig mem{32ull << 20, true};
    std::vector<std::shared_ptr<const HksExperiment>> got(8);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < got.size(); ++i)
        jobs.push_back(
            [&, i] { got[i] = runner.experiment(b, Dataflow::DC, mem); });
    runner.runAll(jobs);
    for (const auto &e : got) {
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e.get(), got[0].get());
    }
    EXPECT_EQ(runner.cachedExperiments(), 1u);
}

TEST(Runner, RacingRequestersOfOneKeyCountOneMissAndOneBuild)
{
    // For each key, threads released together on it while it is not
    // cached: one of them builds, the others wait for that build and
    // count hits.
    ExperimentRunner runner(1);
    const MemoryConfig mem{32ull << 20, false};
    constexpr std::size_t kThreads = 8;
    std::size_t keys = 0;
    for (const HksParams &b : paperBenchmarks()) {
        for (Dataflow d : allDataflows()) {
            std::vector<std::shared_ptr<const HksExperiment>> got(kThreads);
            std::atomic<std::size_t> ready{0};
            std::vector<std::thread> threads;
            for (std::size_t i = 0; i < kThreads; ++i) {
                threads.emplace_back([&, i] {
                    ready.fetch_add(1);
                    while (ready.load() < kThreads)
                        std::this_thread::yield();
                    got[i] = runner.experiment(b, d, mem);
                });
            }
            for (std::thread &t : threads)
                t.join();
            for (const auto &e : got) {
                ASSERT_NE(e, nullptr);
                EXPECT_EQ(e.get(), got[0].get());
            }
            ++keys;
            EXPECT_EQ(runner.cacheMisses(), keys) << b.name;
            EXPECT_EQ(runner.cacheHits(), keys * (kThreads - 1)) << b.name;
            EXPECT_EQ(runner.cachedExperiments(), keys) << b.name;
        }
    }
}
