/**
 * @file
 * Auto-tuner explorer: a small CLI over the tune stack.
 *
 * Usage:
 *   auto_tuner [benchmark] [grid|cd|hillclimb] [stream|onchip]
 *              [max_shards]
 *
 * Defaults: ARK cd stream 1. Tunes the joint (dataflow, capacity,
 * bandwidth, channels, MODOPS) space — plus shard count and topology
 * when max_shards > 1 — and prints the best configuration, the
 * evaluation accounting (with the multi-chip cuts computed and the
 * ones reused from the tuner's partition memo), and the Pareto
 * frontier over (runtime, aggregate bandwidth, aggregate capacity).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/units.h"
#include "tune/tuner.h"

using namespace ciflow;
using namespace ciflow::tune;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "ARK";
    const std::string strat = argc > 2 ? argv[2] : "cd";
    const bool onchip = argc > 3 ? std::string(argv[3]) == "onchip"
                                 : false;
    // Clamp to [1, 64]: atoi on junk/negatives must not explode the
    // shard axis.
    const int shards_arg = argc > 4 ? std::atoi(argv[4]) : 1;
    const std::size_t max_shards = static_cast<std::size_t>(
        std::max(1, std::min(64, shards_arg)));

    const HksParams &par = benchmarkByName(bench);

    TuneSpace sp = paperJointSpace(par, onchip);
    if (max_shards > 1) {
        sp.shardCounts.clear();
        for (std::size_t k = 1; k <= max_shards; k *= 2)
            sp.shardCounts.push_back(k);
        sp.topologies = {shard::Topology::SharedBus,
                         shard::Topology::PointToPoint};
        sp.interconnect.linkGBps = 256.0;
        sp.interconnect.latencySec = 2e-6;
    }

    TuneOptions opts;
    if (strat == "grid")
        opts.strategy = Strategy::ExhaustiveGrid;
    else if (strat == "hillclimb")
        opts.strategy = Strategy::RandomRestartHillClimb;
    else
        opts.strategy = Strategy::CoordinateDescent;

    std::printf("%s\n", par.describe().c_str());
    std::printf("space: %zu points, evk %s, strategy %s\n\n",
                sp.pointCount(), onchip ? "on-chip" : "streamed",
                strategyName(opts.strategy));

    ExperimentRunner runner;
    Tuner tuner(runner, par, sp);
    const TuneResult r = tuner.tune(opts);

    std::printf("best: %s\n", r.best.point.describe().c_str());
    std::printf("  runtime %.3f ms, %g GB/s aggregate, %s aggregate "
                "capacity\n",
                r.best.m.runtime * 1e3, r.best.m.aggregateGBps,
                formatBytes(static_cast<std::uint64_t>(
                                r.best.m.capacityBytes))
                    .c_str());
    std::printf("  evaluated %zu of %zu points (%.1f%%), %zu cache "
                "hits, %zu rounds, %zu partitions, %zu partition "
                "hits\n\n",
                r.evaluations, r.spaceSize, r.evalFraction() * 100.0,
                r.cacheHits, r.rounds, tuner.partitions(),
                tuner.partitionHits());

    std::printf("Pareto frontier (runtime vs aggregate bandwidth vs "
                "capacity), fastest first:\n");
    std::printf("  %9s %9s %9s  %s\n", "ms", "GB/s", "capacity",
                "configuration");
    for (const TunedPoint &p : r.frontier)
        std::printf("  %9.3f %9g %9s  %s\n", p.m.runtime * 1e3,
                    p.m.aggregateGBps,
                    formatBytes(static_cast<std::uint64_t>(
                                    p.m.capacityBytes))
                        .c_str(),
                    p.point.describe().c_str());
    return 0;
}
