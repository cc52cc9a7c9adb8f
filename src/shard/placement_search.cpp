#include "shard/placement_search.h"

#include <algorithm>

#include "common/logging.h"

namespace ciflow::shard
{

ShardSpec
placementShardSpec(const HksParams &par, std::size_t shards,
                   PartitionStrategy strategy, double imbalance_tol)
{
    ShardSpec ss;
    ss.shards = shards;
    ss.strategy = strategy;
    ss.imbalanceTol = imbalance_tol;
    ss.computeOutputBytes = par.towerBytes();
    return ss;
}

namespace
{

/** Replay one bound placement point and package its PlacementEval. */
PlacementEval
evalOf(const ShardedEngine &eng, const ShardedCompiled &sc,
       const Partition &p)
{
    PlacementEval e;
    e.runtime = eng.replayRuntime(sc);
    e.cutBytes = p.cutBytes;
    e.transferTasks = sc.transferTasks;
    e.imbalance = p.imbalance();
    return e;
}

} // namespace

PlacementEval
evaluatePlacement(const TaskGraph &g, const Partition &p,
                  const RpuConfig &chip, const InterconnectConfig &net)
{
    const ShardedEngine eng(chip, net);
    return evalOf(eng, eng.compile(g, p), p);
}

PlacementEval
evaluatePlacement(const HksExperiment &exp, const Partition &p,
                  const RpuConfig &chip, const InterconnectConfig &net)
{
    // One bound schedule per thread, rebound point after point, like
    // the engines' replay scratch.
    thread_local ShardedCompiled sc;
    const ShardedEngine eng(chip, net);
    eng.bind(exp, p, sc);
    return evalOf(eng, sc, p);
}

std::vector<PlacementResult>
searchPlacements(ExperimentRunner &runner, const HksParams &par,
                 const MemoryConfig &mem, const PlacementSpec &spec)
{
    if (const sim::Error err = checkInterconnect(spec.interconnect))
        fatal("placement search interconnect: " + err.message());
    // The chips simulate the graph the experiment was built against,
    // so their memory-system fields must match it.
    RpuConfig chip = spec.chip;
    chip.dataMemBytes = mem.dataCapacityBytes;
    chip.evkOnChip = mem.evkOnChip;

    // Phase 1: one partition per (dataflow, shard count, strategy) —
    // the cut does not depend on the topology, so it is computed once
    // and shared across the topology grid points. The cuts of one
    // dataflow share its graph prep and weights.
    struct Cut
    {
        std::shared_ptr<const HksExperiment> exp;
        /** The dataflow's graph prep, shared by all of its cuts. */
        std::shared_ptr<const PartitionPrep> prep;
        std::shared_ptr<const std::vector<double>> weights;
        /** Single-RPU runtime of the dataflow. */
        double baseline = 0.0;
        Dataflow dataflow = Dataflow::OC;
        std::size_t shards = 1;
        PartitionStrategy strategy =
            PartitionStrategy::ContiguousByLevel;
        Partition partition;
    };
    std::vector<Cut> cuts;
    for (Dataflow d : spec.dataflows) {
        auto exp = runner.experiment(par, d, mem);
        auto prep = std::make_shared<const PartitionPrep>(
            exp->graph(), par.towerBytes(), chip.vectorLen);
        auto weights = std::make_shared<const std::vector<double>>(
            taskWeights(*prep, chip));
        const double baseline = exp->simulateRuntime(chip);
        bool k1_done = false;
        for (std::size_t k : spec.shardCounts) {
            for (PartitionStrategy strat : spec.strategies) {
                if (k == 1) {
                    // Strategy is vacuous with no cut; keep a single
                    // K=1 partition per dataflow.
                    if (k1_done)
                        continue;
                    k1_done = true;
                }
                Cut c;
                c.exp = exp;
                c.prep = prep;
                c.weights = weights;
                c.baseline = baseline;
                c.dataflow = d;
                c.shards = k;
                c.strategy = strat;
                cuts.push_back(std::move(c));
            }
        }
    }
    std::vector<std::function<void()>> jobs;
    jobs.reserve(cuts.size());
    for (Cut &c : cuts) {
        jobs.push_back([&c, &spec, &par] {
            c.partition = partitionGraph(
                *c.prep,
                placementShardSpec(par, c.shards, c.strategy,
                                   spec.imbalanceTol),
                *c.weights);
        });
    }
    runner.runAll(jobs);

    // Phase 2: bind each (cut, topology) grid point once from the
    // experiment's compiled schedule and replay it. K=1 needs no
    // topology sweep — there are no links.
    struct Job
    {
        const Cut *cut = nullptr;
        Topology topology = Topology::PointToPoint;
        PlacementResult result;
    };
    std::vector<Job> grid;
    for (const Cut &c : cuts) {
        for (Topology topo : spec.topologies) {
            Job j;
            j.cut = &c;
            j.topology = topo;
            grid.push_back(std::move(j));
            if (c.shards == 1)
                break;
        }
    }
    jobs.clear();
    jobs.reserve(grid.size());
    for (Job &j : grid) {
        jobs.push_back([&j, &chip, &spec] {
            const Cut &c = *j.cut;
            InterconnectConfig net = spec.interconnect;
            net.topology = j.topology;
            const ShardedEngine eng(chip, net);
            const ShardedCompiled sc = eng.compile(*c.exp, c.partition);
            PlacementResult &r = j.result;
            r.dataflow = c.dataflow;
            r.shards = c.shards;
            r.topology = j.topology;
            r.strategy = c.strategy;
            r.runtime = eng.replayRuntime(sc);
            r.baseline = c.baseline;
            r.cutBytes = c.partition.cutBytes;
            r.transferTasks = sc.transferTasks;
            r.imbalance = c.partition.imbalance();
        });
    }
    runner.runAll(jobs);

    std::vector<PlacementResult> out;
    out.reserve(grid.size());
    for (const Job &j : grid)
        out.push_back(j.result);
    std::stable_sort(out.begin(), out.end(),
                     [](const PlacementResult &a,
                        const PlacementResult &b) {
                         return a.runtime < b.runtime;
                     });
    return out;
}

} // namespace ciflow::shard
