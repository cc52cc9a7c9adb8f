#include "tune/tuner.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "common/rng.h"
#include "fault/monte_carlo.h"
#include "shard/placement_search.h"

namespace ciflow::tune
{

const char *
strategyName(Strategy s)
{
    switch (s) {
    case Strategy::ExhaustiveGrid:
        return "grid";
    case Strategy::CoordinateDescent:
        return "cd";
    case Strategy::RandomRestartHillClimb:
        return "hillclimb";
    }
    return "?";
}

double
TuneResult::evalFraction() const
{
    return spaceSize > 0 ? static_cast<double>(evaluations) /
                               static_cast<double>(spaceSize)
                         : 0.0;
}

std::vector<TunedPoint>
paretoFrontier(const std::vector<TunedPoint> &pts)
{
    std::vector<TunedPoint> out;
    for (const TunedPoint &p : pts) {
        bool dominated = false;
        for (const TunedPoint &q : pts)
            if (&q != &p && q.m.dominates(p.m)) {
                dominated = true;
                break;
            }
        if (!dominated)
            out.push_back(p);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TunedPoint &a, const TunedPoint &b) {
                         return a.m.runtime < b.m.runtime;
                     });
    return out;
}

Tuner::Tuner(ExperimentRunner &runner_, const HksParams &par_,
             TuneSpace space)
    : runner(runner_), par(par_), sp(std::move(space))
{
    sp.validate();
}

Tuner::Tuner(ExperimentRunner &runner_, const HksParams &par_,
             TuneSpace space, const FaultObjective &objective)
    : runner(runner_), par(par_), sp(std::move(space)),
      fobj(objective)
{
    sp.validate();
    panicIf(fobj->scenarios == 0,
            "fault objective needs at least one scenario");
}

EvalKey
Tuner::keyOf(const TunePoint &p) const
{
    EvalKey key;
    key.graph = ExperimentKey::of(par, p.dataflow, sp.memoryConfig(p));
    key.bandwidthGBps = p.bandwidthGBps;
    key.modopsMult = p.modopsMult;
    key.memChannels = p.memChannels;
    // Canonicalize knobs that are vacuous at this point so physically
    // identical configurations share one cache entry: topology and
    // partition strategy do nothing without a cut, channel policy and
    // skew do nothing on a single channel.
    if (p.memChannels > 1) {
        key.channelSkew = p.channelSkew;
        key.channelPolicy = p.channelPolicy;
    }
    if (p.shards > 1) {
        key.shards = p.shards;
        key.topology = p.topology;
        key.strategy = p.strategy;
    }
    return key;
}

Measurement
Tuner::evaluate(const std::vector<std::size_t> &idx)
{
    const TunePoint p = sp.at(idx);
    const EvalKey key = keyOf(p);
    Measurement m;
    if (cache.lookup(key, m))
        return m;
    m = evaluateUncached(p);
    cache.insert(key, m);
    return m;
}

std::vector<Measurement>
Tuner::evaluateAll(const std::vector<std::vector<std::size_t>> &pts)
{
    std::vector<Measurement> res(pts.size());
    // Deduplicate by *canonical key*: tuples differing only in vacuous
    // knobs evaluate once and copy the result, so no two concurrent
    // jobs race to fill the same cache entry and the hit/miss
    // accounting is deterministic under parallelism.
    std::unordered_map<EvalKey, std::size_t, EvalKeyHash> first;
    std::vector<std::size_t> owner(pts.size());
    // Distinct single-chip keys, grouped by everything that shapes the
    // graph: members of one group differ only in channel layout and
    // rate knobs, and replay as one batch per layout. Multi-chip
    // points keep scalar per-point jobs (their partitions change the
    // layout).
    std::unordered_map<EvalKey, std::vector<std::size_t>, EvalKeyHash>
        groups;
    std::vector<std::size_t> scalar;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const TunePoint p = sp.at(pts[i]);
        const auto [it, inserted] = first.emplace(keyOf(p), i);
        owner[i] = it->second;
        if (!inserted)
            continue;
        // Fault-objective points always go scalar: their score is a
        // Monte Carlo scenario sweep, not one replay a batch could
        // serve.
        if (p.shards > 1 || fobj) {
            scalar.push_back(i);
            continue;
        }
        // The group key: the canonical key with every rate knob AND
        // every channel-layout knob pinned, so one group holds all
        // single-chip points of one graph (benchmark, dataflow,
        // capacity, evk residency). Members spanning channel layouts
        // are layout-adjacent: evaluateBatch sorts them by layout and
        // replays each run of one layout from the experiment's layout
        // cache.
        EvalKey gk = keyOf(p);
        gk.bandwidthGBps = 0.0;
        gk.modopsMult = 0.0;
        gk.channelSkew = 1.0;
        gk.memChannels = 1;
        gk.channelPolicy = ChannelPolicy::Interleave;
        groups[gk].push_back(i);
    }
    std::vector<std::function<void()>> jobs;
    jobs.reserve(groups.size() + scalar.size());
    for (auto &[gk, members] : groups) {
        const std::vector<std::size_t> &m = members;
        jobs.push_back(
            [this, &res, &pts, &m] { evaluateBatch(m, pts, res); });
    }
    for (std::size_t i : scalar)
        jobs.push_back(
            [this, &res, &pts, i] { res[i] = evaluate(pts[i]); });
    runner.runAll(jobs);
    for (std::size_t i = 0; i < pts.size(); ++i)
        res[i] = res[owner[i]];
    return res;
}

void
Tuner::evaluateBatch(const std::vector<std::size_t> &members,
                     const std::vector<std::vector<std::size_t>> &pts,
                     std::vector<Measurement> &res)
{
    // Serve cached members, collect the fresh ones.
    std::vector<std::size_t> fresh;
    for (std::size_t i : members) {
        const TunePoint p = sp.at(pts[i]);
        Measurement m;
        if (cache.lookup(keyOf(p), m))
            res[i] = m;
        else
            fresh.push_back(i);
    }
    if (fresh.empty())
        return;
    // All fresh members share one graph; they may span channel
    // layouts. Sort by layout so equal layouts form consecutive runs
    // (stable, so rate order within a layout is preserved), then
    // replay each run as one batch from the experiment's layout cache:
    // a layout compiles once per experiment, and every later run of it
    // replays the cached schedule. That schedule is the one a scalar
    // evaluation replays, so each result matches evaluateUncached on
    // that point bit for bit.
    const TunePoint p0 = sp.at(pts[fresh[0]]);
    const std::shared_ptr<const HksExperiment> exp =
        runner.experiment(par, p0.dataflow, sp.memoryConfig(p0));
    std::stable_sort(
        fresh.begin(), fresh.end(),
        [this, &pts](std::size_t a, std::size_t b) {
            const TunePoint pa = sp.at(pts[a]);
            const TunePoint pb = sp.at(pts[b]);
            if (pa.memChannels != pb.memChannels)
                return pa.memChannels < pb.memChannels;
            return pa.channelPolicy < pb.channelPolicy;
        });
    std::vector<RpuConfig> cfgs;
    cfgs.reserve(fresh.size());
    for (std::size_t i : fresh)
        cfgs.push_back(sp.chipConfig(sp.at(pts[i])));
    std::vector<double> runtimes(fresh.size());
    for (std::size_t i = 0; i < cfgs.size();) {
        const RpuLayout layout = RpuLayout::of(cfgs[i]);
        std::size_t j = i + 1;
        while (j < cfgs.size() && RpuLayout::of(cfgs[j]) == layout)
            ++j;
        const std::size_t run = j - i;
        exp->simulateRuntimeMany(cfgs.data() + i, run,
                                 runtimes.data() + i);
        // Each run walks ceil(run / kBatchLanes) blocks of kBatchLanes
        // slots; record the dispatch for the occupancy gauge.
        cache.noteBatchLanes(run, (run + sim::kBatchLanes - 1) /
                                      sim::kBatchLanes *
                                      sim::kBatchLanes);
        i = j;
    }
    for (std::size_t j = 0; j < fresh.size(); ++j) {
        const std::size_t i = fresh[j];
        const TunePoint p = sp.at(pts[i]);
        Measurement m;
        m.runtime = runtimes[j];
        m.aggregateGBps =
            p.bandwidthGBps * static_cast<double>(p.shards);
        m.capacityBytes = static_cast<double>(p.dataMemBytes) *
                          static_cast<double>(p.shards);
        cache.insert(keyOf(p), m);
        res[i] = m;
    }
}

std::size_t
Tuner::PartitionKeyHash::operator()(const PartitionKey &k) const
{
    auto mix = [](std::size_t seed, std::uint64_t v) {
        return static_cast<std::size_t>(splitmix64(v + seed));
    };
    std::size_t h = ExperimentKeyHash{}(k.graph);
    h = mix(h, k.shards);
    h = mix(h, static_cast<std::uint64_t>(k.strategy));
    h = mix(h, std::bit_cast<std::uint64_t>(k.weights.channelBytesPerSec));
    h = mix(h, std::bit_cast<std::uint64_t>(k.weights.modopsPerSec));
    h = mix(h, std::bit_cast<std::uint64_t>(k.weights.shuffleElemsPerSec));
    h = mix(h, k.weights.vectorLen);
    return h;
}

const shard::Partition &
Tuner::partitionOf(const TunePoint &p, const HksExperiment &exp,
                   const RpuConfig &cfg)
{
    PartitionKey key;
    key.graph = ExperimentKey::of(par, p.dataflow, sp.memoryConfig(p));
    key.shards = p.shards;
    key.strategy = p.strategy;
    key.weights = shard::weightKey(cfg);
    PartitionSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> lk(memoMu);
        const auto [it, inserted] = memo.try_emplace(key);
        slot = &it->second;
        // Counted at insertion: each key misses exactly once whichever
        // thread ends up computing it, so the counters do not depend
        // on the runner's width.
        ++(inserted ? nparts : npartHits);
    }
    // Only requesters of this key wait here; the cut is a pure
    // function of the key (partitionGraph is deterministic and the
    // weights depend on the chip only through its WeightKey).
    std::call_once(slot->once, [&] {
        const shard::PartitionPrep &prep = prepOf(key.graph, exp, cfg);
        slot->part = shard::partitionGraph(
            prep,
            shard::placementShardSpec(par, p.shards, p.strategy,
                                      sp.imbalanceTol),
            shard::taskWeights(prep, cfg));
    });
    return slot->part;
}

const shard::PartitionPrep &
Tuner::prepOf(const ExperimentKey &graph, const HksExperiment &exp,
              const RpuConfig &cfg)
{
    PrepSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> lk(memoMu);
        const auto [it, inserted] = preps.try_emplace(graph);
        slot = &it->second;
        npreps += inserted ? 1 : 0;
    }
    // The cut payload is the Tuner's (one benchmark) and the vector
    // length the space's base chip's, so one prep serves every cut of
    // the graph; the prep overloads panic should either differ.
    std::call_once(slot->once, [&] {
        slot->prep.emplace(exp.graph(), par.towerBytes(), cfg.vectorLen);
    });
    return *slot->prep;
}

std::size_t
Tuner::partitions() const
{
    std::lock_guard<std::mutex> lk(memoMu);
    return nparts;
}

std::size_t
Tuner::partitionHits() const
{
    std::lock_guard<std::mutex> lk(memoMu);
    return npartHits;
}

std::size_t
Tuner::graphPreps() const
{
    std::lock_guard<std::mutex> lk(memoMu);
    return npreps;
}

void
Tuner::exportMetrics(obs::MetricsRegistry &m,
                     const std::string &prefix) const
{
    m.count(prefix + "evaluations", cache.misses());
    m.count(prefix + "cache_hits", cache.hits());
    m.count(prefix + "partitions", partitions());
    m.count(prefix + "partition_hits", partitionHits());
    m.count(prefix + "graph_preps", graphPreps());
    const std::size_t pts = cache.batchedPoints();
    const std::size_t slots = cache.batchLaneSlots();
    m.count(prefix + "batched_points", pts);
    m.count(prefix + "batch_lane_slots", slots);
    m.gauge(prefix + "batch_lane_occupancy",
            slots == 0 ? 0.0
                       : static_cast<double>(pts) /
                             static_cast<double>(slots));
}

Measurement
Tuner::evaluateUncached(const TunePoint &p)
{
    const RpuConfig cfg = sp.chipConfig(p);
    const MemoryConfig mem = sp.memoryConfig(p);
    const std::shared_ptr<const HksExperiment> exp =
        runner.experiment(par, p.dataflow, mem);

    Measurement m;
    m.aggregateGBps = p.bandwidthGBps * static_cast<double>(p.shards);
    m.capacityBytes = static_cast<double>(p.dataMemBytes) *
                      static_cast<double>(p.shards);

    if (fobj) {
        // Fault-aware objective: partition for the point's shard
        // count (K=1 is the trivial one-shard cut), then score the
        // expected Monte Carlo makespan under the model, penalized by
        // survivability — a K that cannot survive its chip failures
        // scores +inf and loses to any graceful-degradation point.
        const shard::PartitionPrep &prep = prepOf(
            ExperimentKey::of(par, p.dataflow, mem), *exp, cfg);
        const std::vector<double> w = shard::taskWeights(prep, cfg);
        const shard::ShardSpec sspec = shard::placementShardSpec(
            par, p.shards, p.strategy, sp.imbalanceTol);
        const shard::Partition part =
            shard::partitionGraph(prep, sspec, w);
        {
            std::lock_guard<std::mutex> lk(memoMu);
            ++nparts;
        }
        shard::InterconnectConfig net = sp.interconnect;
        net.topology = p.topology;
        fault::FaultSim fs(exp->graph(), sspec, w, part, cfg, net);
        fault::McSpec mc;
        mc.model = fobj->model;
        mc.scenarios = fobj->scenarios;
        mc.seed = fobj->seed;
        const fault::McStats st = fault::monteCarlo(fs, mc);
        m.runtime =
            st.survivability > 0.0
                ? st.expectedMakespan / st.survivability
                : std::numeric_limits<double>::infinity();
        m.cutBytes = part.cutBytes;
        m.transferTasks = part.cutEdges.size();
        return m;
    }

    if (p.shards <= 1) {
        m.runtime = exp->simulate(cfg).runtime;
        return m;
    }

    // Multi-chip points delegate to the sharding layer through the
    // same per-point helpers searchPlacements uses, so a tuner shard
    // axis and a placement search agree bit-identically. The cut comes
    // from the partition memo; the point binds from the experiment's
    // compiled schedule into a per-thread buffer: no graph lowering
    // per point.
    shard::InterconnectConfig net = sp.interconnect;
    net.topology = p.topology;
    const shard::PlacementEval e = shard::evaluatePlacement(
        *exp, partitionOf(p, *exp, cfg), cfg, net);
    m.runtime = e.runtime;
    m.cutBytes = e.cutBytes;
    m.transferTasks = e.transferTasks;
    return m;
}

TuneResult
Tuner::tune(const TuneOptions &opts)
{
    const std::size_t hits0 = cache.hits();
    const std::size_t miss0 = cache.misses();

    // Per-call bookkeeping: every distinct point this call touched,
    // ordered by index tuple so packaging below is deterministic.
    std::mutex mu;
    std::map<std::vector<std::size_t>, Measurement> visited;
    auto record = [&](const std::vector<std::size_t> &idx) {
        const Measurement m = evaluate(idx);
        std::lock_guard<std::mutex> lk(mu);
        visited.emplace(idx, m);
        return m;
    };
    // One parallel fan-out over a batch of points (results in input
    // order), recorded into the visited map.
    auto batch = [&](const std::vector<std::vector<std::size_t>> &pts) {
        const std::vector<Measurement> res = evaluateAll(pts);
        std::lock_guard<std::mutex> lk(mu);
        for (std::size_t i = 0; i < pts.size(); ++i)
            visited.emplace(pts[i], res[i]);
        return res;
    };

    TuneResult r;
    r.strategy = opts.strategy;
    r.spaceSize = sp.pointCount();

    switch (opts.strategy) {
    case Strategy::ExhaustiveGrid: {
        std::vector<std::vector<std::size_t>> pts;
        pts.reserve(r.spaceSize);
        for (std::size_t f = 0; f < r.spaceSize; ++f)
            pts.push_back(sp.unflatten(f));
        batch(pts);
        r.rounds = 1;
        break;
    }
    case Strategy::CoordinateDescent: {
        std::vector<std::size_t> cur(kAxisCount, 0);
        double cur_rt = record(cur).runtime;
        for (std::size_t round = 0; round < opts.maxRounds; ++round) {
            r.rounds = round + 1;
            bool improved = false;
            for (std::size_t a = 0; a < kAxisCount; ++a) {
                const std::size_t n =
                    sp.axisSize(static_cast<Axis>(a));
                if (n < 2)
                    continue;
                std::vector<std::vector<std::size_t>> pts;
                pts.reserve(n);
                for (std::size_t v = 0; v < n; ++v) {
                    std::vector<std::size_t> idx = cur;
                    idx[a] = v;
                    pts.push_back(std::move(idx));
                }
                const std::vector<Measurement> res = batch(pts);
                // Axis argmin; only a strict improvement moves, and
                // ties keep the lowest index, so the walk is a total
                // order and terminates.
                std::size_t bestv = cur[a];
                double best_rt = cur_rt;
                for (std::size_t v = 0; v < n; ++v)
                    if (res[v].runtime < best_rt) {
                        bestv = v;
                        best_rt = res[v].runtime;
                    }
                if (bestv != cur[a]) {
                    cur[a] = bestv;
                    cur_rt = best_rt;
                    improved = true;
                }
            }
            if (!improved)
                break;
        }
        break;
    }
    case Strategy::RandomRestartHillClimb: {
        Rng rng(opts.seed);
        for (std::size_t rs = 0; rs < opts.restarts; ++rs) {
            r.rounds = rs + 1;
            std::vector<std::size_t> cur(kAxisCount);
            for (std::size_t a = 0; a < kAxisCount; ++a)
                cur[a] = static_cast<std::size_t>(rng.uniform(
                    sp.axisSize(static_cast<Axis>(a))));
            double cur_rt = record(cur).runtime;
            for (std::size_t step = 0; step < opts.maxClimbSteps;
                 ++step) {
                // +-1 moves along every axis, axis order then -1
                // before +1 — the deterministic neighbor order ties
                // break toward.
                std::vector<std::vector<std::size_t>> nbrs;
                for (std::size_t a = 0; a < kAxisCount; ++a) {
                    const std::size_t n =
                        sp.axisSize(static_cast<Axis>(a));
                    for (int dir : {-1, +1}) {
                        if ((dir < 0 && cur[a] == 0) ||
                            (dir > 0 && cur[a] + 1 >= n))
                            continue;
                        std::vector<std::size_t> idx = cur;
                        idx[a] = cur[a] + static_cast<std::size_t>(
                                              dir > 0 ? 1 : -1);
                        nbrs.push_back(std::move(idx));
                    }
                }
                if (nbrs.empty())
                    break;
                const std::vector<Measurement> res = batch(nbrs);
                std::size_t best = nbrs.size();
                double best_rt = cur_rt;
                for (std::size_t i = 0; i < nbrs.size(); ++i)
                    if (res[i].runtime < best_rt) {
                        best = i;
                        best_rt = res[i].runtime;
                    }
                if (best == nbrs.size())
                    break; // local optimum
                cur = nbrs[best];
                cur_rt = best_rt;
            }
        }
        break;
    }
    }

    r.evaluated.reserve(visited.size());
    for (const auto &[idx, m] : visited) {
        TunedPoint p;
        p.idx = idx;
        p.point = sp.at(idx);
        p.m = m;
        r.evaluated.push_back(std::move(p));
    }
    panicIf(r.evaluated.empty(), "tune() evaluated no points");
    const TunedPoint *best = &r.evaluated.front();
    for (const TunedPoint &p : r.evaluated)
        if (p.m.runtime < best->m.runtime)
            best = &p;
    r.best = *best;
    r.frontier = paretoFrontier(r.evaluated);
    r.evaluations = cache.misses() - miss0;
    r.cacheHits = cache.hits() - hits0;
    return r;
}

TuneSpace
ocBaseSpace()
{
    TuneSpace sp;
    sp.dataflows = {Dataflow::OC};
    sp.capacities = {32ull << 20};
    sp.bandwidths = paperBandwidthSweep();
    sp.evkOnChip = true;
    return sp;
}

TuneSpace
paperJointSpace(const HksParams &par, bool evk_on_chip)
{
    TuneSpace sp;
    sp.dataflows = {Dataflow::MP, Dataflow::DC, Dataflow::OC};
    sp.bandwidths = paperBandwidthSweep();
    sp.channelCounts = {1, 2, 4};
    sp.modopsMults = {1.0, 2.0};
    sp.evkOnChip = evk_on_chip;
    std::uint64_t need = 0;
    for (Dataflow d : sp.dataflows)
        need = std::max(need, minDataCapacity(par, d));
    sp.capacities.clear();
    for (std::uint64_t cap : {16ull << 20, 32ull << 20, 64ull << 20})
        if (cap >= need)
            sp.capacities.push_back(cap);
    if (sp.capacities.empty())
        sp.capacities = {need};
    return sp;
}

double
ocBaseBandwidth(Tuner &t, double target_runtime)
{
    const TuneSpace &sp = t.space();
    std::vector<std::vector<std::size_t>> pts;
    pts.reserve(sp.bandwidths.size());
    for (std::size_t i = 0; i < sp.bandwidths.size(); ++i) {
        std::vector<std::size_t> idx(kAxisCount, 0);
        idx[static_cast<std::size_t>(Axis::Bandwidth)] = i;
        pts.push_back(std::move(idx));
    }
    const std::vector<Measurement> res = t.evaluateAll(pts);
    std::vector<double> runtimes;
    runtimes.reserve(res.size());
    for (const Measurement &m : res)
        runtimes.push_back(m.runtime);
    return ocBaseFromGrid(sp.bandwidths, runtimes, target_runtime);
}

} // namespace ciflow::tune
