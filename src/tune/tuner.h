/**
 * @file
 * Tuner: pluggable search strategies over a TuneSpace, on the
 * ExperimentRunner pool, through one shared evaluation cache.
 *
 * The tuner closes the loop the compile-once/simulate-many work
 * opened: with one point evaluation down to a compiled-schedule
 * replay, searching the joint (dataflow, capacity, channel layout,
 * MODOPS, sharding) space is a second-scale affair. Three strategies
 * share one Tuner:
 *
 *  - ExhaustiveGrid: every point, fanned out with one runAll batch —
 *    the ground truth the cheaper strategies are measured against.
 *  - CoordinateDescent: sweep one axis at a time (each axis fiber is
 *    its own parallel runAll fan-out — the nested-runAll pattern),
 *    move to the axis argmin, repeat until a full round improves
 *    nothing. Evaluates O(rounds * sum(axis sizes)) points instead of
 *    the axis-size product.
 *  - RandomRestartHillClimb: deterministic seeded restarts, each
 *    climbing to a +-1-per-axis local optimum.
 *
 * Every evaluation goes through the Tuner's EvalCache, so strategies
 * run back-to-back reuse each other's measurements bit-identically,
 * and TuneResult reports exactly how many fresh evaluations a
 * strategy needed. Results are deterministic: simulation is a pure
 * function of (graph, config) and all selection rules are total
 * orders, so parallel searches equal serial ones.
 *
 * Multi-chip points also share a partition memo that lives and dies
 * with the Tuner, like the EvalCache. It keys each cut by graph, shard
 * count, partition strategy and the chip's shard::WeightKey (the four
 * rates taskWeights reads), so points that differ only in topology,
 * channel policy, or in bandwidth and channel count with an equal
 * per-channel share reuse one cut instead of pricing weights and
 * partitioning again. Each key is computed exactly once, whatever the
 * runner's width; the memo holds one Partition per key, 6–25 KB on
 * the paper benchmarks (40–62 cuts, under 1.2 MB, per perfbench
 * `tune` query).
 *
 * Results come back as a Pareto frontier over (runtime, aggregate
 * bandwidth, aggregate capacity), not just an argmin: the paper's
 * Table IV/V question is "what is the cheapest memory system that
 * holds performance", which is a frontier query.
 */

#ifndef CIFLOW_TUNE_TUNER_H
#define CIFLOW_TUNE_TUNER_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fault/fault_trace.h"
#include "obs/metrics.h"
#include "rpu/runner.h"
#include "tune/eval_cache.h"
#include "tune/tune_space.h"

namespace ciflow::tune
{

/** Search strategies a Tuner can run. */
enum class Strategy : std::uint8_t {
    ExhaustiveGrid,
    CoordinateDescent,
    RandomRestartHillClimb,
};

/** Short name ("grid"/"cd"/"hillclimb"). */
const char *strategyName(Strategy s);

/** Knobs of one tune() invocation. */
struct TuneOptions
{
    Strategy strategy = Strategy::CoordinateDescent;
    /** CoordinateDescent: max full axis rounds. */
    std::size_t maxRounds = 8;
    /** RandomRestartHillClimb: independent seeded starts. */
    std::size_t restarts = 4;
    /** RandomRestartHillClimb: max moves per climb. */
    std::size_t maxClimbSteps = 64;
    /** RandomRestartHillClimb: RNG seed (results are a pure function
     * of it). */
    std::uint64_t seed = 0x7005eedULL;
};

/**
 * Fault-aware tuning objective: score every point by its expected
 * Monte Carlo makespan under a fault model instead of the healthy
 * replay runtime. A Tuner constructed with one scores
 *
 *     E[makespan | completed] / survivability
 *
 * (+inf when no scenario completes), so configurations that cannot
 * survive the model — e.g. K=1 under chip failures — lose to ones
 * that degrade gracefully even when their healthy runtime is better.
 * The objective is fixed for the Tuner's lifetime: the evaluation
 * cache is per-Tuner, so cached Measurements always belong to one
 * objective and EvalKey needs no fault fields.
 */
struct FaultObjective
{
    /** The MTBF fault model scenarios are sampled from. */
    fault::FaultModel model;
    /** Seeded Monte Carlo scenarios per point. */
    std::size_t scenarios = 32;
    /** Base seed of the scenario stream (deriveSeed fans it out). */
    std::uint64_t seed = 1;
};

/** One evaluated point: where it sits in the space and what it cost. */
struct TunedPoint
{
    /** Index tuple into the TuneSpace axes (kAxisCount long). */
    std::vector<std::size_t> idx;
    TunePoint point;
    Measurement m;
};

/** The outcome of one tune() call. */
struct TuneResult
{
    Strategy strategy = Strategy::ExhaustiveGrid;
    /** Lowest-runtime point found (ties: lexicographically smallest
     * index tuple). */
    TunedPoint best;
    /** Pareto frontier of the evaluated points, fastest first. */
    std::vector<TunedPoint> frontier;
    /** Every distinct point this call evaluated, in index order. */
    std::vector<TunedPoint> evaluated;
    /** Full grid size of the space. */
    std::size_t spaceSize = 0;
    /** Fresh evaluations this call paid for (cache misses). */
    std::size_t evaluations = 0;
    /** Lookups this call served from the shared cache. */
    std::size_t cacheHits = 0;
    /** Rounds (CD) or restarts (hill climb) actually run. */
    std::size_t rounds = 0;

    /** evaluations / spaceSize — the cost of not being exhaustive. */
    double evalFraction() const;
};

/**
 * The non-dominated subset of `pts` under (runtime, aggregateGBps,
 * capacityBytes) minimization, sorted by runtime (ties: index order).
 * Duplicate measurements are all kept — none strictly dominates.
 */
std::vector<TunedPoint> paretoFrontier(const std::vector<TunedPoint> &pts);

/**
 * Auto-tuner for one benchmark over one TuneSpace. All strategies run
 * on the runner's pool and share this Tuner's evaluation cache (plus
 * the runner's graph cache across Tuners), so repeated or overlapping
 * searches reuse prior work bit-identically.
 */
class Tuner
{
  public:
    Tuner(ExperimentRunner &runner, const HksParams &par,
          TuneSpace space);

    /**
     * A Tuner whose every evaluation scores the fault-aware objective
     * (see FaultObjective) instead of the healthy runtime. Strategies,
     * caching and determinism are unchanged — the objective is still a
     * pure function of the point, the Monte Carlo scenario stream is
     * seeded — but fault points skip the batched-replay grouping:
     * each one runs its own degraded-mode scenario sweep.
     */
    Tuner(ExperimentRunner &runner, const HksParams &par,
          TuneSpace space, const FaultObjective &objective);

    /** Run one search; see TuneOptions. Safe to call repeatedly. */
    TuneResult tune(const TuneOptions &opts = {});

    /**
     * Evaluate one index tuple through the cache. The building block
     * strategies are made of; exposed for custom search loops.
     */
    Measurement evaluate(const std::vector<std::size_t> &idx);

    /**
     * Evaluate a batch of index tuples concurrently on the runner's
     * pool (nestable: callable from inside another runAll job).
     * Results in input order; every point lands in the cache.
     *
     * Fresh single-chip points are grouped by everything that shapes
     * the task graph (benchmark, dataflow, capacity, evk residency);
     * each group is dispatched as ONE pool job that orders its
     * members by channel layout and replays them in kBatchLanes-wide
     * blocks (HksExperiment::simulateRuntimeMany). Members differing
     * in the channel axes ride the incremental patch path: one
     * patchable schedule rebound in place between layouts
     * (recompileChannels) instead of one compile per layout, counted
     * by patchedEvals(). Multi-chip points fall back to scalar
     * per-point jobs — their partitions change the compiled layout
     * point by point — and take their cut from the partition memo.
     * Batched, patched, and scalar evaluations are
     * bit-identical, so strategies and cache contents are unaffected
     * by the grouping.
     */
    std::vector<Measurement>
    evaluateAll(const std::vector<std::vector<std::size_t>> &pts);

    const TuneSpace &space() const { return sp; }
    const HksParams &params() const { return par; }
    /** The fault-aware objective, or nullptr for the runtime one. */
    const FaultObjective *faultObjective() const
    {
        return fobj ? &*fobj : nullptr;
    }
    /** Fresh evaluations since construction (cache misses). */
    std::size_t evaluations() const { return cache.misses(); }
    /** Cache hits since construction. */
    std::size_t cacheHits() const { return cache.hits(); }
    /**
     * Evaluations served through the incremental patch path (layout
     * sweeps replaying a rebound schedule) since construction — how
     * much of the search ran without a fresh compile.
     */
    std::size_t patchedEvals() const { return cache.patchedEvals(); }
    /**
     * partitionGraph calls since construction: one per distinct cut
     * the multi-chip points needed, plus one per fault-objective point.
     */
    std::size_t partitions() const;
    /** Multi-chip evaluations whose cut came from the partition memo. */
    std::size_t partitionHits() const;

    /**
     * Export search counters into `m` under `prefix`: evaluations,
     * cache_hits, patched_evals, batched_points, batch_lane_slots,
     * partitions, partition_hits (counters) and batch_lane_occupancy
     * (gauge, points per provisioned lane slot; 0 when nothing ran
     * batched). The machine-readable half of the bench_tuner story.
     */
    void exportMetrics(obs::MetricsRegistry &m,
                       const std::string &prefix = "tuner.") const;

  private:
    /** Canonical cache key of `p` (vacuous knobs pinned to defaults). */
    EvalKey keyOf(const TunePoint &p) const;
    Measurement evaluateUncached(const TunePoint &p);

    /**
     * Evaluate the points pts[i] for i in `members` — all single-chip
     * on one (graph, compiled layout), differing only in rate knobs —
     * through the cache, replaying every fresh member as one batch.
     * Writes res[i]; runs inside one pool job.
     */
    void evaluateBatch(const std::vector<std::size_t> &members,
                       const std::vector<std::vector<std::size_t>> &pts,
                       std::vector<Measurement> &res);

    /**
     * The cut of multi-chip point `p` (chip `cfg`, graph `exp`), from
     * the partition memo. The first request for a key computes
     * taskWeights and partitionGraph; concurrent requests for the same
     * key wait for it, and later ones reuse it.
     */
    const shard::Partition &partitionOf(const TunePoint &p,
                                        const HksExperiment &exp,
                                        const RpuConfig &cfg);

    /**
     * Everything a multi-chip cut depends on inside one Tuner: the
     * graph, the shard count and strategy (which fix the ShardSpec,
     * since the benchmark and load cap are the Tuner's), and the
     * chip's WeightKey.
     */
    struct PartitionKey
    {
        ExperimentKey graph;
        std::size_t shards = 0;
        shard::PartitionStrategy strategy =
            shard::PartitionStrategy::MinCutGreedy;
        shard::WeightKey weights;

        bool operator==(const PartitionKey &) const = default;
    };
    struct PartitionKeyHash
    {
        std::size_t operator()(const PartitionKey &k) const;
    };
    /** A memo entry, filled exactly once through `once`. */
    struct PartitionSlot
    {
        std::once_flag once;
        shard::Partition part;
    };

    ExperimentRunner &runner;
    HksParams par;
    TuneSpace sp;
    EvalCache cache;
    std::optional<FaultObjective> fobj;

    /**
     * The partition memo (see the class comment) and its counters.
     * Nodes never move and are never erased: partitionOf hands slots
     * out by reference.
     */
    mutable std::mutex memoMu;
    std::unordered_map<PartitionKey, PartitionSlot, PartitionKeyHash> memo;
    std::size_t nparts = 0;
    std::size_t npartHits = 0;
};

/**
 * Table IV's OCbase search space as a 1-D tune grid: the OC dataflow
 * over the paper bandwidth sweep at the baseline memory system (32
 * MiB, evks on-chip), every other axis pinned.
 */
TuneSpace ocBaseSpace();

/**
 * The joint (dataflow x capacity x bandwidth x channels x MODOPS)
 * grid bench_tuner gates and example_auto_tuner explores: all three
 * dataflows, {16, 32, 64} MiB capacities with entries below `par`'s
 * schedulability floor (minDataCapacity across the dataflow axis)
 * dropped, the paper bandwidth sweep, {1, 2, 4} channels, and
 * {1, 2}x MODOPS — up to 378 points.
 */
TuneSpace paperJointSpace(const HksParams &par,
                          bool evk_on_chip = false);

/**
 * The OCbase grid scan as a tune-engine strategy: smallest bandwidth
 * on `t`'s bandwidth axis whose runtime meets `target_runtime`
 * (within the paper's 0.1% tolerance), or 64.0 when none does. All
 * other axes evaluate at index 0, and the axis is swept with one
 * parallel fan-out. On ocBaseSpace() this returns bit-identically the
 * value of ciflow::ocBaseBandwidth(runner, par) — the same graphs,
 * the same replays, the same grid-first-hit rule — with every
 * evaluation left in the tuner's cache for later strategies.
 */
double ocBaseBandwidth(Tuner &t, double target_runtime);

} // namespace ciflow::tune

#endif // CIFLOW_TUNE_TUNER_H
