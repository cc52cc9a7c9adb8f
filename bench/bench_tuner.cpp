/**
 * @file
 * Auto-tuner strategy study over the paper's co-design knobs.
 *
 * For every paper benchmark this builds the joint
 * (dataflow x capacity x bandwidth x channels x MODOPS) grid — the
 * axes Tables IV/V and Figures 8/9 sweep one at a time — and runs the
 * three tune strategies against it:
 *
 *  - exhaustive grid: the ground-truth optimum and Pareto frontier;
 *  - coordinate descent on a fresh cache: must rediscover the grid
 *    optimum bit-identically while evaluating < 50% of the grid;
 *  - random-restart hill climb sharing the descent's cache: shows
 *    cross-strategy cache reuse.
 *
 * It also re-derives Table IV's OCbase through the tune engine
 * (tune::ocBaseBandwidth over ocBaseSpace()) and requires it to equal
 * the rpu-layer grid scan bit-identically.
 *
 * The layout-axis section checks and times how the tuner explores
 * the channel-layout axes (memChannels x channelPolicy): every layout
 * point replays the experiment's layout cache, which compiles each
 * layout once. It first asserts layout_cache_exact: each cached
 * runtime equals a fresh compile + replay of its layout bit for bit,
 * and a second sweep gets the same cached schedules back, one per
 * distinct layout (10 for the 12 points: the one-channel policies
 * share one). CI gates layout_cache_exact == true. It then reports,
 * ungated, layout points per second through the cache (one-point
 * batches, as the tuner replays a lone layout) against one fresh
 * compile + replay per point: the ratio measures the host's
 * compile-to-replay cost, not the design, so no floor reads it.
 *
 * Emits BENCH_tune.json for the CI artifact trail and exits nonzero
 * when any benchmark misses a gate — the tuner failing to rediscover
 * the paper's operating points is a regression, not a warning.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "tune/tuner.h"

using namespace ciflow;
using namespace ciflow::tune;

namespace
{

struct Row
{
    std::string benchmark;
    std::size_t spacePoints = 0;
    double exhaustiveBestMs = 0.0;
    double cdBestMs = 0.0;
    std::size_t cdEvals = 0;
    double cdFrac = 0.0;
    double hcBestMs = 0.0;
    std::size_t hcEvals = 0;
    std::size_t hcHits = 0;
    /** Lifetime EvalCache traffic of the cd+hc tuner. */
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;
    std::size_t paretoPoints = 0;

    /** Fraction of cd+hc lookups served from the shared cache. */
    double
    cacheHitRate() const
    {
        const std::size_t total = cacheHits + cacheMisses;
        return total > 0
                   ? static_cast<double>(cacheHits) /
                         static_cast<double>(total)
                   : 0.0;
    }
    double ocbaseGbps = 0.0;
    double ocbaseRefGbps = 0.0;
    std::string bestConfig;
    bool pass = false;

    /** Layout points in the layout-axis sweep. */
    std::size_t layoutPoints = 0;
    /** Distinct cached schedules the layout points replay. */
    std::size_t layoutSchedules = 0;
    /** Cached runtimes exact, and the cache returns stable objects. */
    bool layoutCacheExact = false;
    /** Layout-axis evals/sec, one fresh compile per point. */
    double layoutFreshPerSec = 0.0;
    /** Layout-axis evals/sec replaying the layout cache. */
    double layoutCachedPerSec = 0.0;

    double
    layoutAxisSpeedup() const
    {
        return layoutFreshPerSec > 0.0
                   ? layoutCachedPerSec / layoutFreshPerSec
                   : 0.0;
    }
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The channel-layout grid of the layout-axis study: every channel
 * count x policy combination, all other knobs fixed — pure layout
 * moves, the worst case for a compile-per-layout tuner.
 */
std::vector<RpuConfig>
layoutAxisConfigs(const MemoryConfig &mem)
{
    std::vector<RpuConfig> cfgs;
    for (std::size_t ch : {1, 2, 4, 8})
        for (ChannelPolicy pol :
             {ChannelPolicy::Interleave, ChannelPolicy::EvkDedicated,
              ChannelPolicy::LeastLoaded}) {
            RpuConfig cfg;
            cfg.dataMemBytes = mem.dataCapacityBytes;
            cfg.evkOnChip = mem.evkOnChip;
            cfg.memChannels = ch;
            cfg.channelPolicy = pol;
            cfgs.push_back(cfg);
        }
    return cfgs;
}

/** Distinct layouts among layoutAxisConfigs(): 4 x 3 - 2. */
constexpr std::size_t kLayoutSchedules = 10;

/** Check the layout cache and time the layout axis for one row. */
void
measureLayoutAxis(const HksParams &par, Row &r)
{
    const MemoryConfig mem{32ull << 20, false};
    const HksExperiment exp(par, Dataflow::OC, mem);
    const std::vector<RpuConfig> cfgs = layoutAxisConfigs(mem);
    r.layoutPoints = cfgs.size();
    std::vector<double> out(cfgs.size());

    // Exactness first. The first sweep fills the layout cache, and
    // every cached runtime must equal a fresh compile + replay of its
    // layout bit for bit; a second sweep must get the same cached
    // objects back, one per distinct layout.
    r.layoutCacheExact = true;
    std::vector<const sim::CompiledSchedule *> first;
    for (const RpuConfig &cfg : cfgs) {
        const RpuEngine eng(cfg);
        if (exp.simulateRuntime(cfg) !=
            eng.replayRuntime(eng.compile(exp.graph())))
            r.layoutCacheExact = false;
        first.push_back(&exp.compiled(cfg));
    }
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        if (&exp.compiled(cfgs[i]) != first[i])
            r.layoutCacheExact = false;
    r.layoutSchedules =
        std::set<const sim::CompiledSchedule *>(first.begin(), first.end())
            .size();
    if (r.layoutSchedules != kLayoutSchedules)
        r.layoutCacheExact = false;
    if (!r.layoutCacheExact) {
        std::fprintf(stderr,
                     "FAIL: %s: the layout cache does not reproduce "
                     "fresh compiles, or does not return one stable "
                     "schedule per layout (%zu schedules)\n",
                     par.name.c_str(), r.layoutSchedules);
        r.pass = false;
    }

    const double kBudget = 0.3; // seconds per timed path

    // Fresh path: every layout visit pays a full compile, as a tuner
    // without the layout cache would.
    {
        std::size_t evals = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            for (const RpuConfig &cfg : cfgs) {
                const RpuEngine eng(cfg);
                const sim::CompiledSchedule cs =
                    eng.compile(exp.graph());
                volatile double rt = eng.replayRuntime(cs);
                (void)rt;
            }
            evals += cfgs.size();
            elapsed = secondsSince(t0);
        } while (elapsed < kBudget);
        r.layoutFreshPerSec = static_cast<double>(evals) / elapsed;
    }

    // Cached path: every layout visit replays its cached schedule as
    // a one-point batch, the call the tuner makes for a lone layout.
    {
        std::size_t evals = 0;
        const Clock::time_point t0 = Clock::now();
        double elapsed = 0.0;
        do {
            for (std::size_t i = 0; i < cfgs.size(); ++i)
                exp.simulateRuntimeMany(&cfgs[i], 1, &out[i]);
            evals += cfgs.size();
            elapsed = secondsSince(t0);
        } while (elapsed < kBudget);
        r.layoutCachedPerSec = static_cast<double>(evals) / elapsed;
    }
}

} // namespace

int
main()
{
    benchutil::header("Auto-tuner: strategies over (dataflow, "
                      "capacity, bandwidth, channels, MODOPS)");

    ExperimentRunner runner;
    const std::vector<HksParams> &benches = paperBenchmarks();
    std::vector<Row> rows(benches.size());

    // The cd+hc tuners outlive the jobs: their counters feed the
    // artifact's metrics block after the pool drains (per-benchmark
    // prefixes, exported serially so the block is deterministic).
    std::vector<std::unique_ptr<Tuner>> searches(benches.size());
    for (std::size_t i = 0; i < benches.size(); ++i)
        searches[i] = std::make_unique<Tuner>(
            runner, benches[i], paperJointSpace(benches[i]));

    // One tuner pipeline per benchmark, fanned out on the pool; each
    // strategy inside fans out its own sweeps (nested runAll).
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < benches.size(); ++i)
        jobs.push_back([&runner, &benches, &rows, &searches, i] {
            const HksParams &par = benches[i];
            Row &r = rows[i];
            r.benchmark = par.name;

            Tuner exhaustive(runner, par, paperJointSpace(par));
            const TuneResult ex = exhaustive.tune(
                {.strategy = Strategy::ExhaustiveGrid});
            r.spacePoints = ex.spaceSize;
            r.exhaustiveBestMs = ex.best.m.runtime * 1e3;
            r.paretoPoints = ex.frontier.size();
            r.bestConfig = ex.best.point.describe();

            // Fresh cache: the descent pays its own evaluations.
            Tuner &search = *searches[i];
            const TuneResult cd = search.tune(
                {.strategy = Strategy::CoordinateDescent});
            r.cdBestMs = cd.best.m.runtime * 1e3;
            r.cdEvals = cd.evaluations;
            r.cdFrac = cd.evalFraction();

            // Hill climb on the same tuner reuses the descent's cache.
            const TuneResult hc = search.tune(
                {.strategy = Strategy::RandomRestartHillClimb});
            r.hcBestMs = hc.best.m.runtime * 1e3;
            r.hcEvals = hc.evaluations;
            r.hcHits = hc.cacheHits;
            // Lifetime hit/miss traffic of the shared cd+hc cache:
            // the reuse a future batched tuner must beat.
            r.cacheHits = search.cacheHits();
            r.cacheMisses = search.evaluations();

            // Table IV's OCbase through the tune engine.
            Tuner ocb(runner, par, ocBaseSpace());
            r.ocbaseGbps = tune::ocBaseBandwidth(
                ocb, baselineRuntime(runner, par));
            r.ocbaseRefGbps = ciflow::ocBaseBandwidth(runner, par);

            r.pass = r.cdBestMs == r.exhaustiveBestMs &&
                     2 * r.cdEvals < r.spacePoints &&
                     r.hcBestMs == r.exhaustiveBestMs &&
                     r.ocbaseGbps == r.ocbaseRefGbps;
        });
    runner.runAll(jobs);

    // Layout-axis study, serial so the pool is quiet while it times.
    for (std::size_t i = 0; i < benches.size(); ++i)
        measureLayoutAxis(benches[i], rows[i]);

    std::printf("%-9s | %5s | %9s %9s %6s %5s | %9s | %6s %6s | %6s\n",
                "Benchmark", "grid", "best(ms)", "cd(ms)", "evals",
                "frac", "hc(ms)", "pareto", "OCbase", "status");
    benchutil::rule();
    bool all_pass = true;
    for (const Row &r : rows) {
        std::printf("%-9s | %5zu | %9.3f %9.3f %6zu %4.0f%% | %9.3f | "
                    "%6zu %5.1fG | %6s\n",
                    r.benchmark.c_str(), r.spacePoints,
                    r.exhaustiveBestMs, r.cdBestMs, r.cdEvals,
                    r.cdFrac * 100.0, r.hcBestMs, r.paretoPoints,
                    r.ocbaseGbps, r.pass ? "ok" : "FAIL");
        all_pass = all_pass && r.pass;
    }
    benchutil::rule();
    for (const Row &r : rows)
        std::printf("%-9s best: %s\n", r.benchmark.c_str(),
                    r.bestConfig.c_str());
    for (const Row &r : rows)
        std::printf("%-9s eval cache (cd+hc): %zu hits / %zu misses "
                    "(%.0f%% hit rate)\n",
                    r.benchmark.c_str(), r.cacheHits, r.cacheMisses,
                    r.cacheHitRate() * 100.0);
    std::printf("\ncd/hc must match the exhaustive optimum "
                "bit-identically; cd must evaluate < 50%% of the "
                "grid; OCbase must equal the rpu-layer grid scan.\n");

    std::printf("\n");
    benchutil::header("Layout-axis exploration: fresh compile per "
                      "layout vs the experiment's layout cache");
    std::printf("%-9s | %6s %9s | %11s %12s | %6s | %s\n", "Benchmark",
                "points", "schedules", "fresh ev/s", "cached ev/s",
                "ratio", "exact");
    benchutil::rule();
    bool layout_cache_exact = true;
    for (const Row &r : rows) {
        std::printf("%-9s | %6zu %9zu | %11.0f %12.0f | %5.1fx | %s\n",
                    r.benchmark.c_str(), r.layoutPoints,
                    r.layoutSchedules, r.layoutFreshPerSec,
                    r.layoutCachedPerSec, r.layoutAxisSpeedup(),
                    r.layoutCacheExact ? "yes" : "NO");
        layout_cache_exact = layout_cache_exact && r.layoutCacheExact;
    }
    benchutil::rule();
    std::printf("fresh  = RpuEngine::compile + replayRuntime per layout "
                "point\n");
    std::printf("cached = one-point simulateRuntimeMany per layout point "
                "from HksExperiment::compiled(cfg)\n");
    std::printf("exact  = cached runtimes equal fresh compiles and the "
                "cache returns %zu stable schedules (CI-gated; the ratio "
                "is not)\n",
                kLayoutSchedules);

    // Metrics block: the runner's graph cache plus each benchmark's
    // cd+hc tuner (evaluations, cache hits, partition memo, batch-lane
    // occupancy), exported serially for a deterministic artifact.
    obs::MetricsRegistry metrics;
    runner.exportMetrics(metrics);
    for (std::size_t i = 0; i < benches.size(); ++i)
        searches[i]->exportMetrics(
            metrics, "tuner." + rows[i].benchmark + ".");

    std::ofstream jf("BENCH_tune.json");
    if (jf) {
        benchutil::JsonWriter w(jf);
        w.field("bench", "tuner");
        w.field("layout_cache_exact", layout_cache_exact);
        w.beginArray("rows");
        for (const Row &r : rows) {
            w.beginObject();
            w.field("benchmark", r.benchmark);
            w.field("space_points", r.spacePoints);
            w.field("exhaustive_best_ms", r.exhaustiveBestMs);
            w.field("cd_best_ms", r.cdBestMs);
            w.field("cd_evals", r.cdEvals);
            w.field("cd_eval_frac", r.cdFrac);
            w.field("hc_best_ms", r.hcBestMs);
            w.field("hc_evals", r.hcEvals);
            w.field("hc_cache_hits", r.hcHits);
            w.field("eval_cache_hits", r.cacheHits);
            w.field("eval_cache_misses", r.cacheMisses);
            w.field("eval_cache_hit_rate", r.cacheHitRate());
            w.field("pareto_points", r.paretoPoints);
            w.field("layout_points", r.layoutPoints);
            w.field("layout_schedules", r.layoutSchedules);
            w.field("layout_cache_exact", r.layoutCacheExact);
            w.field("layout_fresh_evals_per_sec", r.layoutFreshPerSec);
            w.field("layout_cached_evals_per_sec", r.layoutCachedPerSec);
            w.field("layout_axis_speedup", r.layoutAxisSpeedup());
            w.field("ocbase_gbps", r.ocbaseGbps);
            w.field("ocbase_ref_gbps", r.ocbaseRefGbps);
            w.field("best_config", r.bestConfig);
            w.field("pass", r.pass);
            w.endObject();
        }
        w.endArray();
        w.metrics("metrics", metrics);
        w.finish();
        jf.close();
        std::printf("wrote BENCH_tune.json\n");
    }

    if (!all_pass) {
        std::fprintf(stderr, "FAIL: a tuner gate was missed (see "
                             "status column)\n");
        return 1;
    }
    return 0;
}
