#include "rpu/runner.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace ciflow
{

namespace
{

/** The runner whose pool the current thread belongs to, if any. */
thread_local const ExperimentRunner *tls_pool_owner = nullptr;

} // namespace

ExperimentKey
ExperimentKey::of(const HksParams &par, Dataflow d,
                  const MemoryConfig &mem)
{
    return {par.name,
            par.logN,
            par.kl,
            par.kp,
            par.dnum,
            par.alpha,
            d,
            mem.dataCapacityBytes,
            mem.evkOnChip,
            mem.evkCompressed};
}

std::size_t
ExperimentKeyHash::operator()(const ExperimentKey &k) const
{
    // splitmix64 mixing of each field into a running seed.
    auto mix = [](std::size_t seed, std::uint64_t v) {
        return static_cast<std::size_t>(splitmix64(v + seed));
    };
    std::size_t h = std::hash<std::string>{}(k.name);
    h = mix(h, k.logN);
    h = mix(h, k.kl);
    h = mix(h, k.kp);
    h = mix(h, k.dnum);
    h = mix(h, k.alpha);
    h = mix(h, static_cast<std::uint64_t>(k.dataflow));
    h = mix(h, k.dataCapacityBytes);
    h = mix(h, (k.evkOnChip ? 2u : 0u) | (k.evkCompressed ? 1u : 0u));
    return h;
}

ExperimentRunner::ExperimentRunner(std::size_t threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ExperimentRunner::~ExperimentRunner()
{
    {
        std::lock_guard<std::mutex> lk(pool_mu);
        stopping = true;
    }
    pool_cv.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ExperimentRunner::workerLoop()
{
    tls_pool_owner = this;
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lk(pool_mu);
            pool_cv.wait(lk,
                         [this] { return stopping || !pending.empty(); });
            if (pending.empty())
                return; // stopping and drained
            job = std::move(pending.front());
            pending.pop_front();
        }
        job();
    }
}

std::shared_ptr<const HksExperiment>
ExperimentRunner::experiment(const HksParams &par, Dataflow d,
                             const MemoryConfig &mem)
{
    const ExperimentKey key = ExperimentKey::of(par, d, mem);
    CacheSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> lk(cache_mu);
        const auto [it, inserted] = cache.try_emplace(key);
        slot = &it->second;
        ++(inserted ? misses : hits);
    }
    // Build outside the lock: graph construction is the slow part and
    // builds of distinct keys proceed concurrently. Requesters of a key
    // whose build is in flight wait here for that one build.
    std::call_once(slot->once, [&] {
        slot->exp = std::make_shared<const HksExperiment>(par, d, mem);
    });
    return slot->exp;
}

std::size_t
ExperimentRunner::cachedExperiments() const
{
    std::lock_guard<std::mutex> lk(cache_mu);
    return cache.size();
}

std::size_t
ExperimentRunner::cacheHits() const
{
    std::lock_guard<std::mutex> lk(cache_mu);
    return hits;
}

std::size_t
ExperimentRunner::cacheMisses() const
{
    std::lock_guard<std::mutex> lk(cache_mu);
    return misses;
}

void
ExperimentRunner::exportMetrics(obs::MetricsRegistry &m,
                                const std::string &prefix) const
{
    m.count(prefix + "cache_hits", cacheHits());
    m.count(prefix + "cache_misses", cacheMisses());
    m.count(prefix + "cached_experiments", cachedExperiments());
    m.count(prefix + "threads", threadCount());
}

void
ExperimentRunner::runAll(const std::vector<std::function<void()>> &jobs)
{
    if (jobs.empty())
        return;
    // Completion latch shared with the wrappers so no job ever touches
    // this frame's stack after the final decrement releases the waiter.
    struct Latch
    {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining;
    };
    auto latch = std::make_shared<Latch>();
    latch->remaining = jobs.size();
    {
        std::lock_guard<std::mutex> lk(pool_mu);
        panicIf(stopping, "runner already shut down");
        for (const auto &job : jobs) {
            pending.push_back([latch, job] {
                job();
                std::lock_guard<std::mutex> dlk(latch->mu);
                if (--latch->remaining == 0)
                    latch->cv.notify_all();
            });
        }
    }
    pool_cv.notify_all();
    if (tls_pool_owner == this) {
        // Called from one of this runner's own workers (a job that
        // itself fans out, e.g. a parallel helper inside a batched
        // harness). Blocking here would strand a worker slot — and
        // deadlock once every worker waits the same way — so this
        // thread helps drain the queue until its own batch completes.
        // Progress is guaranteed: a helper only sleeps when the queue
        // is empty, which means every outstanding job of its batch is
        // running on some other thread.
        for (;;) {
            {
                std::lock_guard<std::mutex> lk(latch->mu);
                if (latch->remaining == 0)
                    return;
            }
            std::function<void()> job;
            {
                std::lock_guard<std::mutex> lk(pool_mu);
                if (!pending.empty()) {
                    job = std::move(pending.front());
                    pending.pop_front();
                }
            }
            if (job) {
                job();
                continue;
            }
            std::unique_lock<std::mutex> lk(latch->mu);
            latch->cv.wait(lk, [&] { return latch->remaining == 0; });
            return;
        }
    }
    std::unique_lock<std::mutex> lk(latch->mu);
    latch->cv.wait(lk, [&] { return latch->remaining == 0; });
}

std::vector<SimStats>
ExperimentRunner::sweep(const HksExperiment &exp,
                        const std::vector<SweepPoint> &points)
{
    std::vector<SimStats> out(points.size());
    // One job per point: the SimStats path replays scalar either way,
    // so batching here would only trade pool parallelism for saved
    // queue ops. The batched fast path is sweepRuntimes().
    std::vector<std::function<void()>> jobs;
    jobs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        jobs.push_back([&, i] {
            out[i] = exp.simulate(points[i].bandwidthGBps,
                                  points[i].modopsMult);
        });
    }
    runAll(jobs);
    return out;
}

std::vector<double>
ExperimentRunner::sweepRuntimes(const HksExperiment &exp,
                                const std::vector<SweepPoint> &points)
{
    std::vector<double> out(points.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve((points.size() + sim::kBatchLanes - 1) /
                 sim::kBatchLanes);
    for (std::size_t base = 0; base < points.size();
         base += sim::kBatchLanes) {
        const std::size_t n =
            std::min(sim::kBatchLanes, points.size() - base);
        jobs.push_back([&, base, n] {
            double bws[sim::kBatchLanes];
            double mults[sim::kBatchLanes];
            for (std::size_t i = 0; i < n; ++i) {
                bws[i] = points[base + i].bandwidthGBps;
                mults[i] = points[base + i].modopsMult;
            }
            exp.simulateRuntimeMany(bws, mults, n, out.data() + base);
        });
    }
    runAll(jobs);
    return out;
}

std::vector<double>
ExperimentRunner::sweepRuntimes(const HksExperiment &exp,
                                const std::vector<double> &bandwidths,
                                double modops_mult)
{
    std::vector<SweepPoint> points;
    points.reserve(bandwidths.size());
    for (double bw : bandwidths)
        points.push_back({bw, modops_mult});
    return sweepRuntimes(exp, points);
}

std::vector<SimStats>
ExperimentRunner::sweep(const HksExperiment &exp,
                        const std::vector<double> &bandwidths,
                        double modops_mult)
{
    std::vector<SweepPoint> points;
    points.reserve(bandwidths.size());
    for (double bw : bandwidths)
        points.push_back({bw, modops_mult});
    return sweep(exp, points);
}

double
baselineRuntime(ExperimentRunner &runner, const HksParams &par)
{
    MemoryConfig mem;
    mem.dataCapacityBytes = 32ull << 20;
    mem.evkOnChip = true;
    return runner.experiment(par, Dataflow::MP, mem)
        ->simulateRuntime(64.0);
}

double
ocBaseBandwidth(ExperimentRunner &runner, const HksParams &par)
{
    const double target = baselineRuntime(runner, par);
    MemoryConfig mem;
    mem.dataCapacityBytes = 32ull << 20;
    mem.evkOnChip = true;
    auto oc = runner.experiment(par, Dataflow::OC, mem);
    // Evaluate the whole paper grid with one parallel batched sweep,
    // then apply the shared grid rule. Bit-identical to the SimStats
    // sweep this replaced: every lane replays the same schedule at the
    // same rates.
    const std::vector<double> &grid = paperBandwidthSweep();
    return ocBaseFromGrid(grid, runner.sweepRuntimes(*oc, grid),
                          target);
}

std::vector<SimStats>
ExperimentRunner::sweepConfigs(const HksExperiment &exp,
                               const std::vector<RpuConfig> &configs)
{
    std::vector<SimStats> out(configs.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        jobs.push_back([&, i] { out[i] = exp.simulate(configs[i]); });
    runAll(jobs);
    return out;
}

} // namespace ciflow
