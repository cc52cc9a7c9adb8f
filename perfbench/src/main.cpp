/**
 * @file
 * perfbench harness: runs one workload in a single-threaded closed loop
 * (one client; each query starts when the previous one returns) and
 * prints its metrics, then one JSON result line.
 *
 *   perfbench --workload <sweep|tune|serve_light|serve_faults>
 *             --seconds <s> [--seed <n>] [--trace <0|1>]
 *             [--digests <file>] [--spans-out <file>] [--emit-digests]
 *
 * Untraced (--trace 0): the end-to-end metrics setup_s,
 * queries_per_s, query_p50_ms, query_p90_ms and peak_rss_mb.
 * Traced (--trace 1): every other query cycle records spans around
 * every benchmark call into a layer plus probes of the layers below;
 * prints the per-layer metrics and the tracing overhead.
 *
 * Exits 1 when any query fails a check (the JSON line still reports
 * it), 2 on bad usage.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <unordered_map>

#include "common/rng.h"
#include "common/stats.h"
#include "harness.h"

namespace perfbench
{

// ---------------------------------------------------------------- tracing

std::int32_t
Tracer::begin(const char *name)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.start = cpuSeconds() - epoch_;
    s.parent = open_.empty() ? -1 : open_.back();
    s.query = query_;
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Tracer::end(std::int32_t id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end = cpuSeconds() - epoch_;
    open_.pop_back();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "id\tname\tquery\tparent\tstart_cpu_s\tend_cpu_s\n";
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(line, sizeof line, "%zu\t%s\t%u\t%d\t%.9f\t%.9f\n", i,
                      s.name, s.query, s.parent, s.start, s.end);
        f << line;
    }
    return bool(f);
}

SpanIndex::SpanIndex(const Tracer &t)
{
    const std::vector<Span> &sp = t.spans();
    std::vector<double> childTime(sp.size(), 0.0);
    for (const Span &s : sp)
        if (s.parent >= 0)
            childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < sp.size(); ++i) {
        std::size_t r = i;
        while (sp[r].parent >= 0)
            r = static_cast<std::size_t>(sp[r].parent);
        SpanTotals &tot = totals_[{sp[r].name, sp[i].name}];
        const double d = sp[i].end - sp[i].start;
        tot.total += d;
        tot.self += d - childTime[i];
        ++tot.count;
    }
}

SpanTotals
SpanIndex::get(std::string_view root, std::string_view name) const
{
    const auto it = totals_.find({std::string(root), std::string(name)});
    return it == totals_.end() ? SpanTotals{} : it->second;
}

double
SpanIndex::layerSelf(std::string_view root, std::string_view layer) const
{
    double s = 0.0;
    for (const auto &[k, tot] : totals_)
        if (k.first == root && k.second.size() > layer.size() &&
            k.second.compare(0, layer.size(), layer) == 0 &&
            k.second[layer.size()] == '.')
            s += tot.self;
    return s;
}

// ---------------------------------------------------------------- helpers

void
Report::set(const std::string &name, double value, const std::string &unit,
            const std::string &samples)
{
    for (Metric &m : m_)
        if (m.name == name) {
            m = {name, value, unit, samples};
            return;
        }
    m_.push_back({name, value, unit, samples});
}

void
appendHex(std::string &s, double v, char sep)
{
    char buf[40];
    const auto r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::hex);
    s.append(buf, r.ptr);
    s.push_back(sep);
}

void
appendU(std::string &s, std::uint64_t v, char sep)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    s.append(buf, r.ptr);
    s.push_back(sep);
}

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace
{

/**
 * Every per-layer metric, in output order. A traced run prints all of
 * them; layers a workload does not reach read 0 (see README.md for
 * which metric is live on which workload).
 */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"hksflow.build_graph_ms", "ms"},
    {"rpu.compile_ms", "ms"},
    {"rpu.experiment_ms", "ms"},
    {"runner.cache_hits", "count/query"},
    {"runner.cache_misses", "count"},
    {"rpu.sweep_runtimes_ns_per_point", "ns/point"},
    {"sim.replay_many_ns_per_lane_op", "ns/lane-op"},
    {"rpu.bisect_us", "us"},
    {"rpu.simulate_us", "us"},
    {"sim.replay_ns_per_op", "ns/op"},
    {"obs.replay_traced_ns_per_op", "ns/op"},
    {"obs.critical_path_us", "us"},
    {"obs.trace_overhead", "ratio"},
    {"tune.cd_ms", "ms"},
    {"tune.hc_ms", "ms"},
    {"tune.evaluations", "count/query"},
    {"tune.cache_hit_rate", "frac"},
    {"tune.patched_frac", "frac"},
    {"tune.lane_occupancy", "frac"},
    {"tune.shard_points", "count/query"},
    {"shard.place_us", "us"},
    {"serve.ctor_ms", "ms"},
    {"serve.fault_ctor_ms", "ms"},
    {"serve.estimator_evals", "count"},
    {"serve.run_ns_per_job", "ns/job"},
    {"serve.batches_per_job", "ratio"},
    {"serve.max_queue_depth", "jobs"},
    {"serve.fault_run_ns_per_job", "ns/job"},
    {"sim.replay_piecewise_ns_per_op", "ns/op"},
    {"serve_fault.retries", "count/query"},
    {"serve_fault.failovers", "count/query"},
    {"serve_fault.degraded_frac", "frac"},
    {"serve_fault.rejected_frac", "frac"},
    {"sim.share", "frac"},
    {"rpu.share", "frac"},
    {"obs.share", "frac"},
    {"tune.share", "frac"},
    {"serve.share", "frac"},
    {"shard.share", "frac"},
    {"trace.qps_overhead", "ratio"},
};

const char *const kShareLayers[] = {"sim", "rpu", "obs",
                                    "tune", "serve", "shard"};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <sweep|tune|serve_light|"
                 "serve_faults> --seconds S [--seed N] [--trace 0|1]\n"
                 "                 [--digests FILE] [--spans-out FILE] "
                 "[--emit-digests]\n");
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        std::string v;
        if (a == "--emit-digests") {
            o.emitDigests = true;
        } else if (!value(v)) {
            return false;
        } else if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            char *end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (a == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 3600.0)
                return false;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (a == "--digests") {
            o.digests = v;
        } else if (a == "--spans-out") {
            o.spansOut = v;
        } else {
            return false;
        }
    }
    return !o.workload.empty() && (o.emitDigests || o.seconds > 0.0);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "sweep")
        return makeSweep(seed);
    if (name == "tune")
        return makeTune(seed);
    if (name == "serve_light")
        return makeServeLight(seed);
    if (name == "serve_faults")
        return makeServeFaults(seed);
    return nullptr;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Pinned digests: key -> hex digest. */
std::unordered_map<std::string, std::string>
loadDigests(const std::string &path, bool &ok)
{
    std::unordered_map<std::string, std::string> d;
    std::ifstream f(path);
    ok = bool(f);
    std::string key, dig;
    while (f >> key >> dig)
        d[key] = dig;
    return d;
}

/** Checks every query and compares it with its first run and its pin. */
class Checker
{
  public:
    Checker(Workload &w,
            std::unordered_map<std::string, std::string> pinned)
        : w_(w), pinned_(std::move(pinned)), first_(w.distinct(), 0),
          seen_(w.distinct(), 0)
    {
    }

    bool
    check(std::size_t k)
    {
        buf_.clear();
        bool ok = w_.check(k, buf_);
        const std::uint64_t h = fnv1a(buf_);
        if (!seen_[k]) {
            seen_[k] = 1;
            first_[k] = h;
            if (!pinned_.empty()) {
                const auto it = pinned_.find(w_.key(k));
                if (it == pinned_.end() || it->second != hex64(h)) {
                    std::fprintf(stderr,
                                 "FAIL: %s digest %s, pinned %s\n",
                                 w_.key(k).c_str(), hex64(h).c_str(),
                                 it == pinned_.end() ? "(none)"
                                                     : it->second.c_str());
                    ok = false;
                }
            }
        } else if (h != first_[k]) {
            std::fprintf(stderr, "FAIL: %s changed between repeats\n",
                         w_.key(k).c_str());
            ok = false;
        }
        return ok;
    }

  private:
    Workload &w_;
    std::unordered_map<std::string, std::string> pinned_;
    std::vector<std::uint64_t> first_;
    std::vector<std::uint8_t> seen_;
    std::string buf_;
};

/** Queries completed per second of the given per-query times. */
double
rate(const std::vector<double> &times)
{
    double t = 0.0;
    for (double q : times)
        t += q;
    return ratio(static_cast<double>(times.size()), t);
}

/** What one measured query loop produced. */
struct LoopResult
{
    /** Per-query times of the untraced cycles, and of the traced ones. */
    std::vector<double> queryTimes, tracedTimes;
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

/**
 * The closed loop: whole cycles over the seeded order until `seconds`
 * of wall-clock time have passed. Only the query() call is timed;
 * checks and probes run between queries. With `alternate`, tracing
 * and probes are on in every other cycle and the loop ends on a traced
 * cycle, so both modes run the same queries equally often under the
 * same host conditions. `resetup` is called `resetups` times at evenly
 * spaced cycle boundaries.
 */
LoopResult
runLoop(Workload &w, Checker &chk, Tracer &t,
        const std::vector<std::size_t> &order, double seconds,
        std::uint32_t &qid, bool alternate = false,
        const std::function<void()> &resetup = {}, std::size_t resetups = 0)
{
    using Wall = std::chrono::steady_clock;
    LoopResult r;
    const Wall::time_point wall0 = Wall::now();
    double elapsed = 0.0;
    std::size_t done = 0, cycle = 0;
    do {
        if (alternate)
            t.enable(cycle % 2 == 1);
        for (std::size_t k : order) {
            t.setQuery(++qid);
            const double c0 = cpuSeconds();
            {
                Scope root(t, "query");
                w.query(k, t);
            }
            (t.on() ? r.tracedTimes : r.queryTimes)
                .push_back(cpuSeconds() - c0);
            ++r.attempted;
            if (!chk.check(k))
                ++r.failed;
            if (t.on()) {
                Scope probe(t, "probe");
                w.probe(k, t);
            }
        }
        ++cycle;
        elapsed = std::chrono::duration<double>(Wall::now() - wall0).count();
        for (; done < resetups &&
               elapsed >= seconds * static_cast<double>(done + 1) /
                              static_cast<double>(resetups + 1);
             ++done)
            resetup();
    } while (elapsed < seconds || (alternate && cycle % 2 == 1));
    t.enable(false);
    t.setQuery(0);
    return r;
}

std::string
fmtNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const Report &r)
{
    for (const Metric &m : r.metrics())
        std::printf("metric %-34s %14.6g %-12s %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples.c_str());
    std::string js = "{\"correct\": ";
    js += correct ? "true" : "false";
    js += ", \"attempted\": " + std::to_string(attempted);
    js += ", \"failed\": " + std::to_string(failed);
    js += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : r.metrics()) {
        if (!first)
            js += ", ";
        first = false;
        js += "\"" + m.name + "\": {\"value\": " + fmtNum(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    js += "}}";
    std::printf("%s\n", js.c_str());
    std::fflush(stdout);
}

int
run(const Options &o)
{
    std::unique_ptr<Workload> w = makeWorkload(o.workload, o.seed);
    if (!w) {
        usage();
        return 2;
    }
    Tracer tracer;

    // Seeded visiting order of the distinct queries, fixed for the run.
    std::vector<std::size_t> order(w->distinct());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    ciflow::Rng rng(o.seed);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform(i)]);

    if (o.emitDigests) {
        if (!w->prepare())
            return 1;
        w->setup(tracer);
        bool ok = true;
        std::string buf;
        for (std::size_t k = 0; k < w->distinct(); ++k) {
            w->query(k, tracer);
            buf.clear();
            ok = w->check(k, buf) && ok;
            std::printf("%s %s\n", w->key(k).c_str(),
                        hex64(fnv1a(buf)).c_str());
        }
        return ok ? 0 : 1;
    }

    std::unordered_map<std::string, std::string> pinned;
    if (o.seed == kDefaultSeed && !o.digests.empty()) {
        bool ok = false;
        pinned = loadDigests(o.digests, ok);
        if (!ok || pinned.size() != w->distinct()) {
            std::fprintf(stderr, "FAIL: digest file %s holds %zu of %zu "
                                 "queries\n",
                         o.digests.c_str(), pinned.size(), w->distinct());
            return 1;
        }
    }

    // Check references first, on state prepare() drops again, so that
    // their memory never adds to the set-up's in the process peak.
    if (!w->prepare()) {
        std::fprintf(stderr, "FAIL: %s reference checks failed\n",
                     o.workload.c_str());
        Report empty;
        printResult(false, 1, 1, empty);
        return 1;
    }

    // Set-up: fresh state each repetition; the median is setup_s. The
    // end-to-end run spreads the repetitions over its measured loop so
    // they sample the same host conditions as the queries. The traced
    // run sets up upfront with spans on, for the per-layer set-up costs.
    std::vector<double> setups;
    auto timedSetup = [&] {
        if (!setups.empty())
            w->teardown();
        const double c0 = cpuSeconds();
        {
            Scope s(tracer, "setup");
            w->setup(tracer);
        }
        setups.push_back(cpuSeconds() - c0);
    };
    tracer.enable(o.trace);
    for (std::size_t i = 0; i < (o.trace ? w->setupReps() : 1); ++i)
        timedSetup();
    tracer.enable(false);

    // Warm-up: one untimed cycle, checked like every other.
    Checker chk(*w, std::move(pinned));
    std::uint32_t qid = 0;
    LoopResult warm = runLoop(*w, chk, tracer, order, 0.0, qid);

    Report rep;
    std::size_t attempted = warm.attempted, failed = warm.failed;
    bool valid = true;
    if (!o.trace) {
        LoopResult r = runLoop(*w, chk, tracer, order, o.seconds, qid,
                               /*alternate=*/false, timedSetup,
                               w->setupReps() - 1);
        attempted += r.attempted;
        failed += r.failed;
        std::vector<double> qt = r.queryTimes;
        std::sort(qt.begin(), qt.end());
        const std::string nq = "(n=" + std::to_string(qt.size()) +
                               " queries)";
        rep.set("setup_s", median(setups), "s",
                "(median of n=" + std::to_string(setups.size()) +
                    " set-ups)");
        rep.set("queries_per_s", rate(r.queryTimes), "1/s", nq);
        rep.set("query_p50_ms",
                1e3 * ciflow::stats::percentileSorted(qt, 0.50), "ms", nq);
        rep.set("query_p90_ms",
                1e3 * ciflow::stats::percentileSorted(qt, 0.90), "ms",
                qt.size() >= 100 ? nq : nq + " INVALID: < 100 queries");
        rep.set("peak_rss_mb", peakRssMb(), "MB", "(process peak)");
        if (qt.size() < 100) {
            std::fprintf(stderr, "FAIL: %zu queries; p90 needs >= 100\n",
                         qt.size());
            valid = false;
        }
    } else {
        // Traced and untraced cycles alternate: their throughput ratio
        // is the tracing overhead; the traced cycles feed the layers.
        LoopResult r = runLoop(*w, chk, tracer, order, o.seconds, qid,
                               /*alternate=*/true);
        attempted += r.attempted;
        failed += r.failed;

        for (const auto &[name, unit] : kLayerMetrics)
            rep.set(name, 0.0, unit);
        // Shares of the layers the benchmark calls directly; workloads
        // that probe a layer below one of them split its share.
        const SpanIndex idx(tracer);
        const std::size_t nTraced = r.tracedTimes.size();
        const double q = idx.get("query", "query").total;
        for (const char *layer : kShareLayers)
            rep.set(std::string(layer) + ".share",
                    ratio(idx.layerSelf("query", layer), q), "frac",
                    "(n=" + std::to_string(nTraced) + " traced queries)");
        w->layerMetrics(idx, nTraced, rep);
        rep.set("trace.qps_overhead",
                ratio(rate(r.queryTimes), rate(r.tracedTimes)), "ratio",
                "(untraced " + std::to_string(r.queryTimes.size()) +
                    " / traced " + std::to_string(nTraced) +
                    " queries, alternate cycles)");
        if (rep.metrics().size() != kLayerMetrics.size()) {
            std::fprintf(stderr, "FAIL: workload reported a metric "
                                 "outside the per-layer list\n");
            valid = false;
        }
        if (!o.spansOut.empty() && !tracer.write(o.spansOut))
            std::fprintf(stderr, "warning: cannot write %s\n",
                         o.spansOut.c_str());
    }

    const double ff = ratio(static_cast<double>(failed),
                            static_cast<double>(attempted));
    std::printf("workload %s seed %llu: %zu queries attempted, %zu "
                "failed, failed_frac %.6g\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                attempted, failed, ff);
    const bool correct = failed == 0 && valid;
    printResult(correct, attempted, failed, rep);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options o;
    if (!perfbench::parseArgs(argc, argv, o)) {
        perfbench::usage();
        return 2;
    }
    return perfbench::run(o);
}
