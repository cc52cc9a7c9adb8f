/**
 * @file
 * Shared code of the perfbench harness: options, in-memory span
 * tracing, the workload interface, and metric reporting.
 *
 * Every time the harness reports is host CPU time of the whole process
 * (all threads, including the runner's pool worker) around public
 * library calls. On a shared VM it excludes the time the host
 * deschedules the vCPUs, which moved wall-clock throughput by up to
 * 40% between runs minutes apart (README.md). Simulated results are
 * never reported as metrics; they are serialized as hex floats,
 * hashed, and checked against pinned digests instead.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <time.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** CPU seconds consumed so far by every thread of this process. */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Seed whose per-query digests are pinned under digests/. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    /** Wall-clock seconds of the measured query loop (required). */
    double seconds = 0.0;
    /** Per-layer (traced) run instead of the end-to-end run. */
    bool trace = false;
    /** Pinned digest file, checked when seed == kDefaultSeed. */
    std::string digests;
    /** Where the traced run writes its spans at exit ("" = nowhere). */
    std::string spansOut;
    /** Print the digest of every distinct query and exit. */
    bool emitDigests = false;
};

/** One recorded span: a benchmark call into a library layer. */
struct Span
{
    /** "<layer>.<call>", or "query"/"probe"/"setup" for roots. */
    const char *name = "";
    /** Process CPU seconds since the tracer was created. */
    double start = 0.0;
    double end = 0.0;
    std::int32_t parent = -1;
    /** Query id (0 for set-up spans). */
    std::uint32_t query = 0;
};

/**
 * In-memory span recorder. Disabled, begin() returns -1 and records
 * nothing, so untraced runs pay one branch per call site.
 */
class Tracer
{
  public:
    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }
    /** Spans opened next belong to query `q` (0 = set-up). */
    void setQuery(std::uint32_t q) { query_ = q; }

    std::int32_t begin(const char *name);
    void end(std::int32_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Writes one tab-separated line per span. */
    bool write(const std::string &path) const;

  private:
    bool on_ = false;
    std::uint32_t query_ = 0;
    double epoch_ = cpuSeconds();
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** RAII span around one call. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::int32_t id_;
};

/** Per-name span totals, split by the root the span hangs under. */
struct SpanTotals
{
    double total = 0.0;
    /** Duration minus the time covered by child spans. */
    double self = 0.0;
    std::size_t count = 0;

    double mean() const { return count ? total / count : 0.0; }
};

/** Aggregates of a tracer's spans keyed by (root name, span name). */
class SpanIndex
{
  public:
    explicit SpanIndex(const Tracer &t);
    SpanTotals get(std::string_view root, std::string_view name) const;
    /** Self time of every span under `root` whose layer is `layer`. */
    double layerSelf(std::string_view root, std::string_view layer) const;

  private:
    std::map<std::pair<std::string, std::string>, SpanTotals> totals_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples the value summarizes, printed with it. */
    std::string samples;
};

/** Ordered metric list; set() overwrites an existing name. */
class Report
{
  public:
    void set(const std::string &name, double value, const std::string &unit,
             const std::string &samples = "");
    const std::vector<Metric> &metrics() const { return m_; }

  private:
    std::vector<Metric> m_;
};

/**
 * One benchmark workload. The constructor generates every input from
 * the seed; nothing it does is timed. The harness then calls prepare()
 * once (check references, untimed), setup() (timed), and
 * query()/check() in seeded cycles over the distinct queries. It
 * repeats teardown() + setup() setupReps() - 1 more times, spread over
 * the measured loop, and reports the median set-up as setup_s.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Distinct queries; each cycle visits all of them once. */
    virtual std::size_t distinct() const = 0;
    /** Digest-file key of distinct query k. */
    virtual std::string key(std::size_t k) const = 0;
    /** Fresh set-ups whose median is setup_s. */
    virtual std::size_t setupReps() const = 0;

    /** Build the state queries run against (timed). */
    virtual void setup(Tracer &t) = 0;
    /** Drop the state setup() built (untimed, between repetitions). */
    virtual void teardown() = 0;
    /**
     * Compute check references once, before the first set-up and on
     * state of its own that it drops again; false = failed.
     */
    virtual bool prepare() = 0;

    /** Run distinct query k: the timed library calls only. */
    virtual void query(std::size_t k, Tracer &t) = 0;
    /**
     * Check the last query's outputs (untimed) and serialize its
     * simulated results as hex floats into `out`. False on failure.
     */
    virtual bool check(std::size_t k, std::string &out) = 0;
    /**
     * Traced run only: time lower-layer public calls on the last
     * query's inputs, under a "probe" root outside query time.
     */
    virtual void probe(std::size_t k, Tracer &t) = 0;
    /** Per-layer metrics of the traced phase. */
    virtual void layerMetrics(const SpanIndex &spans, std::size_t queries,
                              Report &r) = 0;
};

std::unique_ptr<Workload> makeSweep(std::uint64_t seed);
std::unique_ptr<Workload> makeTune(std::uint64_t seed);
std::unique_ptr<Workload> makeServeLight(std::uint64_t seed);
std::unique_ptr<Workload> makeServeFaults(std::uint64_t seed);

/** Appends `v` in exact hexadecimal floating-point form plus `sep`. */
void appendHex(std::string &s, double v, char sep = ' ');
/** Appends an unsigned integer plus `sep`. */
void appendU(std::string &s, std::uint64_t v, char sep = ' ');
/** 64-bit FNV-1a of `s`. */
std::uint64_t fnv1a(std::string_view s);

/** ratio a / b, or 0 when b is 0. */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
