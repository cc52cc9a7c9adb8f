/**
 * @file
 * MetricsRegistry: named counters and gauges for harness telemetry.
 *
 * The bench harnesses already gate perf on a handful of JSON fields;
 * everything else the subsystems know — cache hit rates, partition
 * memo hits, batch-lane occupancy, fault-scenario outcomes — was
 * either printed as prose or dropped. The registry is the
 * machine-readable middle: components export their counters into one
 * insertion-ordered namespace ("runner.cache_hits",
 * "tuner.partition_hits", "faults.failovers"), and every BENCH_*.json
 * dumps the registry as a `metrics` block so dashboards and jq
 * one-liners read one shape.
 *
 * Counters are monotonically accumulated uint64s; gauges are
 * last-write-wins doubles (fractions, ratios). Writes take a mutex —
 * export happens at harness cadence, never on a replay hot path.
 */

#ifndef CIFLOW_OBS_METRICS_H
#define CIFLOW_OBS_METRICS_H

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace ciflow::obs
{

/** One named metric: a counter (uint64) or a gauge (double). */
struct Metric
{
    std::string name;
    /** True for counters; false for gauges. */
    bool isCounter = true;
    /** Accumulated value (counters). */
    std::uint64_t count = 0;
    /** Last written value (gauges). */
    double value = 0.0;
};

/**
 * An insertion-ordered collection of named metrics. Components add to
 * it through exportMetrics(registry, "prefix") hooks; harnesses
 * serialize it with writeJson() or walk snapshot() through their own
 * writer. Re-counting an existing name accumulates; re-gauging one
 * overwrites. Mixing kinds under one name panics — that is a naming
 * bug, not data.
 */
class MetricsRegistry
{
  public:
    /** Add `delta` to counter `name` (creating it at zero). */
    void count(const std::string &name, std::uint64_t delta);

    /** Set gauge `name` to `value` (creating it). */
    void gauge(const std::string &name, double value);

    /** Copy of the metrics in insertion order. */
    std::vector<Metric> snapshot() const;

    /**
     * Serialize as one JSON object, insertion-ordered: counters as
     * integers, gauges at %.6g. No trailing newline — the caller owns
     * the surrounding document.
     */
    void writeJson(std::ostream &os) const;

  private:
    Metric &slot(const std::string &name, bool isCounter);

    mutable std::mutex mu;
    std::vector<Metric> metrics;
    std::unordered_map<std::string, std::size_t> index;
};

} // namespace ciflow::obs

#endif // CIFLOW_OBS_METRICS_H
