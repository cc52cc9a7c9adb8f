/**
 * @file
 * Workload `sweep`: one query is one CiFlow design study of one
 * experiment (benchmark x dataflow x evk residency x data capacity):
 * the extended bandwidth x MODOPS grid through
 * ExperimentRunner::sweepRuntimes, a bandwidthToMatch bisection to the
 * Table IV baseline, HksExperiment::simulate at the matched point, and
 * a traced replay plus critical path there. Batched and scalar replay
 * and tracing do almost all the work; nothing compiles, tunes or
 * serves inside a query.
 */

#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "hksflow/dataflow.h"
#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/traced_replay.h"
#include "rpu/runner.h"

namespace perfbench
{
namespace
{

using namespace ciflow;

struct ExpSpec
{
    std::size_t bench = 0;
    Dataflow df = Dataflow::MP;
    MemoryConfig mem;
    std::string key;
};

/** Outputs of the last query. */
struct StudyOut
{
    std::vector<double> grid;
    double bandwidth = 0.0;
    SimStats stats;
    sim::ReplayRates rates;
    double traced = 0.0;
    obs::CriticalPath path;
};

class Sweep final : public Workload
{
  public:
    explicit Sweep(std::uint64_t seed)
    {
        const std::vector<HksParams> &bench = paperBenchmarks();
        for (std::size_t b = 0; b < bench.size(); ++b)
            for (Dataflow d : allDataflows())
                for (bool onChip : {false, true})
                    for (std::uint64_t mib : {16, 32, 64, 128}) {
                        if ((mib << 20) < minDataCapacity(bench[b], d))
                            continue;
                        ExpSpec e;
                        e.bench = b;
                        e.df = d;
                        e.mem.dataCapacityBytes = mib << 20;
                        e.mem.evkOnChip = onChip;
                        e.key = bench[b].name + "/" + dataflowName(d) +
                                (onChip ? "/onchip/" : "/stream/") +
                                std::to_string(mib) + "MiB";
                        specs.push_back(e);
                    }
        for (double m : {1.0, 2.0, 4.0, 8.0})
            for (double bw : paperBandwidthSweepExtended())
                points.push_back({bw, m});
        // Grid points re-checked against scalar simulateRuntime.
        Rng rng(seed ^ 0x5a3b1e5ull);
        for (std::size_t k = 0; k < specs.size(); ++k)
            samples.push_back({rng.uniform(points.size()),
                               rng.uniform(points.size())});
    }

    std::size_t distinct() const override { return specs.size(); }
    std::string key(std::size_t k) const override { return specs[k].key; }
    std::size_t setupReps() const override { return 9; }

    void
    setup(Tracer &t) override
    {
        const std::vector<HksParams> &bench = paperBenchmarks();
        runner = std::make_unique<ExperimentRunner>(1);
        exps.reserve(specs.size());
        for (const ExpSpec &e : specs) {
            {
                Scope s(t, "rpu.experiment");
                exps.push_back(
                    runner->experiment(bench[e.bench], e.df, e.mem));
            }
            if (t.on()) {
                // The two calls experiment() makes on a miss, timed
                // directly on the same inputs.
                TaskGraph g;
                {
                    Scope s(t, "hksflow.buildHksGraph");
                    g = buildHksGraph(bench[e.bench], e.df, e.mem);
                }
                Scope s(t, "rpu.compile");
                (void)RpuEngine(RpuConfig{}).compile(g);
            }
        }
        target.clear();
        for (const HksParams &par : bench) {
            Scope s(t, "rpu.baselineRuntime");
            target.push_back(baselineRuntime(*runner, par));
        }
    }

    void
    teardown() override
    {
        exps.clear();
        runner.reset();
    }

    bool prepare() override { return true; }

    void
    query(std::size_t k, Tracer &t) override
    {
        const HksExperiment &e = *exps[k];
        {
            Scope s(t, "rpu.sweepRuntimes");
            out.grid = runner->sweepRuntimes(e, points);
        }
        {
            Scope s(t, "rpu.bandwidthToMatch");
            out.bandwidth = bandwidthToMatch(e, target[specs[k].bench]);
        }
        const RpuConfig cfg = matched(e, out.bandwidth);
        {
            Scope s(t, "rpu.simulate");
            out.stats = e.simulate(cfg);
        }
        {
            Scope s(t, "rpu.rates");
            RpuEngine(cfg).rates(e.compiled(), out.rates);
        }
        {
            Scope s(t, "obs.replayTraced");
            out.traced =
                obs::replayTraced(e.compiled(), out.rates, scratch, buf);
        }
        Scope s(t, "obs.criticalPath");
        out.path = obs::criticalPath(e.compiled(), buf);
    }

    bool
    check(std::size_t k, std::string &ser) override
    {
        const HksExperiment &e = *exps[k];
        bool ok = out.grid.size() == points.size();
        for (std::size_t i : samples[k])
            ok = ok && e.simulateRuntime(points[i].bandwidthGBps,
                                         points[i].modopsMult) ==
                           out.grid[i];
        const double plain = e.compiled().replay(out.rates, plainScratch);
        ok = ok && plain == out.traced && out.path.length == out.traced &&
             out.stats.runtime == out.traced;
        for (double v : out.grid)
            appendHex(ser, v);
        ser.push_back('\n');
        appendHex(ser, out.bandwidth);
        appendHex(ser, out.stats.runtime);
        appendHex(ser, out.stats.memBusy);
        appendHex(ser, out.stats.compBusy);
        appendU(ser, out.stats.trafficBytes);
        appendU(ser, out.stats.modOps);
        appendHex(ser, out.traced);
        appendHex(ser, out.path.length);
        appendU(ser, out.path.steps.size(), '\n');
        return ok;
    }

    void
    probe(std::size_t k, Tracer &t) override
    {
        // The sim-layer work beneath the query's rpu calls: the grid
        // as one replayMany batch, and a scalar replay at the matched
        // point, the sim half of one simulateRuntime() call — the unit
        // the bisection repeats.
        const HksExperiment &e = *exps[k];
        const sim::CompiledSchedule &cs = e.compiled();
        gridRates.resize(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            RpuConfig cfg = matched(e, points[i].bandwidthGBps);
            cfg.modopsMult = points[i].modopsMult;
            RpuEngine(cfg).rates(cs, gridRates[i]);
        }
        {
            Scope s(t, "sim.replayMany");
            cs.replayMany(gridRates.data(), gridRates.size(), batch);
        }
        {
            Scope s(t, "sim.replay");
            (void)cs.replay(out.rates, plainScratch);
        }
        {
            Scope s(t, "calib.simulateRuntime");
            (void)e.simulateRuntime(matched(e, out.bandwidth));
        }
        laneOps += static_cast<double>(points.size() * cs.opCount());
        ops += static_cast<double>(cs.opCount());
    }

    void
    layerMetrics(const SpanIndex &ix, std::size_t queries,
                 Report &r) override
    {
        const std::string nq = "(n=" + std::to_string(queries) + " queries)";
        const double reps = static_cast<double>(setupReps());
        const std::string ns =
            "(per set-up, n=" + std::to_string(setupReps()) + ")";
        r.set("hksflow.build_graph_ms",
              1e3 * ix.get("setup", "hksflow.buildHksGraph").total / reps,
              "ms", ns);
        r.set("rpu.compile_ms",
              1e3 * ix.get("setup", "rpu.compile").total / reps, "ms", ns);
        r.set("rpu.experiment_ms",
              1e3 * ix.get("setup", "rpu.experiment").total / reps, "ms",
              ns);
        // Queries hold their experiments, so the graph cache is only
        // used in set-up.
        obs::MetricsRegistry reg;
        runner->exportMetrics(reg);
        for (const obs::Metric &m : reg.snapshot())
            if (m.name == "runner.cache_misses")
                r.set("runner.cache_misses", static_cast<double>(m.count),
                      "count", "(graph builds of the kept set-up)");
        const SpanTotals sr = ix.get("query", "rpu.sweepRuntimes");
        r.set("rpu.sweep_runtimes_ns_per_point",
              1e9 * ratio(sr.total, static_cast<double>(sr.count *
                                                        points.size())),
              "ns/point", nq);
        r.set("sim.replay_many_ns_per_lane_op",
              1e9 * ratio(ix.get("probe", "sim.replayMany").total, laneOps),
              "ns/lane-op", nq);
        r.set("rpu.bisect_us",
              1e6 * ix.get("query", "rpu.bandwidthToMatch").mean(), "us",
              nq);
        r.set("rpu.simulate_us", 1e6 * ix.get("query", "rpu.simulate").mean(),
              "us", nq);
        const double plain = ix.get("probe", "sim.replay").total;
        const double traced = ix.get("query", "obs.replayTraced").total;
        r.set("sim.replay_ns_per_op", 1e9 * ratio(plain, ops), "ns/op", nq);
        r.set("obs.replay_traced_ns_per_op", 1e9 * ratio(traced, ops),
              "ns/op", nq);
        r.set("obs.critical_path_us",
              1e6 * ix.get("query", "obs.criticalPath").mean(), "us", nq);
        r.set("obs.trace_overhead", ratio(traced, plain), "ratio", nq);

        // sim self time inside the rpu calls: the grid batch, the
        // replay inside simulate(), and the bisection scaled by the sim
        // share of one simulateRuntime() call on the same inputs.
        const double q = ix.get("query", "query").total;
        const double sim =
            ix.get("probe", "sim.replayMany").total + plain +
            ix.get("query", "rpu.bandwidthToMatch").total *
                ratio(plain, ix.get("probe", "calib.simulateRuntime").total);
        r.set("sim.share", ratio(sim, q), "frac", nq);
        r.set("rpu.share", ratio(ix.layerSelf("query", "rpu") - sim, q),
              "frac", nq);
    }

  private:
    /** The config simulate() uses at `gbps` for experiment `e`. */
    static RpuConfig
    matched(const HksExperiment &e, double gbps)
    {
        RpuConfig cfg;
        cfg.bandwidthGBps = gbps;
        cfg.dataMemBytes = e.memory().dataCapacityBytes;
        cfg.evkOnChip = e.memory().evkOnChip;
        return cfg;
    }

    std::vector<ExpSpec> specs;
    std::vector<SweepPoint> points;
    std::vector<std::vector<std::size_t>> samples;

    std::unique_ptr<ExperimentRunner> runner;
    std::vector<std::shared_ptr<const HksExperiment>> exps;
    std::vector<double> target;

    StudyOut out;
    sim::ReplayScratch scratch, plainScratch;
    obs::TraceBuffer buf;

    std::vector<sim::ReplayRates> gridRates;
    sim::BatchScratch batch;
    double laneOps = 0.0, ops = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeSweep(std::uint64_t seed)
{
    return std::make_unique<Sweep>(seed);
}

} // namespace perfbench
