#include "rpu/experiment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace ciflow
{

HksExperiment::HksExperiment(const HksParams &par_, Dataflow d,
                             const MemoryConfig &mem_)
    : par(par_), df(d), mem(mem_), g(buildHksGraph(par_, d, mem_)),
      defLayout(RpuLayout::of(RpuConfig{})),
      def(RpuEngine(RpuConfig{}).compile(g))
{
}

RpuConfig
HksExperiment::normalized(const RpuConfig &cfg_in) const
{
    RpuConfig cfg = cfg_in;
    cfg.dataMemBytes = mem.dataCapacityBytes;
    cfg.evkOnChip = mem.evkOnChip;
    return cfg;
}

const sim::CompiledSchedule &
HksExperiment::compiled(const RpuConfig &cfg) const
{
    const RpuLayout layout = RpuLayout::of(cfg);
    if (layout == defLayout)
        return def;
    std::lock_guard<std::mutex> lk(layouts_mu);
    for (const auto &[l, cs] : layouts)
        if (l == layout)
            return *cs;
    layouts.emplace_back(
        layout, std::make_unique<const sim::CompiledSchedule>(
                    RpuEngine(cfg).compile(g)));
    return *layouts.back().second;
}

SimStats
HksExperiment::simulate(double bandwidth_gbps, double modops_mult) const
{
    RpuConfig cfg;
    cfg.bandwidthGBps = bandwidth_gbps;
    cfg.modopsMult = modops_mult;
    return simulate(cfg);
}

double
HksExperiment::simulateRuntime(double bandwidth_gbps,
                               double modops_mult) const
{
    RpuConfig cfg;
    cfg.bandwidthGBps = bandwidth_gbps;
    cfg.modopsMult = modops_mult;
    return simulateRuntime(cfg);
}

double
HksExperiment::simulateRuntime(const RpuConfig &cfg_in) const
{
    const RpuConfig cfg = normalized(cfg_in);
    return RpuEngine(cfg).replayRuntime(compiled(cfg));
}

namespace
{

/**
 * Per-thread batched-replay buffers: the per-point ReplayRates (each
 * reusing its bytesPerSec vector) and the block scratch are shared by
 * every batched simulate on this thread, so repeated batches allocate
 * nothing once warm.
 */
struct BatchTls
{
    std::vector<sim::ReplayRates> rates;
    sim::BatchScratch scratch;
    std::vector<RpuConfig> cfgs;
};

BatchTls &
batchTls()
{
    thread_local BatchTls tls;
    return tls;
}

} // namespace

void
HksExperiment::simulateRuntimeMany(const RpuConfig *cfgs, std::size_t n,
                                   double *out) const
{
    if (n == 0)
        return;
    const RpuConfig first = normalized(cfgs[0]);
    const RpuLayout layout = RpuLayout::of(first);
    const sim::CompiledSchedule &cs = compiled(first);

    BatchTls &tls = batchTls();
    if (tls.rates.size() < n)
        tls.rates.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const RpuConfig cfg = normalized(cfgs[i]);
        if (!(RpuLayout::of(cfg) == layout))
            panic("batched replay points must share one compiled "
                  "layout; split layout-crossing sweeps into one call "
                  "per run of equal layouts");
        RpuEngine(cfg).rates(cs, tls.rates[i]);
    }
    cs.replayMany(tls.rates.data(), n, tls.scratch);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tls.scratch.makespan[i];
}

void
HksExperiment::simulateRuntimeMany(const double *bandwidth_gbps,
                                   const double *modops_mult,
                                   std::size_t n, double *out) const
{
    BatchTls &tls = batchTls();
    if (tls.cfgs.size() < n)
        tls.cfgs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Reset the reused slot: a previous batch on this thread may
        // have left non-default layout knobs behind.
        tls.cfgs[i] = RpuConfig{};
        tls.cfgs[i].bandwidthGBps = bandwidth_gbps[i];
        tls.cfgs[i].modopsMult = modops_mult[i];
    }
    simulateRuntimeMany(tls.cfgs.data(), n, out);
}

std::vector<double>
HksExperiment::simulateRuntimeMany(
    const std::vector<double> &bandwidth_gbps, double modops_mult) const
{
    const std::size_t n = bandwidth_gbps.size();
    std::vector<double> out(n);
    BatchTls &tls = batchTls();
    if (tls.cfgs.size() < n)
        tls.cfgs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        tls.cfgs[i] = RpuConfig{};
        tls.cfgs[i].bandwidthGBps = bandwidth_gbps[i];
        tls.cfgs[i].modopsMult = modops_mult;
    }
    simulateRuntimeMany(tls.cfgs.data(), n, out.data());
    return out;
}

SimStats
HksExperiment::simulate(const RpuConfig &cfg_in) const
{
    const RpuConfig cfg = normalized(cfg_in);
    return RpuEngine(cfg).replay(compiled(cfg), g);
}

const std::vector<double> &
paperBandwidthSweep()
{
    // DDR4 (8..25.6), DDR5 (32..64) -- the paper's core sweep.
    static const std::vector<double> kSweep = {8,    12.8, 16,  25.6,
                                               32,   48,   64};
    return kSweep;
}

const std::vector<double> &
paperBandwidthSweepExtended()
{
    // Extended through HBM2 (..410) to HBM3 (1000).
    static const std::vector<double> kSweep = {
        8,   12.8, 16,  25.6, 32,  48,  64,
        128, 256,  410, 512,  768, 1000};
    return kSweep;
}

double
baselineRuntime(const HksParams &par)
{
    MemoryConfig mem;
    mem.dataCapacityBytes = 32ull << 20;
    mem.evkOnChip = true;
    HksExperiment exp(par, Dataflow::MP, mem);
    return exp.simulateRuntime(64.0);
}

double
bandwidthToMatch(const HksExperiment &exp, double target_runtime,
                 double lo_gbps, double hi_gbps, double modops_mult,
                 double tol)
{
    // Blocks replay midpoints the walk may never visit. All of them
    // lie inside the initial bracket, so a non-negative lo keeps every
    // one a valid bandwidth; the first block also replays hi itself,
    // which must be a positive finite rate. A zero-width bracket
    // (hi == lo) is a walk of no steps. The threshold target * (1 +
    // tol) must be a positive time, and every lane replays at
    // modops_mult, which replay accepts up to +inf (free compute).
    if (!(target_runtime > 0.0 && std::isfinite(target_runtime)))
        fatal("bandwidthToMatch: target_runtime must be a positive "
              "finite number");
    if (!(tol >= 0.0 && std::isfinite(tol)))
        fatal("bandwidthToMatch: tol must be a finite non-negative "
              "number");
    if (!(modops_mult > 0.0))
        fatal("bandwidthToMatch: modops_mult must be a positive number");
    if (!(lo_gbps >= 0.0))
        fatal("bandwidthToMatch: lo_gbps must be a non-negative number");
    if (!(hi_gbps >= lo_gbps && hi_gbps > 0.0 && std::isfinite(hi_gbps)))
        fatal("bandwidthToMatch: hi_gbps must be a positive finite "
              "number no lower than lo_gbps");
    // The bisection, three levels per replay block. A block replays
    // the 7 midpoints the next three steps can visit, heap-ordered:
    // node i's children are node 2i+1 (the bracket after hi = mid) and
    // node 2i+2 (after lo = mid), each midpoint computed exactly as
    // the walk below will compute it. The walk then takes the one
    // step per level that a one-point-at-a-time bisection takes, with
    // the same guard and the same mid, so it returns the same double.
    // Lane 7 of the first block is the hi_gbps feasibility probe;
    // later blocks leave it to replayMany's padding.
    constexpr std::size_t kNodes = sim::kBatchLanes - 1;
    const double thr = target_runtime * (1 + tol);
    double bw[sim::kBatchLanes], mult[sim::kBatchLanes];
    double blo[kNodes], bhi[kNodes], rt[sim::kBatchLanes];
    std::fill_n(mult, sim::kBatchLanes, modops_mult);
    double lo = lo_gbps, hi = hi_gbps;
    int iter = 0;
    for (bool first = true;
         first || (iter < 60 && (hi - lo) > 1e-6 * hi); first = false) {
        blo[0] = lo;
        bhi[0] = hi;
        for (std::size_t i = 0; i < kNodes; ++i) {
            bw[i] = 0.5 * (blo[i] + bhi[i]);
            if (2 * i + 2 < kNodes) {
                blo[2 * i + 1] = blo[i];
                bhi[2 * i + 1] = bw[i];
                blo[2 * i + 2] = bw[i];
                bhi[2 * i + 2] = bhi[i];
            }
        }
        bw[kNodes] = hi_gbps;
        exp.simulateRuntimeMany(bw, mult, first ? kNodes + 1 : kNodes,
                                rt);
        if (first && rt[kNodes] > thr)
            return std::numeric_limits<double>::infinity();
        for (std::size_t node = 0;
             node < kNodes && iter < 60 && (hi - lo) > 1e-6 * hi;
             ++iter) {
            const double mid = 0.5 * (lo + hi);
            if (rt[node] <= thr) {
                hi = mid;
                node = 2 * node + 1;
            } else {
                lo = mid;
                node = 2 * node + 2;
            }
        }
    }
    return hi;
}

double
ocBaseBandwidth(const HksParams &par)
{
    const double target = baselineRuntime(par);
    MemoryConfig mem;
    mem.dataCapacityBytes = 32ull << 20;
    mem.evkOnChip = true;
    HksExperiment oc(par, Dataflow::OC, mem);
    // One batched replay of the whole paper grid; bit-identical to the
    // per-point simulateRuntime loop this replaced.
    const std::vector<double> &grid = paperBandwidthSweep();
    return ocBaseFromGrid(grid, oc.simulateRuntimeMany(grid), target);
}

double
ocBaseFromGrid(const std::vector<double> &grid,
               const std::vector<double> &runtimes,
               double target_runtime)
{
    panicIf(runtimes.size() != grid.size(),
            "one runtime per grid point required");
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (runtimes[i] <= target_runtime * 1.001)
            return grid[i];
    return 64.0;
}

} // namespace ciflow
