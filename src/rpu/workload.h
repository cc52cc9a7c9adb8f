/**
 * @file
 * Multi-operation workload modeling on top of single-HKS task graphs.
 *
 * The paper motivates HKS with end-to-end workloads — a single HE
 * ResNet-20 inference issues 3,306 rotations and spends ~70% of its
 * time key switching (§I). This layer models a *sequence* of HE
 * operations, each triggering one HKS, and accounts for evk reuse
 * across operations: rotations that share a Galois element can keep the
 * streamed key on-chip (ARK's "inter-operation key reuse") if a key
 * cache is provisioned.
 *
 * The model composes per-HKS simulations rather than concatenating task
 * graphs: HKS invocations are serialized by their ciphertext dependency
 * (output of one feeds the next), so total time is the sum of per-op
 * runtimes, with the evk-streaming component removed for cache hits.
 */

#ifndef CIFLOW_RPU_WORKLOAD_H
#define CIFLOW_RPU_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "hksflow/dataflow.h"
#include "hksflow/hks_params.h"
#include "rpu/runner.h"

namespace ciflow
{

/** Kind of a workload step (each performs exactly one HKS). */
enum class HeOpKind : std::uint8_t {
    Rotation, ///< Galois rotation: key selected by rotation amount
    Multiply, ///< ciphertext multiply: relinearization key
};

/** One step of an HE workload. */
struct HeOp
{
    HeOpKind kind = HeOpKind::Rotation;
    /** Rotation amount (selects the Galois key); unused for Multiply. */
    long rotation = 0;
};

/** A named sequence of HE operations on one ciphertext shape. */
struct HeWorkload
{
    std::string name;
    std::vector<HeOp> ops;

    /** Number of key switches (== ops.size()). */
    std::size_t keySwitchCount() const { return ops.size(); }

    /** Number of *distinct* evks the workload touches. */
    std::size_t distinctKeyCount() const;

    /**
     * Rotate-and-accumulate reduction over `width` slots (log-step):
     * rotations by 1, 2, 4, ... width/2.
     */
    static HeWorkload reduction(std::size_t width);

    /**
     * Diagonal-method matrix-vector product of dimension `dim`:
     * dim-1 distinct rotations plus one relinearization.
     */
    static HeWorkload matVec(std::size_t dim);

    /**
     * A ResNet-20-shaped rotation stream (§I: 3,306 rotations), with
     * `distinct` distinct rotation indices. Round-robin by default;
     * `blocked` groups each index's uses consecutively (per-layer
     * locality, the favourable case for inter-op key reuse).
     */
    static HeWorkload resnet20(std::size_t rotations = 3306,
                               std::size_t distinct = 64,
                               bool blocked = false);
};

/** Key-cache policy for streamed evks across operations. */
struct KeyCacheConfig
{
    /** Bytes of on-chip key memory retained across operations. */
    std::uint64_t capacityBytes = 0;

    /** Whether a benchmark's single evk fits in the cache. */
    bool
    holds(const HksParams &par, std::size_t keys) const
    {
        return static_cast<std::uint64_t>(keys) * par.evkBytes() <=
               capacityBytes;
    }
};

/** Result of simulating a workload. */
struct WorkloadStats
{
    double runtime = 0.0;             ///< total seconds
    std::uint64_t trafficBytes = 0;   ///< total DRAM bytes
    std::uint64_t evkBytes = 0;       ///< key bytes streamed
    std::size_t keySwitches = 0;      ///< HKS invocations
    std::size_t keyCacheHits = 0;     ///< ops served from the key cache

    double runtimeMs() const { return runtime * 1e3; }
};

/**
 * Per-op evk key-cache hit flags of `wl` (mask[i] = 1 when op i's key
 * is resident) under an LRU over `slots` distinct keys (relin = -1,
 * rotations by amount), continuing from `lru`, which holds the
 * resident keys least recent first and is left holding the state after
 * the last op. slots = 0 caches nothing: every op misses. The workload
 * and serving layers both price key reuse through this one cache.
 */
void keyCacheHitMask(const HeWorkload &wl, std::size_t slots,
                     std::vector<long> &lru,
                     std::vector<std::uint8_t> &mask);

/**
 * Simulate a workload: every op runs one HKS of shape `par` under
 * dataflow `d` at the given bandwidth. Streamed keys hit the key cache
 * when the same evk was used before and the cache can hold the working
 * set of distinct keys.
 */
WorkloadStats simulateWorkload(const HeWorkload &wl, const HksParams &par,
                               Dataflow d, const MemoryConfig &mem,
                               double bandwidth_gbps,
                               const KeyCacheConfig &cache = {});

/**
 * As above, but sourcing the per-op hit/miss experiments from a shared
 * ExperimentRunner so repeated calls (sweeps over cache sizes,
 * bandwidths or dataflows) rebuild no task graphs.
 */
WorkloadStats simulateWorkload(ExperimentRunner &runner,
                               const HeWorkload &wl, const HksParams &par,
                               Dataflow d, const MemoryConfig &mem,
                               double bandwidth_gbps,
                               const KeyCacheConfig &cache = {});

} // namespace ciflow

#endif // CIFLOW_RPU_WORKLOAD_H
