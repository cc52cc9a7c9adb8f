/**
 * @file
 * DRAM traffic and arithmetic-intensity analysis (paper Table II).
 */

#ifndef CIFLOW_HKSFLOW_TRAFFIC_H
#define CIFLOW_HKSFLOW_TRAFFIC_H

#include <string>
#include <vector>

#include "hksflow/dataflow.h"

namespace ciflow
{

/** Traffic/AI summary of one (benchmark, dataflow, memory) combination. */
struct TrafficSummary
{
    std::string benchmark;
    Dataflow dataflow;
    /** DRAM bytes moved, loads + stores, including streamed evks. */
    std::uint64_t trafficBytes = 0;
    /** Bytes of evk data streamed. */
    std::uint64_t evkBytes = 0;
    /** Total modular operations (dataflow-invariant). */
    std::uint64_t modOps = 0;
    /** Arithmetic intensity: modOps / trafficBytes. */
    double arithmeticIntensity = 0.0;
    /** Peak on-chip residency observed while building. */
    std::uint64_t peakResidentBytes = 0;

    /** Traffic in binary MB, the unit Table II uses. */
    double trafficMb() const
    {
        return static_cast<double>(trafficBytes) / (1024.0 * 1024.0);
    }
};

/** Analyze one combination (builds the graph and summarizes it). */
TrafficSummary analyzeTraffic(const HksParams &par, Dataflow d,
                              const MemoryConfig &mem);

} // namespace ciflow

#endif // CIFLOW_HKSFLOW_TRAFFIC_H
