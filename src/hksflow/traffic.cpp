#include "hksflow/traffic.h"

#include "hksflow/opmodel.h"

namespace ciflow
{

TrafficSummary
analyzeTraffic(const HksParams &par, Dataflow d, const MemoryConfig &mem)
{
    TaskGraph g = buildHksGraph(par, d, mem);
    TrafficSummary s;
    s.benchmark = par.name;
    s.dataflow = d;
    s.trafficBytes = g.trafficBytes();
    s.evkBytes = g.evkBytes();
    s.modOps = g.totalModOps();
    s.arithmeticIntensity =
        static_cast<double>(s.modOps) /
        static_cast<double>(s.trafficBytes ? s.trafficBytes : 1);
    return s;
}

} // namespace ciflow
