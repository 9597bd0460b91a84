/**
 * @file
 * Component probes: host cost of single layers, timed around their
 * public calls with fixed synthetic inputs, so a hot-path change can
 * show its layer gain beside the end-to-end one.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include "measure.hh"

namespace perfbench
{

struct ProbeResults
{
    /** EventQueue with trivial callbacks: ns per executed event. */
    double ns_per_event = 0;
    /** DramController, one request in flight at a time: ns per request. */
    double dram_ns_per_req_shallow = 0;
    /** The same requests enqueued 1024 deep: ns per request. */
    double dram_ns_per_req_deep = 0;
    /** PoolFabric (CXL-vanilla routing): ns per delivered message. */
    double cxl_ns_per_msg = 0;
};

/** Run every probe (median of a few repetitions each). */
ProbeResults runProbes(Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
