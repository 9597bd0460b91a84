/**
 * @file
 * The benchmark's four workloads: how each builds its inputs and
 * machine from a seed, runs, and checks its own outputs.
 *
 * Every workload is closed-loop: bound runs keep the NDP modules at
 * their in-flight cap, and tenants resubmit a job as soon as an
 * earlier one finishes. README.md records why each was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/system.hh"
#include "measure.hh"
#include "rack/system.hh"
#include "service/orchestrator.hh"

namespace perfbench
{

/** Host seconds of each set-up stage of one build. */
struct SetupTimes
{
    double genomics = 0; //!< genomes, reads and indexes
    double machine = 0;  //!< NdpSystem (bound: with its allocation)
    double rack = 0;     //!< RackSystem, including its NdpSystem
    double admit = 0;    //!< tenant admission
};

/** Every modelled output of one run; sim_digest covers all of it. */
struct Outcome
{
    beacon::RunResult machine;
    /** Service and rack runs: every tenant, host by host. */
    std::vector<beacon::TenantReport> tenants;
    bool is_rack = false;
    /** Rack counters (hosts moved into tenants). */
    beacon::rack::RackReport rack;
};

/** How to build a workload instance. */
struct BuildOptions
{
    std::uint64_t seed = 1;
    /** Self-test size: same shape, a few percent of the work. */
    bool tiny = false;
    /** Telemetry; all-off for every timed run. */
    beacon::obs::ObsConfig obs;
};

/** One built workload: inputs, machine and admitted tenants. */
class Instance
{
  public:
    virtual ~Instance() = default;

    /** The timed simulation; call once. */
    virtual Outcome run() = 0;

    /** The simulated machine (stats, event queue, telemetry). */
    virtual beacon::NdpSystem &machine() = 0;

    /**
     * Count every task or job as attempted and each unfinished one as
     * failed; check that every job completed or was rejected with a
     * reason, and that per-tenant counters sum to their totals.
     */
    virtual void check(const Outcome &out, Checks &checks) const = 0;

    /** Tenants whose jobs form the latency class (empty: no jobs). */
    virtual std::vector<std::uint32_t>
    latencyClass() const
    {
        return {};
    }

    /**
     * Host seconds to generate every task the run executes (make the
     * task and step it to completion), outside the simulation.
     */
    virtual double taskGenSeconds() const = 0;
};

/** A named workload and the function that builds it. */
struct WorkloadSpec
{
    const char *name;
    const char *why;
    std::unique_ptr<Instance> (*build)(const BuildOptions &opts,
                                       SetupTimes &times);
};

/** fm-vanilla, kmc-beacon-s, qos-fair, rack-8h. */
const std::vector<WorkloadSpec> &workloads();

/** Hex FNV-1a digest of every modelled output in @p out. */
std::string digestOf(const Outcome &out);

/**
 * Modelled ticks of fm-vanilla at 1024 reads and the Pt preset's own
 * seeds: fig12_fm_seeding's Pt/CXL-vanilla point (BEACON-D ladder).
 */
beacon::Tick fig12Anchor();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
