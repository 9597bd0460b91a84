// beacon-lint: allow-file(determinism-wallclock)
#include "workloads.hh"

#include <cmath>

namespace perfbench
{

using namespace beacon;

namespace
{

/** Adds the host seconds a callable takes to @p seconds. */
template <class F>
auto
timed(double &seconds, F &&f)
{
    const auto t0 = Clock::now();
    auto result = f();
    seconds += secondsSince(t0);
    return result;
}

/** Seed 0 keeps a preset's own seeds; any other seed remixes them. */
std::uint64_t
mixSeed(std::uint64_t preset_seed, std::uint64_t seed)
{
    return seed == 0 ? preset_seed
                     : preset_seed ^ (seed * 0x9E3779B97F4A7C15ull);
}

genomics::DatasetPreset
seeded(genomics::DatasetPreset preset, std::uint64_t seed)
{
    preset.genome.seed = mixSeed(preset.genome.seed, seed);
    preset.reads.seed = mixSeed(preset.reads.seed, seed);
    return preset;
}

/** Telemetry as requested and checkers off, whatever the BEACON_*
 *  environment says; the engine (SystemParams::des) stays as the
 *  environment selects it. */
SystemParams
quiet(SystemParams params, const BuildOptions &opts)
{
    params.checkers = CheckerConfig::none();
    params.obs = opts.obs;
    return params;
}

/** Make @p count tasks of @p workload (cycling its task indexes, as
 *  the orchestrator does) and step each to completion. */
double
generateTasks(const Workload &workload, std::size_t count,
              bool kmc_single_pass)
{
    double seconds = 0;
    timed(seconds, [&] {
        WorkloadContext ctx;
        ctx.kmc_single_pass = kmc_single_pass;
        std::uint64_t steps = 0;
        for (std::size_t i = 0; i < count; ++i) {
            TaskPtr task = workload.makeTask(i % workload.numTasks(), ctx);
            while (!task->next().done)
                ++steps;
        }
        return steps;
    });
    return seconds;
}

/** generateTasks() over every task the tenants' jobs execute. */
double
generateJobTasks(const std::vector<TenantSpec> &specs)
{
    double seconds = 0;
    for (const TenantSpec &spec : specs)
        seconds += generateTasks(
            *spec.workload, std::size_t(spec.num_jobs) * spec.tasks_per_job,
            true);
    return seconds;
}

/** Per-tenant counter families must sum to their untagged totals. */
void
checkConservation(const StatRegistry &reg,
                  const std::vector<TenantId> &tenants, Checks &checks)
{
    static constexpr const char *families[][2] = {
        {"usefulBytes", "usefulBytesTotal"},
        {"peBusyTicks", "peBusyTotalTicks"},
        {"dramBytes", "dramBytesTotal"},
    };
    for (const auto &[family, total] : families) {
        double by_tenant = reg.sumMatching(std::string("tenant0.") + family);
        for (const TenantId tenant : tenants)
            by_tenant += reg.sumMatching(
                "tenant" + std::to_string(tenant.value()) + "." + family);
        checks.expect(std::abs(by_tenant - reg.sumMatching(total)) <= 1e-6,
                      std::string("per-tenant ") + family +
                          " do not sum to " + total);
    }
}

/** A machine bound to one workload, run to completion. */
class BoundInstance final : public Instance
{
  public:
    BoundInstance(std::unique_ptr<Workload> workload,
                  const SystemParams &params, SetupTimes &times)
        : workload_(std::move(workload))
    {
        system_ = timed(times.machine, [&] {
            return std::make_unique<NdpSystem>(params, *workload_);
        });
    }

    Outcome
    run() override
    {
        Outcome out;
        out.machine = system_->run();
        return out;
    }

    NdpSystem &machine() override { return *system_; }

    void
    check(const Outcome &out, Checks &checks) const override
    {
        const std::uint64_t tasks = workload_->numTasks();
        const auto done = std::uint64_t(
            system_->stats().sumMatching("tasksCompleted"));
        checks.work(tasks, tasks - std::min(tasks, done), "tasks");
        checks.expect(out.machine.tasks == tasks && done == tasks,
                      "task count differs from the workload's");
        checkConservation(system_->stats(), {}, checks);
    }

    double
    taskGenSeconds() const override
    {
        return generateTasks(*workload_, workload_->numTasks(),
                             system_->params().opts.kmc_single_pass);
    }

  private:
    std::unique_ptr<Workload> workload_;
    std::unique_ptr<NdpSystem> system_;
};

/** Shared job accounting of orchestrated (service and rack) runs. */
void
checkJobs(const std::vector<TenantSpec> &specs,
          const std::vector<TenantReport> &reports,
          const std::string &last_error, Checks &checks)
{
    checks.expect(reports.size() == specs.size(),
                  "a tenant is missing from the report");
    for (std::size_t i = 0; i < std::min(specs.size(), reports.size());
         ++i) {
        const TenantSpec &spec = specs[i];
        const TenantReport &r = reports[i];
        // Rejected jobs count as failed work.
        checks.work(spec.num_jobs,
                    spec.num_jobs - std::min<std::uint64_t>(
                                        spec.num_jobs, r.jobs_completed),
                    r.name + " jobs");
        checks.expect(r.jobs_completed + r.jobs_rejected == spec.num_jobs,
                      r.name + ": a job neither completed nor was "
                               "rejected");
        checks.expect(r.tasks_completed ==
                          r.jobs_completed * spec.tasks_per_job,
                      r.name + ": completed tasks do not match jobs");
        if (r.jobs_rejected)
            checks.expect(!last_error.empty(),
                          r.name + ": job rejected without a reason");
    }
}

/** Tenant specs shaped like bench/multi_tenant_qos's `wide` mix. */
TenantSpec
serviceSpec(const char *name, const Workload &workload,
            unsigned num_jobs, unsigned tasks_per_job, unsigned priority,
            double weight, Bytes per_job, unsigned concurrency)
{
    TenantSpec spec;
    spec.name = name;
    spec.workload = &workload;
    spec.num_jobs = num_jobs;
    spec.tasks_per_job = tasks_per_job;
    spec.priority = priority;
    spec.weight = weight;
    spec.scratch_bytes_per_job = per_job;
    spec.arrival.kind = ArrivalKind::ClosedLoop;
    spec.arrival.concurrency = concurrency;
    return spec;
}

/** One bulk FM tenant and three small hash tenants, fair share. */
class QosInstance final : public Instance
{
  public:
    QosInstance(const BuildOptions &opts, SetupTimes &times)
    {
        // The bench's genomes, but about one read per task instead of
        // 64 / 32 reads cycled: the cost of a read varies widely, and
        // with few reads the modelled time would swing by ~15% from
        // seed to seed.
        genomics::DatasetPreset bulk =
            seeded(genomics::seedingPresets()[0], opts.seed);
        bulk.genome.length = 1u << 16;
        bulk.reads.num_reads = opts.tiny ? 64 : 4096;
        genomics::DatasetPreset small =
            seeded(genomics::seedingPresets()[2], opts.seed);
        small.genome.length = 1u << 15;
        small.reads.num_reads = opts.tiny ? 32 : 1024;
        bulk_ = timed(times.genomics, [&] {
            return std::make_unique<FmSeedingWorkload>(bulk);
        });
        small_ = timed(times.genomics, [&] {
            return std::make_unique<HashSeedingWorkload>(small);
        });

        // A narrow machine, so tenants contend for task slots.
        SystemParams params = quiet(SystemParams::beaconD(), opts);
        params.name = "BEACON-D (service)";
        params.pes_per_module = 8;
        params.max_inflight_tasks = 4;
        system_ = timed(times.machine, [&] {
            return std::make_unique<NdpSystem>(params);
        });

        OrchestratorParams op;
        op.scheduler = SchedulerKind::FairShare;
        op.seed = mixSeed(0xBEACC0DEull, opts.seed);
        orchestrator_ = std::make_unique<PoolOrchestrator>(*system_, op);

        // x42 the bench's job counts: 3 x 8 x 42 = 1008 small jobs, so
        // the pooled p99 has at least ten jobs beyond it.
        const unsigned scale = opts.tiny ? 1 : 42;
        specs_.push_back(serviceSpec("bulk", *bulk_, 12 * scale, 8, 0,
                                     1.0, Bytes{1u << 20}, 4));
        for (const char *name : {"small1", "small2", "small3"})
            specs_.push_back(serviceSpec(name, *small_, 8 * scale, 2, 1,
                                         4.0, Bytes{1u << 18}, 1));
        timed(times.admit, [&] {
            for (const TenantSpec &spec : specs_)
                ids_.push_back(orchestrator_->addTenant(spec));
            return 0;
        });
    }

    Outcome
    run() override
    {
        ServiceReport report = orchestrator_->run();
        Outcome out;
        out.machine = report.machine;
        out.tenants = std::move(report.tenants);
        return out;
    }

    NdpSystem &machine() override { return *system_; }

    void
    check(const Outcome &out, Checks &checks) const override
    {
        for (const TenantId id : ids_)
            checks.expect(id != untenanted_id,
                          "tenant admission failed: " +
                              orchestrator_->lastError());
        checkJobs(specs_, out.tenants, orchestrator_->lastError(),
                  checks);
        checkConservation(system_->stats(), ids_, checks);
    }

    std::vector<std::uint32_t>
    latencyClass() const override
    {
        // The small tenants, pooled.
        std::vector<std::uint32_t> ids;
        for (std::size_t i = 1; i < ids_.size(); ++i)
            ids.push_back(ids_[i].value());
        return ids;
    }

    double
    taskGenSeconds() const override
    {
        return generateJobTasks(specs_);
    }

  private:
    std::unique_ptr<FmSeedingWorkload> bulk_;
    std::unique_ptr<HashSeedingWorkload> small_;
    std::unique_ptr<NdpSystem> system_;
    std::unique_ptr<PoolOrchestrator> orchestrator_;
    std::vector<TenantSpec> specs_;
    std::vector<TenantId> ids_;
};

/** bench/rack_scale's 8-host, 2-level, 4-way shape, no hot-plug. */
class RackInstance final : public Instance
{
  public:
    RackInstance(const BuildOptions &opts, SetupTimes &times)
    {
        // The bench's genome, with one read per task rather than 32
        // reads cycled, for the same reason as qos-fair.
        genomics::DatasetPreset preset =
            seeded(genomics::seedingPresets()[3], opts.seed);
        preset.genome.length = 1u << 14;
        preset.reads.num_reads = opts.tiny ? 32 : 2048;
        workload_ = timed(times.genomics, [&] {
            return std::make_unique<HashSeedingWorkload>(preset);
        });

        rack::RackParams params;
        params.hosts = 8;
        params.switch_levels = 2;
        params.interleave_ways = 4;
        params.hdm_bytes_per_host = Bytes{1u << 20};
        // Every 2nd segment access writes: cross-host sharing shows up
        // as back-invalidate traffic, not only as queueing.
        params.segment_write_every = 2;
        params.seed = mixSeed(0xBEACC0DEull, opts.seed);
        rack::SegmentParams seg;
        seg.name = "reference";
        seg.bytes = Bytes{1u << 16};
        seg.owner_dimm = 8; // first expansion DIMM of the BEACON-D base
        params.segments.push_back(seg);
        params.base = quiet(SystemParams::beaconD(), opts);
        rack_ = timed(times.rack, [&] {
            return std::make_unique<rack::RackSystem>(params);
        });

        // 128 jobs per host, 1024 in all.
        const unsigned jobs = opts.tiny ? 4 : 128;
        timed(times.admit, [&] {
            for (unsigned h = 0; h < params.hosts; ++h) {
                TenantSpec spec;
                spec.name = "host" + std::to_string(h) + ".t0";
                spec.workload = workload_.get();
                spec.num_jobs = jobs;
                spec.tasks_per_job = 2;
                spec.arrival.concurrency = 2;
                specs_.push_back(spec);
                ids_.push_back(rack_->addTenant(h, spec));
            }
            return 0;
        });
    }

    Outcome
    run() override
    {
        Outcome out;
        out.rack = rack_->run();
        out.is_rack = true;
        out.machine = out.rack.machine;
        for (ServiceReport &host : out.rack.hosts)
            for (TenantReport &tenant : host.tenants)
                out.tenants.push_back(std::move(tenant));
        out.rack.hosts.clear();
        return out;
    }

    NdpSystem &machine() override { return rack_->machine(); }

    void
    check(const Outcome &out, Checks &checks) const override
    {
        std::string last_error;
        for (unsigned h = 0; h < rack_->numHosts(); ++h)
            if (!rack_->host(h).lastError().empty())
                last_error = rack_->host(h).lastError();
        for (const TenantId id : ids_)
            checks.expect(id != untenanted_id,
                          "rack tenant admission failed: " + last_error);
        checkJobs(specs_, out.tenants, last_error, checks);
        checkConservation(rack_->machine().stats(), ids_, checks);
    }

    // No pooled latency class: per-job latencies come only from the
    // request trace, and every host's orchestrator numbers its jobs
    // from 1, so the trace merges same-numbered jobs of different
    // hosts. Per-host percentiles come from the tenant reports.

    double
    taskGenSeconds() const override
    {
        return generateJobTasks(specs_);
    }

  private:
    std::unique_ptr<HashSeedingWorkload> workload_;
    std::unique_ptr<rack::RackSystem> rack_;
    std::vector<TenantSpec> specs_;
    std::vector<TenantId> ids_;
};

std::unique_ptr<Instance>
fmVanilla(std::size_t reads, const BuildOptions &opts, SetupTimes &times)
{
    genomics::DatasetPreset preset =
        seeded(genomics::seedingPresets()[0], opts.seed); // "Pt"
    // fig12's bench size for Pt: max(2^16, 2^20 / 4) bases.
    preset.genome.length = 1u << 18;
    preset.reads.num_reads = reads;
    auto workload = timed(times.genomics, [&] {
        return std::make_unique<FmSeedingWorkload>(preset);
    });
    // The BEACON-D ladder's first rung: host-bias coherence, no
    // packing, no placement.
    return std::make_unique<BoundInstance>(
        std::move(workload), quiet(SystemParams::cxlVanillaD(), opts),
        times);
}

std::unique_ptr<Instance>
buildFmVanilla(const BuildOptions &opts, SetupTimes &times)
{
    return fmVanilla(opts.tiny ? 64 : 8192, opts, times);
}

std::unique_ptr<Instance>
buildKmc(const BuildOptions &opts, SetupTimes &times)
{
    genomics::DatasetPreset preset =
        seeded(genomics::kmerCountingPreset(), opts.seed);
    preset.genome.length = 1u << 17; // fig15's bench genome
    auto workload = timed(times.genomics, [&] {
        return std::make_unique<KmerCountingWorkload>(
            preset, 21, 3, std::size_t(1) << 16, opts.tiny ? 16 : 512);
    });
    return std::make_unique<BoundInstance>(
        std::move(workload), quiet(SystemParams::beaconS(), opts),
        times);
}

std::unique_ptr<Instance>
buildQos(const BuildOptions &opts, SetupTimes &times)
{
    return std::make_unique<QosInstance>(opts, times);
}

std::unique_ptr<Instance>
buildRack(const BuildOptions &opts, SetupTimes &times)
{
    return std::make_unique<RackInstance>(opts, times);
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"fm-vanilla",
         "FM seeding on CXL-vanilla: densest, cheapest events; engine "
         "and CXL host round trips, shallow DRAM queues",
         buildFmVanilla},
        {"kmc-beacon-s",
         "k-mer counting on BEACON-S: atomic RMWs keep DRAM queues "
         "deep, so the FR-FCFS path dominates host time",
         buildKmc},
        {"qos-fair",
         "four tenants under fair share: the only workload through the "
         "service scheduler, admission and queueing",
         buildQos},
        {"rack-8h",
         "8 hosts, 2-level switch tree, 4-way interleave, shared "
         "segment: HDM decode, switch tree and BI coherence",
         buildRack},
    };
    return specs;
}

std::string
digestOf(const Outcome &out)
{
    Digest d;
    const RunResult &m = out.machine;
    d.text("system", m.system);
    d.text("workload", m.workload);
    d.add("ticks", std::uint64_t(m.ticks));
    d.add("seconds", m.seconds);
    d.add("tasks", std::uint64_t(m.tasks));
    d.add("tasks_per_second", m.tasks_per_second);
    d.add("energy.dram", m.energy.dram_pj.value());
    d.add("energy.comm", m.energy.comm_pj.value());
    d.add("energy.pe", m.energy.pe_pj.value());
    d.add("wire_bytes", std::uint64_t(m.wire_bytes.value()));
    d.add("host_round_trips", std::uint64_t(m.host_round_trips));
    d.add("dram_reads", std::uint64_t(m.dram_reads));
    d.add("dram_writes", std::uint64_t(m.dram_writes));
    for (double chip : m.chip_accesses)
        d.add("chip", chip);
    d.add("chip_access_cov", m.chip_access_cov);

    for (const TenantReport &t : out.tenants) {
        d.add("tenant", std::uint64_t(t.tenant.value()));
        d.text("name", t.name);
        d.add("jobs_completed", std::uint64_t(t.jobs_completed));
        d.add("jobs_rejected", std::uint64_t(t.jobs_rejected));
        d.add("tasks_completed", std::uint64_t(t.tasks_completed));
        d.add("p50_ms", t.p50_latency_ms);
        d.add("p99_ms", t.p99_latency_ms);
        d.add("mean_ms", t.mean_latency_ms);
        d.add("mean_queue_ms", t.mean_queue_ms);
        d.add("jobs_per_second", t.jobs_per_second);
        d.add("pe_busy_ticks", std::uint64_t(t.pe_busy_ticks));
        d.add("fabric_bytes", std::uint64_t(t.fabric_bytes.value()));
        d.add("dram_bytes", std::uint64_t(t.dram_bytes.value()));
        d.add("energy_pj", t.energy_pj.value());
    }

    if (out.is_rack) {
        const rack::RackReport &r = out.rack;
        d.add("pool_utilization", r.pool_utilization);
        d.add("cache_hits", std::uint64_t(r.cache_hits));
        d.add("cache_misses", std::uint64_t(r.cache_misses));
        d.add("bi_flits", std::uint64_t(r.bi_flits));
        d.add("invalidations", std::uint64_t(r.invalidations));
        d.add("ingress_bytes", std::uint64_t(r.ingress_bytes.value()));
        d.add("migrated_bytes", std::uint64_t(r.migrated_bytes.value()));
        d.add("hot_adds", std::uint64_t(r.hot_adds));
        d.add("hot_removes", std::uint64_t(r.hot_removes));
        d.add("rebinds", std::uint64_t(r.rebinds));
    }
    return d.hex();
}

Tick
fig12Anchor()
{
    BuildOptions opts;
    opts.seed = 0;
    SetupTimes times;
    return fmVanilla(1024, opts, times)->run().machine.ticks;
}

} // namespace perfbench
