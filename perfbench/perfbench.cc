/**
 * @file
 * Simulator benchmark: the host cost and the modelled outcome
 * of one workload, and with --trace 1 a traced pass that splits host
 * time and modelled latency by layer. README.md in this directory
 * describes the workloads and how to read the output.
 *
 * usage: perfbench --workload <name> --seed <n> --seconds <s>
 *                  --trace <0|1>
 *
 * The timed runs repeat set-up + simulation for --seconds (at least
 * three times) with all telemetry and checkers off, and report
 * medians. The last stdout line is one JSON object with the keys
 * correct, attempted, failed and metrics; the exit code is non-zero
 * when any output check failed.
 */
// beacon-lint: allow-file(determinism-wallclock)

#include <linux/perf_event.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "measure.hh"
#include "probes.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

using namespace beacon;
using namespace perfbench;

/** Timed runs per invocation, however short --seconds is. */
constexpr std::size_t min_runs = 3;

/** Set-ups timed per invocation: set-up takes milliseconds, so it is
 *  timed more often than the runs, for a steadier median. */
constexpr std::size_t min_setups = 21;

struct Args
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
                 why.c_str());
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        char *end = nullptr;
        errno = 0;
        if (flag == "--workload") {
            for (const WorkloadSpec &w : workloads())
                if (value == w.name)
                    args.workload = &w;
            if (!args.workload)
                usage("unknown workload '" + value + "'");
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || value[0] == '-' || *end || errno)
                usage("bad --seed '" + value + "'");
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(args.seconds > 0) ||
                args.seconds > 600)
                usage("bad --seconds '" + value + "'");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace '" + value + "'");
            args.trace = value == "1";
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (!args.workload || !have_seed || args.seconds <= 0)
        usage("--workload, --seed and --seconds are required");
    return args;
}

/**
 * A memory field of /proc/self/status ("VmRSS", "VmHWM"), in MB; 0
 * when unreadable. getrusage's ru_maxrss would not do: it carries
 * the launching process's peak across exec.
 */
double
statusMb(const char *field)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kb = 0;
    const std::size_t len = std::strlen(field);
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
            kb = std::strtod(line + len + 1, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

/** CPUs this process may run on (what nproc prints). */
unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return unsigned(CPU_COUNT(&set));
}

/**
 * User-mode instructions retired by this thread, from the CPU's
 * performance counters. Unlike host time, the count does not move
 * when other programs contend for the host's caches, so it shows
 * small host-cost changes that timing noise hides. Reads 0 where the
 * host exposes no counters. Worker threads of a sharded engine
 * (BEACON_DES_SHARDS) are not counted.
 */
class InstructionCounter
{
  public:
    InstructionCounter()
    {
        perf_event_attr attr = {};
        attr.type = PERF_TYPE_HARDWARE;
        attr.size = sizeof(attr);
        attr.config = PERF_COUNT_HW_INSTRUCTIONS;
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        fd = int(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
    }

    ~InstructionCounter()
    {
        if (fd >= 0)
            close(fd);
    }

    InstructionCounter(const InstructionCounter &) = delete;
    InstructionCounter &operator=(const InstructionCounter &) = delete;

    std::uint64_t
    read() const
    {
        std::uint64_t count = 0;
        if (fd < 0 || ::read(fd, &count, sizeof(count)) != sizeof(count))
            return 0;
        return count;
    }

  private:
    int fd = -1;
};

/** Every BEACON_* environment variable, as NAME=value. */
std::vector<std::string>
beaconEnv()
{
    std::vector<std::string> vars;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "BEACON_", 7) == 0)
            vars.emplace_back(*e);
    std::sort(vars.begin(), vars.end());
    return vars;
}

/** Modelled per-layer values, read from the machine after a run. */
struct ModelLayers
{
    std::uint64_t events = 0;
    double dram_reads = 0;
    double dram_writes = 0;
    double row_hit_ratio = 0;
    double mean_latency_ns = 0;
    double cxl_messages = 0;
    double wire_bytes = 0;
    double useful_per_wire = 0;
    double host_round_trips = 0;
    double ndp_tasks = 0;
    double pe_utilization = 0;
    double bi_flits = 0;
    double invalidations = 0;
    double pool_utilization = 0;
    double jobs_rejected = 0;
};

ModelLayers
readModel(NdpSystem &sys, const Outcome &out, Checks &checks)
{
    const StatRegistry &reg = sys.stats();
    ModelLayers m;
    m.events = sys.eventQueue().eventsExecuted();
    m.dram_reads = double(out.machine.dram_reads);
    m.dram_writes = double(out.machine.dram_writes);
    // A request that needed no ACT hit an open row. (The controllers'
    // own rowHits counter counts every first column command, which
    // always follows an ACT or a hit, so it always equals requests.)
    const double requests = m.dram_reads + m.dram_writes;
    m.row_hit_ratio = checks.ratio(
        std::max(0.0, requests - reg.sumMatching("activates")), requests,
        "row hits over DRAM requests");
    double latency_sum = 0;
    double latency_count = 0;
    for (const auto &[name, stat] : reg.sampleStats()) {
        if (name.ends_with(".requestLatency")) {
            latency_sum += stat.mean() * double(stat.count());
            latency_count += double(stat.count());
        }
    }
    m.mean_latency_ns =
        checks.ratio(latency_sum, latency_count,
                     "DRAM latency ticks over DRAM requests") *
        1e-3; // ps -> ns
    m.cxl_messages = reg.counterValue("pool.messages");
    m.wire_bytes = double(out.machine.wire_bytes.value());
    m.useful_per_wire =
        checks.ratio(reg.counterValue("pool.usefulBytesTotal"),
                     m.wire_bytes, "useful bytes over wire bytes");
    m.host_round_trips = double(out.machine.host_round_trips);
    m.ndp_tasks = reg.sumMatching("tasksCompleted");
    double pe_busy = 0;
    for (unsigned part = 0; part < sys.numPartitions(); ++part)
        pe_busy += double(sys.ndpModule(part).peBusyTicks());
    m.pe_utilization = checks.ratio(
        pe_busy,
        double(sys.params().pes_per_module) * sys.numPartitions() *
            double(out.machine.ticks),
        "PE-busy ticks over PEs x modelled ticks");
    if (out.is_rack) {
        m.bi_flits = double(out.rack.bi_flits);
        m.invalidations = double(out.rack.invalidations);
        m.pool_utilization = out.rack.pool_utilization;
    }
    for (const TenantReport &t : out.tenants)
        m.jobs_rejected += double(t.jobs_rejected);
    return m;
}

/** Medians and modelled outcome of the timed runs. */
struct TimedRuns
{
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> genomics;
    std::vector<double> machine;
    std::vector<double> rack;
    std::vector<double> admit;
    /** Instructions retired by each simulation (0: no counters). */
    std::vector<double> instructions;
    /** The first run's outcome; every later run must match it. */
    Outcome outcome;
    std::string digest;
    ModelLayers model;
    std::vector<std::uint32_t> latency_class;
};

/**
 * Build and run the workload, untraced, until --seconds have passed
 * (at least min_runs times). Set-up and simulation are timed apart;
 * tearing the machine down is in neither.
 */
TimedRuns
timedRuns(const Args &args, Checks &checks)
{
    TimedRuns r;
    BuildOptions opts;
    opts.seed = args.seed;
    const auto set_up = [&] {
        SetupTimes st;
        const auto t0 = Clock::now();
        std::unique_ptr<Instance> inst = args.workload->build(opts, st);
        r.setup.push_back(secondsSince(t0));
        r.genomics.push_back(st.genomics);
        r.machine.push_back(st.machine);
        r.rack.push_back(st.rack);
        r.admit.push_back(st.admit);
        return inst;
    };
    const InstructionCounter counter;
    const auto start = Clock::now();
    while (r.wall.size() < min_runs ||
           secondsSince(start) < args.seconds) {
        const std::unique_ptr<Instance> inst = set_up();
        const std::uint64_t instructions = counter.read();
        const auto t1 = Clock::now();
        const Outcome out = inst->run();
        r.wall.push_back(secondsSince(t1));
        r.instructions.push_back(double(counter.read() - instructions));

        inst->check(out, checks);
        const std::string digest = digestOf(out);
        if (r.wall.size() == 1) {
            r.outcome = out;
            r.digest = digest;
            r.model = readModel(inst->machine(), out, checks);
            r.latency_class = inst->latencyClass();
        } else {
            checks.expect(digest == r.digest,
                          "sim_digest differs between two in-process "
                          "runs at one seed");
            checks.expect(inst->machine().eventQueue().eventsExecuted() ==
                              r.model.events,
                          "event count differs between two in-process "
                          "runs at one seed");
        }
    }
    checks.expect(median(r.instructions) > 0,
                  "no hardware instruction counter (perf_event_open)");
    while (r.setup.size() < min_setups)
        set_up();
    return r;
}

/** Job latencies of the latency class, from the request trace. */
struct LatencyPass
{
    bool ran = false;
    /** Ascending, in simulated us. */
    std::vector<double> latencies_us;
    /** Component ticks over total job-latency ticks, by SpanKind. */
    std::array<double, obs::num_span_kinds> share{};
    double mean_queue_us = 0;
};

/**
 * One run with request tracing on (deterministic, so the modelled
 * outcome must equal the timed runs'): the pooled job latencies of
 * the latency class and their queue/pe/link/switch/dram split.
 */
LatencyPass
latencyPass(const Args &args, const TimedRuns &timed, Checks &checks)
{
    LatencyPass lp;
    if (timed.latency_class.empty())
        return lp;
    BuildOptions opts;
    opts.seed = args.seed;
    opts.obs.request_trace = true;
    SetupTimes st;
    const std::unique_ptr<Instance> inst = args.workload->build(opts, st);
    const Outcome out = inst->run();
    checks.expect(digestOf(out) == timed.digest,
                  "request tracing changed a modelled output");
    const obs::RequestTrace *rt = inst->machine().obsRequestTrace();
    checks.expect(rt != nullptr, "request trace missing");
    if (!rt)
        return lp;
    checks.expect(rt->openJobs() == 0 && rt->droppedJobs() == 0,
                  "request trace lost a job");
    lp.ran = true;

    const auto in_class = [&](std::uint32_t tenant) {
        return std::find(timed.latency_class.begin(),
                         timed.latency_class.end(),
                         tenant) != timed.latency_class.end();
    };
    std::map<std::uint32_t, std::vector<double>> by_tenant; // ticks
    std::array<Tick, obs::num_span_kinds> comp{};
    Tick total = 0;
    for (const obs::JobRecord &rec : rt->records()) {
        if (!in_class(rec.tenant))
            continue;
        by_tenant[rec.tenant].push_back(double(rec.latency()));
        lp.latencies_us.push_back(double(rec.latency()) * 1e-6);
        for (std::size_t k = 0; k < obs::num_span_kinds; ++k)
            comp[k] += rec.comp[k];
        total += rec.latency();
    }
    std::sort(lp.latencies_us.begin(), lp.latencies_us.end());
    double share_sum = 0;
    for (std::size_t k = 0; k < obs::num_span_kinds; ++k) {
        lp.share[k] = checks.ratio(double(comp[k]), double(total),
                                   "component ticks over job-latency "
                                   "ticks");
        share_sum += lp.share[k];
    }
    checks.expect(std::abs(share_sum - 1) < 1e-9,
                  "latency shares do not sum to 1");

    // The trace must reproduce the orchestrator's own percentiles.
    double queue_sum = 0;
    double class_jobs = 0;
    for (const TenantReport &t : out.tenants) {
        auto it = by_tenant.find(t.tenant.value());
        if (it == by_tenant.end())
            continue;
        std::vector<double> &ticks = it->second;
        std::sort(ticks.begin(), ticks.end());
        checks.expect(
            percentile(ticks, {50, 100, "p50"}).value * 1e-9 ==
                    t.p50_latency_ms &&
                percentile(ticks, {99, 100, "p99"}).value * 1e-9 ==
                    t.p99_latency_ms,
            t.name + ": request-trace percentiles differ from the "
                     "tenant report");
        queue_sum += t.mean_queue_ms * double(t.jobs_completed);
        class_jobs += double(t.jobs_completed);
    }
    lp.mean_queue_us =
        checks.ratio(queue_sum, class_jobs, "queue ms over class jobs") *
        1e3;
    return lp;
}

/** Host-time split of one self-profiled run. */
struct ProfilePass
{
    double wall = 0;
    obs::SelfProfileResult profile;
    double task_gen = 0;
};

ProfilePass
profilePass(const Args &args, const TimedRuns &timed, Checks &checks)
{
    BuildOptions opts;
    opts.seed = args.seed;
    opts.obs.self_profile = true;
    SetupTimes st;
    const std::unique_ptr<Instance> inst = args.workload->build(opts, st);
    const auto t0 = Clock::now();
    const Outcome out = inst->run();
    ProfilePass p;
    p.wall = secondsSince(t0);
    checks.expect(digestOf(out) == timed.digest,
                  "self-profiling changed a modelled output");
    obs::Observability *o = inst->machine().observability();
    checks.expect(o && o->selfProfiling(), "self-profiler missing");
    if (o)
        p.profile = o->selfProfile();
    p.task_gen = inst->taskGenSeconds();
    return p;
}

/**
 * The benchmark's own arithmetic: the percentile helper, zero ratio
 * bases, and sim_digest (equal for two in-process runs at one seed,
 * different across seeds; run at the workload's self-test size).
 */
void
selfTest(const Args &args, Checks &checks)
{
    const auto ramp = [](std::size_t n) {
        std::vector<double> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = double(i + 1);
        return v;
    };
    const auto tail_is = [&](std::size_t n, const char *name,
                             double value, std::size_t beyond) {
        const Tail t = tailPercentile(ramp(n));
        checks.expect(std::string(t.name) == name && t.value == value &&
                          t.beyond == beyond,
                      "self-test: tailPercentile of " +
                          std::to_string(n) + " samples");
    };
    tail_is(1000, "p99", 990, 10);
    tail_is(999, "p90", 900, 99);
    tail_is(100000, "p99.99", 99990, 10);
    tail_is(20, "p50", 10, 10);
    tail_is(19, "", 0, 0);
    checks.expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
                  "self-test: median");

    Checks probe;
    const double half = probe.ratio(1, 2, "one half");
    const double zero_base = probe.ratio(1, 0, "zero base");
    checks.expect(half == 0.5 && zero_base == 0 &&
                      probe.failed() == 1,
                  "self-test: a zero ratio base must count as a failure");

    const auto tiny_digest = [&](std::uint64_t seed) {
        BuildOptions opts;
        opts.seed = seed;
        opts.tiny = true;
        SetupTimes st;
        return digestOf(args.workload->build(opts, st)->run());
    };
    const std::string a = tiny_digest(args.seed);
    checks.expect(a == tiny_digest(args.seed),
                  "self-test: sim_digest differs between two in-process "
                  "runs at one seed");
    checks.expect(a != tiny_digest(args.seed + 1),
                  "self-test: sim_digest is equal across seeds");
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit);
}

void
printJson(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to time an unoptimized "
                         "build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n");
    return 3;
#endif
    const double rss_base = statusMb("VmRSS");

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u\n",
                args.workload->name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                int(args.trace), availableCpus());
    const std::vector<std::string> env = beaconEnv();
    std::printf("environment:");
    for (const std::string &var : env)
        std::printf(" %s", var.c_str());
    std::printf("%s\n", env.empty() ? " (no BEACON_* variables set)" : "");
    std::fflush(stdout);

    Checks checks;
    const TimedRuns timed = timedRuns(args, checks);
    const double peak_rss_mb = statusMb("VmHWM") - rss_base;
    const LatencyPass latency = latencyPass(args, timed, checks);
    selfTest(args, checks);

    const double wall_s = median(timed.wall);
    const RunResult &m = timed.outcome.machine;
    // Host cost is gated on instructions retired, not on wall_s: on a
    // shared host the same run's wall time drifted by up to 30%
    // between runs, while its instruction count repeats to 1e-5.
    const std::vector<Metric> end_to_end = {
        {"host_instructions", median(timed.instructions), "count"},
        {"setup_s", median(timed.setup), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"sim_us", double(m.ticks) * 1e-6, "us"},
        {"sim_energy_uj", m.energy.totalPj().value() * 1e-6, "uJ"},
    };
    std::printf("timed runs: %zu (medians below); wall_s each:",
                timed.wall.size());
    for (double w : timed.wall)
        std::printf(" %.4f", w);
    std::printf("\ninstructions each:");
    for (double n : timed.instructions)
        std::printf(" %.6g", n);
    std::printf("\n");
    printMetrics("end to end:", end_to_end);
    std::printf("  %-32s %14.6g s (not gated; see sim.wall_s)\n", "wall_s",
                wall_s);
    if (latency.ran) {
        const Tail p50 = percentile(latency.latencies_us, {50, 100, "p50"});
        const Tail tail = tailPercentile(latency.latencies_us);
        std::printf("  %-32s %14.6g us (%zu jobs)\n", "sim_job_p50_us",
                    p50.value, latency.latencies_us.size());
        std::printf("  %-32s %14.6g us (%s, %zu jobs beyond)\n",
                    (std::string("sim_job_") + tail.name + "_us").c_str(),
                    tail.value, tail.name, tail.beyond);
    } else if (timed.outcome.tenants.empty()) {
        std::printf("  sim_job_*: no jobs (bound run)\n");
    } else {
        std::printf("  sim_job_*: no pooled latency class (per-tenant "
                    "percentiles below)\n");
    }
    for (const TenantReport &t : timed.outcome.tenants)
        std::printf("  tenant %-10s p50 %.6g us, p99 %.6g us (%llu "
                    "jobs)\n",
                    t.name.c_str(), t.p50_latency_ms * 1e3,
                    t.p99_latency_ms * 1e3,
                    static_cast<unsigned long long>(t.jobs_completed));
    std::printf("sim_digest %s\n", timed.digest.c_str());

    std::vector<Metric> metrics = end_to_end;
    if (args.trace) {
        const ProfilePass prof = profilePass(args, timed, checks);
        const ProbeResults probes = runProbes(checks);
        const obs::SelfProfileResult &sp = prof.profile;
        const double callback_s = sp.wall_seconds;
        const auto cat = [&](EventCat c) -> const obs::SelfProfileCat & {
            return sp.by_cat[std::size_t(c)];
        };
        const auto ns_per_event = [&](EventCat c) {
            return checks.ratio(cat(c).wall_seconds * 1e9,
                                double(cat(c).events),
                                std::string(eventCatName(c)) +
                                    " host ns over its events");
        };
        const auto callback_share = [&](EventCat c) {
            return checks.ratio(cat(c).wall_seconds, callback_s,
                                std::string(eventCatName(c)) +
                                    " host s over callback host s");
        };
        const ModelLayers &ml = timed.model;
        const auto share = [&](obs::SpanKind k) {
            return latency.share[std::size_t(k)];
        };
        metrics = {
            {"sim.events", double(ml.events), "count"},
            {"sim.events_per_s",
             checks.ratio(double(ml.events), wall_s,
                          "events over untraced wall_s"),
             "1/s"},
            {"sim.wall_s", wall_s, "s"},
            {"sim.engine_s", prof.wall - callback_s, "s"},
            {"sim.instructions_per_event",
             checks.ratio(median(timed.instructions),
                          double(ml.events),
                          "instructions over events"),
             "instr/event"},
            {"sim.probe_ns_per_event", probes.ns_per_event, "ns"},
            {"dram.host_s", cat(EventCat::Dram).wall_seconds, "s"},
            {"dram.ns_per_event", ns_per_event(EventCat::Dram), "ns"},
            {"dram.callback_share", callback_share(EventCat::Dram),
             "ratio"},
            {"dram.probe_ns_per_req_shallow",
             probes.dram_ns_per_req_shallow, "ns"},
            {"dram.probe_ns_per_req_deep", probes.dram_ns_per_req_deep,
             "ns"},
            {"dram.reads", ml.dram_reads, "count"},
            {"dram.writes", ml.dram_writes, "count"},
            {"dram.row_hit_ratio", ml.row_hit_ratio, "ratio"},
            {"dram.mean_latency_ns", ml.mean_latency_ns, "ns"},
            {"dram.lat_share", share(obs::SpanKind::Dram), "ratio"},
            {"cxl.host_s", cat(EventCat::Cxl).wall_seconds, "s"},
            {"cxl.ns_per_event", ns_per_event(EventCat::Cxl), "ns"},
            {"cxl.callback_share", callback_share(EventCat::Cxl),
             "ratio"},
            {"cxl.probe_ns_per_msg", probes.cxl_ns_per_msg, "ns"},
            {"cxl.messages", ml.cxl_messages, "count"},
            {"cxl.wire_bytes", ml.wire_bytes, "bytes"},
            {"cxl.useful_per_wire", ml.useful_per_wire, "ratio"},
            {"cxl.host_round_trips", ml.host_round_trips, "count"},
            {"cxl.link_share", share(obs::SpanKind::Link), "ratio"},
            {"cxl.switch_share", share(obs::SpanKind::Switch), "ratio"},
            {"ndp.host_s", cat(EventCat::Ndp).wall_seconds, "s"},
            {"ndp.tasks", ml.ndp_tasks, "count"},
            {"ndp.pe_utilization", ml.pe_utilization, "ratio"},
            {"ndp.pe_share", share(obs::SpanKind::Pe), "ratio"},
            {"genomics.build_s", median(timed.genomics), "s"},
            {"genomics.task_gen_s", prof.task_gen, "s"},
            {"accel.build_s",
             median(timed.machine) + median(timed.rack), "s"},
            {"service.queue_share", share(obs::SpanKind::Queue),
             "ratio"},
            {"service.jobs_rejected", ml.jobs_rejected, "count"},
            {"service.job_samples", double(latency.latencies_us.size()),
             "count"},
            {"rack.bi_flits", ml.bi_flits, "count"},
            {"rack.invalidations", ml.invalidations, "count"},
            {"rack.pool_utilization", ml.pool_utilization, "ratio"},
            {"obs.trace_overhead",
             checks.ratio(prof.wall, wall_s,
                          "self-profiled wall over untraced wall_s"),
             "ratio"},
        };
        printMetrics("per layer:", metrics);

        // Only where the layer runs; not in the JSON, which carries a
        // metric only when every workload measures it.
        std::printf("per layer, this workload only:\n");
        if (median(timed.rack) > 0)
            std::printf("  %-32s %14.6g s\n", "rack.build_s",
                        median(timed.rack));
        if (median(timed.admit) > 0)
            std::printf("  %-32s %14.6g s\n", "service.admit_s",
                        median(timed.admit));
        if (latency.ran)
            std::printf("  %-32s %14.6g us\n", "service.mean_queue_us",
                        latency.mean_queue_us);

        std::printf("self-profile (traced wall %.4f s, callbacks %.4f s, "
                    "engine %.4f s):\n",
                    prof.wall, callback_s, prof.wall - callback_s);
        std::printf("  %-10s %12s %12s %10s %10s\n", "category",
                    "events", "host_s", "share", "ns/event");
        for (std::size_t c = 0; c < num_event_cats; ++c) {
            const obs::SelfProfileCat &pc = sp.by_cat[c];
            if (pc.events == 0)
                continue;
            std::printf("  %-10s %12llu %12.4f %9.1f%% %10.1f\n",
                        eventCatName(EventCat(c)),
                        static_cast<unsigned long long>(pc.events),
                        pc.wall_seconds,
                        callback_s > 0 ? 100 * pc.wall_seconds / callback_s
                                       : 0.0,
                        1e9 * pc.wall_seconds / double(pc.events));
        }
        if (std::string(args.workload->name) == "fm-vanilla")
            std::printf("fig12 anchor: fm-vanilla at 1024 reads and the "
                        "preset's seeds = %llu ticks (compare "
                        "fig12_fm_seeding --json, Pt/CXL-vanilla on the "
                        "BEACON-D ladder)\n",
                        static_cast<unsigned long long>(fig12Anchor()));
    }

    for (Metric &metric : metrics) {
        if (!std::isfinite(metric.value)) {
            checks.expect(false, metric.name + " is not finite");
            metric.value = 0;
        }
    }
    for (const std::string &failure : checks.failures())
        std::printf("FAILED: %s\n", failure.c_str());
    // Every check counts as attempted, so the base is never zero.
    std::printf("fail_ratio %.6g (%llu of %llu failed)\n",
                double(checks.failed()) / double(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()),
                static_cast<unsigned long long>(checks.attempted()));
    std::fflush(stdout);
    printJson(checks, metrics);
    return checks.failed() == 0 ? 0 : 1;
}
