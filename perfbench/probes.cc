// beacon-lint: allow-file(determinism-wallclock)
#include "probes.hh"

#include <vector>

#include "common/rng.hh"
#include "cxl/pool.hh"
#include "dram/controller.hh"
#include "sim/event_queue.hh"

namespace perfbench
{

using namespace beacon;

namespace
{

constexpr int repetitions = 5;

/** Median over repetitions of @p f's host seconds per unit of work;
 *  @p f returns the units it completed. */
template <class F>
double
nsPerUnit(F &&f)
{
    std::vector<double> samples;
    for (int i = 0; i < repetitions; ++i) {
        const auto t0 = Clock::now();
        const double units = double(f());
        const double seconds = secondsSince(t0);
        samples.push_back(units > 0 ? seconds * 1e9 / units : 0);
    }
    return median(samples);
}

/** Re-arms itself until @p left runs out: one of many event chains
 *  keeping the queue about as deep as a machine's. */
void
arm(EventQueue &eq, std::uint64_t &left, Tick period)
{
    eq.scheduleIn(period, [&eq, &left, period] {
        if (left > 0) {
            --left;
            arm(eq, left, period);
        }
    });
}

std::uint64_t
eventProbe()
{
    EventQueue eq;
    std::uint64_t left = 1u << 19;
    for (Tick chain = 0; chain < 256; ++chain)
        arm(eq, left, 1000 + 17 * chain);
    eq.run();
    return eq.eventsExecuted();
}

/** A fixed set of random single-burst reads across every bank. */
std::vector<DramCoord>
dramRequests()
{
    Rng rng(1);
    std::vector<DramCoord> coords(1024);
    for (DramCoord &c : coords) {
        c.rank = unsigned(rng.next(4));
        c.bank_group = unsigned(rng.next(4));
        c.bank = unsigned(rng.next(4));
        c.row = RowId{unsigned(rng.next(1u << 17))};
        c.chip_count = 16;
    }
    return coords;
}

/** Feed @p coords to a fresh controller, @p deep = all at once, else
 *  one at a time (each drained before the next). */
std::uint64_t
dramProbe(const std::vector<DramCoord> &coords, bool deep, Checks &checks)
{
    EventQueue eq;
    StatRegistry stats;
    DramControllerParams params;
    params.enable_refresh = false;
    DramController ctrl("probe", eq, stats, DimmGeometry{},
                        DramTimingParams::ddr4_1600_22(), params);
    std::uint64_t done = 0;
    for (const DramCoord &coord : coords) {
        MemRequest req;
        req.coord = coord;
        req.bursts = 1;
        req.on_complete = [&done](Tick) { ++done; };
        ctrl.enqueue(std::move(req));
        if (!deep)
            eq.run();
    }
    eq.run();
    checks.expect(done == coords.size(), "DRAM probe lost a request");
    return done;
}

std::uint64_t
cxlProbe(Checks &checks)
{
    EventQueue eq;
    StatRegistry stats;
    PoolFabric fabric("probe", eq, stats, PoolParams{});
    constexpr unsigned messages = 4096;
    std::uint64_t delivered = 0;
    for (unsigned i = 0; i < messages; ++i)
        fabric.send(NodeId::dimmNode(0, i % 4),
                    NodeId::dimmNode(1, (i + 1) % 4), Bytes{32}, true,
                    [&delivered](Tick) { ++delivered; });
    eq.run();
    checks.expect(delivered == messages, "CXL probe lost a message");
    return delivered;
}

} // namespace

ProbeResults
runProbes(Checks &checks)
{
    ProbeResults r;
    r.ns_per_event = nsPerUnit(eventProbe);
    const std::vector<DramCoord> coords = dramRequests();
    r.dram_ns_per_req_shallow =
        nsPerUnit([&] { return dramProbe(coords, false, checks); });
    r.dram_ns_per_req_deep =
        nsPerUnit([&] { return dramProbe(coords, true, checks); });
    r.cxl_ns_per_msg = nsPerUnit([&] { return cxlProbe(checks); });
    return r;
}

} // namespace perfbench
