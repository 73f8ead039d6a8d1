/**
 * @file
 * Sharded-control-plane scale benchmark (BENCH_scale.json).
 *
 * Not a paper figure. The cell partition's acceptance bar is
 * quantitative: at 100k servers the multi-cell engine must sustain
 * >= 3x the single-cell event throughput when >= 8 hardware threads are
 * available. This binary drives the same pre-materialized traces through
 * a flat (cells=1) and a sharded platform at 10k and 100k servers,
 * measures events/sec and scheduler decisions/sec over the run() wall
 * time, cross-checks that both ingest the identical arrival count, and
 * writes the series to BENCH_scale.json. On boxes with fewer than 8
 * hardware threads the speedup gate is reported as not applicable (too
 * few cells run at once to show the scaling) while the throughput
 * numbers are still emitted.
 *
 * Each point also reports its SLO-goodput (completions minus SLO
 * violations per simulated second). The cells gate compares the sharded
 * run against the flat one at the largest point: live instances within
 * 1.5x of flat, SLO-goodput no lower than flat, and wall time no longer
 * than flat. `--smoke` runs the 10k point only, shortened for CI, so
 * there the gate is evaluated at 10k; `gate_servers` names the point.
 *
 * Each point also reports the heap the platform holds: `fleet_heap_bytes`
 * right after the ShardedPlatform is constructed (servers, cells and
 * controllers, no functions) and `heap_bytes` once every function is
 * deployed and its trace injected. Both are mallinfo2() in-use bytes,
 * after minus before. A server gets its record on first touch, so
 * fleet_heap_bytes is per-platform state that does not grow with the
 * fleet; dividing it by servers gives no per-server cost. The
 * sharded/flat heap_bytes ratio tracks the cells memory gate.
 *
 * A flat-only many-tenant series follows: 100k servers under a fixed
 * 6,400 rps in total, split evenly over 64, 1,000 and 10,000 functions
 * (20 s of load, 5 s drain). Load and fleet stay put while the number
 * of tenants, and with it the variety of placed configs, grows, so the
 * series shows whether the cost of a placement decision depends on the
 * tenant count. `--smoke` shrinks it to 10k servers, 400 rps and 8 and
 * 64 functions over 5 s.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_platform.hh"
#include "metrics/report.hh"
#include "models/model_zoo.hh"
#include "sim/parallel_for.hh"
#include "workload/generators.hh"

namespace {

using namespace infless;
using metrics::fmt;
using metrics::printHeading;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Heap bytes in use: small chunks plus mmapped blocks. */
std::size_t
heapInUse()
{
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

struct PointResult
{
    std::size_t servers = 0;
    std::size_t cells = 0;
    std::size_t threads = 0;
    std::size_t functions = 0;
    double durationSec = 0.0;
    double constructSec = 0.0;
    double wallSec = 0.0;
    std::size_t fleetHeapBytes = 0;
    std::size_t heapBytes = 0;
    std::uint64_t events = 0;
    std::uint64_t decisions = 0;
    std::int64_t arrivals = 0;
    std::int64_t completions = 0;
    std::int64_t drops = 0;
    std::int64_t sloViolations = 0;
    int liveInstances = 0;

    double eventsPerSec() const
    {
        return wallSec > 0.0 ? static_cast<double>(events) / wallSec : 0.0;
    }
    double decisionsPerSec() const
    {
        return wallSec > 0.0 ? static_cast<double>(decisions) / wallSec
                             : 0.0;
    }
    double sloGoodput() const
    {
        return static_cast<double>(completions - sloViolations) /
               durationSec;
    }
};

/** The fixed workload of one scale point, shared by both cell configs. */
struct ScaleWorkload
{
    std::vector<std::string> models;
    std::vector<workload::ArrivalTrace> traces;
    sim::Tick horizon = 0;
};

ScaleWorkload
buildWorkload(std::size_t functions, double rps_per_fn, sim::Tick duration,
              std::uint64_t seed)
{
    const auto &zoo = models::ModelZoo::shared();
    ScaleWorkload w;
    w.horizon = duration + 5 * sim::kTicksPerSec;
    // 1-second bins: the default 1-minute bin would stretch a 20-30 s
    // series to 60 s and run past the 5 s drain.
    workload::RateSeries series =
        workload::constantRate(rps_per_fn, duration, sim::kTicksPerSec);
    for (std::size_t f = 0; f < functions; ++f) {
        w.models.push_back(zoo.all()[f % zoo.all().size()].name);
        // Traces are materialized ONCE per point and injected into every
        // cell config, so flat and sharded runs see identical arrivals.
        sim::Rng rng(sim::hashCombine(seed, f));
        w.traces.push_back(
            workload::ArrivalTrace::fromRateSeries(series, rng));
    }
    return w;
}

PointResult
runPoint(std::size_t servers, std::size_t cells, const ScaleWorkload &w)
{
    PointResult r;
    r.servers = servers;
    r.cells = cells;
    r.functions = w.models.size();
    r.durationSec = sim::ticksToSec(w.horizon);

    core::PlatformOptions opts;
    opts.seed = 42;
    core::CellOptions cell_opts;
    cell_opts.cells = cells;

    const std::size_t heap_before = heapInUse();
    auto construct_start = Clock::now();
    core::ShardedPlatform platform(servers, opts, cell_opts);
    r.fleetHeapBytes = heapInUse() - heap_before;
    for (std::size_t f = 0; f < w.models.size(); ++f) {
        core::FunctionSpec spec;
        spec.name = w.models[f] + "-" + std::to_string(f);
        spec.model = w.models[f];
        auto fn = platform.deploy(spec);
        platform.injectTrace(fn, w.traces[f]);
    }
    r.constructSec = secondsSince(construct_start);
    r.heapBytes = heapInUse() - heap_before;

    r.threads = std::min(sim::defaultThreads(), cells);

    auto run_start = Clock::now();
    platform.run(w.horizon);
    r.wallSec = secondsSince(run_start);

    r.events = platform.eventsExecuted();
    r.decisions = platform.schedulerDecisions();
    const auto &m = platform.totalMetrics();
    r.arrivals = m.arrivals();
    r.completions = m.completions();
    r.drops = m.drops();
    r.sloViolations = m.sloViolations();
    r.liveInstances = platform.liveInstanceCount();
    return r;
}

void
printPoint(const PointResult &r)
{
    std::cout << "  " << r.servers << " servers, " << r.cells
              << (r.cells == 1 ? " cell:  " : " cells: ")
              << fmt(r.eventsPerSec() / 1e3, 1) << " k events/s, "
              << fmt(r.decisionsPerSec(), 1) << " decisions/s  ("
              << r.events << " events in " << fmt(r.wallSec, 2)
              << " s wall, " << r.completions << "/" << r.arrivals
              << " completed, " << r.drops << " dropped, "
              << r.liveInstances << " live, " << fmt(r.sloGoodput(), 1)
              << " SLO-goodput rps)\n"
              << "    heap: " << fmt(r.heapBytes / 1048576.0, 1)
              << " MiB after deploy, fleet "
              << fmt(r.fleetHeapBytes / 1048576.0, 1) << " MiB ("
              << fmt(static_cast<double>(r.fleetHeapBytes) /
                         static_cast<double>(r.servers),
                     1)
              << " B/server)\n";
}

void
emitPoint(std::ostream &out, const PointResult &r, bool last)
{
    out << "    {\n"
        << "      \"servers\": " << r.servers << ",\n"
        << "      \"cells\": " << r.cells << ",\n"
        << "      \"threads\": " << r.threads << ",\n"
        << "      \"functions\": " << r.functions << ",\n"
        << "      \"duration_sec\": " << r.durationSec << ",\n"
        << "      \"construct_sec\": " << r.constructSec << ",\n"
        << "      \"fleet_heap_bytes\": " << r.fleetHeapBytes << ",\n"
        << "      \"heap_bytes\": " << r.heapBytes << ",\n"
        << "      \"wall_sec\": " << r.wallSec << ",\n"
        << "      \"events\": " << r.events << ",\n"
        << "      \"events_per_sec\": " << r.eventsPerSec() << ",\n"
        << "      \"decisions\": " << r.decisions << ",\n"
        << "      \"decisions_per_sec\": " << r.decisionsPerSec() << ",\n"
        << "      \"arrivals\": " << r.arrivals << ",\n"
        << "      \"completions\": " << r.completions << ",\n"
        << "      \"drops\": " << r.drops << ",\n"
        << "      \"slo_violations\": " << r.sloViolations << ",\n"
        << "      \"slo_goodput\": " << r.sloGoodput() << ",\n"
        << "      \"live_instances\": " << r.liveInstances << "\n"
        << "    }" << (last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    unsigned hw = std::thread::hardware_concurrency();
    bool gate_applicable = hw >= 8;

    printHeading(std::cout,
                 std::string("Sharded control plane: scale (") +
                     (smoke ? "smoke" : "full") + " workload, " +
                     std::to_string(hw) + " hardware threads)");

    struct Scale
    {
        std::size_t servers;
        std::size_t cells;
        std::size_t functions;
        double rpsPerFn;
        sim::Tick duration;
    };
    std::vector<Scale> scales;
    if (smoke) {
        scales.push_back({10'000, 8, 8, 50.0, 5 * sim::kTicksPerSec});
    } else {
        scales.push_back({10'000, 8, 32, 100.0, 30 * sim::kTicksPerSec});
        scales.push_back({100'000, 16, 64, 100.0, 20 * sim::kTicksPerSec});
    }

    struct TenantSeries
    {
        std::size_t servers;
        double totalRps;
        std::vector<std::size_t> functions;
        sim::Tick duration;
    };
    TenantSeries tenants =
        smoke ? TenantSeries{10'000, 400.0, {8, 64}, 5 * sim::kTicksPerSec}
              : TenantSeries{100'000, 6'400.0, {64, 1'000, 10'000},
                             20 * sim::kTicksPerSec};

    std::vector<PointResult> points;
    bool arrivals_match = true;
    double speedup_10k = 0.0;
    double speedup_100k = 0.0;
    // The cells gate, at the last (largest) point.
    std::size_t gate_servers = 0;
    bool gate_live = false;
    bool gate_goodput = false;
    bool gate_wall = false;
    for (const Scale &s : scales) {
        ScaleWorkload w =
            buildWorkload(s.functions, s.rpsPerFn, s.duration, s.servers);
        PointResult flat = runPoint(s.servers, 1, w);
        printPoint(flat);
        PointResult sharded = runPoint(s.servers, s.cells, w);
        printPoint(sharded);
        if (flat.arrivals != sharded.arrivals)
            arrivals_match = false;
        double speedup = flat.eventsPerSec() > 0.0
                             ? sharded.eventsPerSec() / flat.eventsPerSec()
                             : 0.0;
        std::cout << "    speedup: " << fmt(speedup, 2) << "x\n";
        if (s.servers == 10'000)
            speedup_10k = speedup;
        else if (s.servers == 100'000)
            speedup_100k = speedup;
        points.push_back(flat);
        points.push_back(sharded);
        gate_servers = s.servers;
        gate_live = sharded.liveInstances <= 1.5 * flat.liveInstances;
        gate_goodput = sharded.sloGoodput() >= flat.sloGoodput();
        gate_wall = sharded.wallSec <= flat.wallSec;
        std::cout << "    cells gate: live instances "
                  << (gate_live ? "pass" : "FAIL") << ", SLO-goodput "
                  << (gate_goodput ? "pass" : "FAIL") << ", wall "
                  << (gate_wall ? "pass" : "FAIL") << "\n";
    }
    auto boolean = [](bool b) { return b ? "true" : "false"; };

    std::cout << "  many tenants, flat, " << fmt(tenants.totalRps, 0)
              << " rps in total:\n";
    std::vector<PointResult> tenant_points;
    for (std::size_t functions : tenants.functions) {
        ScaleWorkload w = buildWorkload(
            functions, tenants.totalRps / static_cast<double>(functions),
            tenants.duration, tenants.servers);
        tenant_points.push_back(runPoint(tenants.servers, 1, w));
        std::cout << "  " << functions << " functions:";
        printPoint(tenant_points.back());
    }

    // The >= 3x bar only binds where the cells can actually run in
    // parallel; a 1-2 core box runs them mostly one after another.
    bool gate_pass =
        !gate_applicable || smoke || speedup_100k >= 3.0;

    std::ofstream out("BENCH_scale.json");
    out << "{\n"
        << "  \"benchmark\": \"scale_cells\",\n"
        << "  \"schema_version\": 1,\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"arrivals_match\": " << (arrivals_match ? "true" : "false")
        << ",\n"
        << "  \"speedup_10k\": " << speedup_10k << ",\n"
        << "  \"speedup_100k\": " << speedup_100k << ",\n"
        << "  \"speedup_gate_applicable\": "
        << (gate_applicable ? "true" : "false") << ",\n"
        << "  \"speedup_gate_pass\": " << (gate_pass ? "true" : "false")
        << ",\n"
        << "  \"gate_servers\": " << gate_servers << ",\n"
        << "  \"gate_live_instances_within_1_5x_flat\": "
        << boolean(gate_live) << ",\n"
        << "  \"gate_slo_goodput_not_below_flat\": "
        << boolean(gate_goodput) << ",\n"
        << "  \"gate_wall_not_above_flat\": " << boolean(gate_wall)
        << ",\n"
        << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i)
        emitPoint(out, points[i], i + 1 == points.size());
    out << "  ],\n"
        << "  \"many_tenant_total_rps\": " << tenants.totalRps << ",\n"
        << "  \"many_tenant\": [\n";
    for (std::size_t i = 0; i < tenant_points.size(); ++i)
        emitPoint(out, tenant_points[i], i + 1 == tenant_points.size());
    out << "  ]\n}\n";
    std::cout << "  (results written to BENCH_scale.json)\n";

    if (!arrivals_match) {
        std::cerr << "ERROR: sharded run ingested a different arrival "
                     "count than the flat run\n";
        return 1;
    }
    if (!gate_pass) {
        std::cerr << "ERROR: multi-cell speedup at 100k servers below the "
                     "3x bar on >= 8 hardware threads\n";
        return 1;
    }
    return 0;
}
