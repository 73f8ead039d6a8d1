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
 * hardware threads the speedup gate is reported as not applicable (the
 * barriers and routing are pure overhead without parallel cells) while
 * the throughput numbers are still emitted. `--smoke` runs the 10k
 * points only, shortened for CI.
 *
 * The second scenario is *skewed*: hotspot functions pinned to cell 0
 * (affinity traffic the router cannot steer) on top of routed
 * background load. The same traces run through a static partition
 * (rebalancing as a pure observer, byte-identical to off — it only
 * records the straggler's imbalance factor) and through a rebalancing
 * partition that migrates spare servers into the straggler at window
 * barriers. The gate: at 100k servers with >= 8 hardware threads the
 * rebalanced run must sustain >= 1.5x the static events/sec. Both
 * points emit the per-barrier imbalance-factor and migration-count
 * series. With --trace the rebalanced run writes the straggler cell's
 * Perfetto trace (cell_migration instants); with INFLESS_TELEMETRY=1
 * it exports per-cell load shares and the migration counter to
 * scale_skew_telemetry.json / scale_skew_metrics.prom.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hh"
#include "core/sharded_platform.hh"
#include "metrics/report.hh"
#include "models/model_zoo.hh"
#include "obs/telemetry.hh"
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

struct PointResult
{
    std::size_t servers = 0;
    std::size_t cells = 0;
    std::size_t threads = 0;
    std::size_t functions = 0;
    double durationSec = 0.0;
    double constructSec = 0.0;
    double wallSec = 0.0;
    std::uint64_t events = 0;
    std::uint64_t decisions = 0;
    std::int64_t arrivals = 0;
    std::int64_t completions = 0;
    std::int64_t drops = 0;
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
};

/** The fixed workload of one scale point, shared by both cell configs. */
struct ScaleWorkload
{
    std::vector<std::string> models;
    std::vector<workload::ArrivalTrace> traces;
    sim::Tick horizon = 0;
    /** The first `hotspots` functions are pinned to cell 0. */
    std::size_t hotspots = 0;
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

    auto construct_start = Clock::now();
    core::ShardedPlatform platform(servers, opts, cell_opts);
    for (std::size_t f = 0; f < w.models.size(); ++f) {
        core::FunctionSpec spec;
        spec.name = w.models[f] + "-" + std::to_string(f);
        spec.model = w.models[f];
        auto fn = platform.deploy(spec);
        platform.injectTrace(fn, w.traces[f]);
    }
    r.constructSec = secondsSince(construct_start);

    r.threads = cells == 1
                    ? 1
                    : std::min(sim::WorkerPool::defaultThreads(), cells);

    auto run_start = Clock::now();
    platform.run(w.horizon);
    r.wallSec = secondsSince(run_start);

    r.events = platform.eventsExecuted();
    r.decisions = platform.schedulerDecisions();
    const auto &m = platform.totalMetrics();
    r.arrivals = m.arrivals();
    r.completions = m.completions();
    r.drops = m.drops();
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
              << " completed, " << r.drops << " dropped)\n";
}

/**
 * Like buildWorkload, but the first @p hotspots functions arrive at
 * @p rps_hot and will be pinned to cell 0 — a straggler the router
 * cannot steer around.
 */
ScaleWorkload
buildSkewWorkload(std::size_t functions, std::size_t hotspots,
                  double rps_bg, double rps_hot, sim::Tick duration,
                  std::uint64_t seed)
{
    const auto &zoo = models::ModelZoo::shared();
    ScaleWorkload w;
    w.horizon = duration + 5 * sim::kTicksPerSec;
    w.hotspots = hotspots;
    workload::RateSeries bg =
        workload::constantRate(rps_bg, duration, sim::kTicksPerSec);
    workload::RateSeries hot =
        workload::constantRate(rps_hot, duration, sim::kTicksPerSec);
    for (std::size_t f = 0; f < functions; ++f) {
        w.models.push_back(zoo.all()[f % zoo.all().size()].name);
        sim::Rng rng(sim::hashCombine(seed, f));
        w.traces.push_back(workload::ArrivalTrace::fromRateSeries(
            f < hotspots ? hot : bg, rng));
    }
    return w;
}

/** One skew point: the PointResult axes plus straggler accounting. */
struct SkewResult
{
    PointResult base;
    bool rebalanced = false;
    std::int64_t migrations = 0;
    double imbalancePeak = 1.0;
    double imbalanceFinal = 1.0;
    std::size_t stragglerServers = 0;
    std::vector<double> imbalanceSeries;
    std::vector<std::int64_t> migrationSeries;
};

SkewResult
runSkewPoint(std::size_t servers, std::size_t cells,
             const ScaleWorkload &w, bool rebalanced, bool with_trace)
{
    SkewResult r;
    r.rebalanced = rebalanced;
    r.base.servers = servers;
    r.base.cells = cells;
    r.base.functions = w.models.size();
    r.base.durationSec = sim::ticksToSec(w.horizon);
    r.base.threads = std::min(sim::WorkerPool::defaultThreads(), cells);

    core::PlatformOptions opts;
    opts.seed = 43;
    if (rebalanced && with_trace) {
        // Sample few request spans; cluster instants (cell_migration)
        // are recorded whenever tracing is on at all.
        opts.obs.trace.sampleRate = 0.0005;
    }
    core::CellOptions cell_opts;
    cell_opts.cells = cells;
    cell_opts.rebalance.enabled = true;
    if (rebalanced) {
        // Budget k scales with cell size: up to 1/8 of a cell per window
        // keeps barrier work bounded without starving a large straggler.
        cell_opts.rebalance.maxMigrationsPerWindow =
            std::max<std::size_t>(4, servers / cells / 8);
    } else {
        // Static partition, straggler accounting only: unreachable
        // thresholds make the rebalancer a pure observer (byte-identical
        // to disabled — pinned by ShardedRebalance tests) that still
        // records the per-barrier imbalance factor.
        cell_opts.rebalance.imbalanceHigh = 1e18;
        cell_opts.rebalance.imbalanceLow = 1e17;
    }

    auto construct_start = Clock::now();
    core::ShardedPlatform platform(servers, opts, cell_opts);
    for (std::size_t f = 0; f < w.models.size(); ++f) {
        core::FunctionSpec spec;
        spec.name = w.models[f] + "-" + std::to_string(f);
        spec.model = w.models[f];
        auto fn = platform.deploy(spec);
        if (f < w.hotspots)
            platform.pinFunction(fn, 0);
        platform.injectTrace(fn, w.traces[f]);
    }
    r.base.constructSec = secondsSince(construct_start);

    auto run_start = Clock::now();
    platform.run(w.horizon);
    r.base.wallSec = secondsSince(run_start);

    r.base.events = platform.eventsExecuted();
    r.base.decisions = platform.schedulerDecisions();
    const auto &m = platform.totalMetrics();
    r.base.arrivals = m.arrivals();
    r.base.completions = m.completions();
    r.base.drops = m.drops();
    r.base.liveInstances = platform.liveInstanceCount();

    r.migrations = platform.cellMigrations();
    r.imbalanceSeries = platform.imbalanceHistory();
    r.migrationSeries = platform.migrationHistory();
    for (double i : r.imbalanceSeries)
        r.imbalancePeak = std::max(r.imbalancePeak, i);
    if (!r.imbalanceSeries.empty())
        r.imbalanceFinal = r.imbalanceSeries.back();
    r.stragglerServers = platform.cellServers(0);

    if (rebalanced && with_trace) {
        // The straggler is the receiver, so its tracer holds the
        // cell_migration instants.
        std::ofstream ofs("scale_skew_trace.json");
        platform.cell(0).tracer().writeChromeTrace(ofs);
    }
    if (rebalanced && bench::telemetryEnabled()) {
        obs::TelemetryRegistry telemetry;
        telemetry.setRun("scale_cells_skew", opts.seed,
                         sim::ticksToSec(w.horizon));
        telemetry.addRunMetrics(m); // includes cell_migrations_total
        double total_events =
            std::max<double>(1.0, static_cast<double>(r.base.events));
        for (std::size_t c = 0; c < platform.cellCount(); ++c) {
            std::string id = "cell_" + std::to_string(c);
            telemetry.gauge(
                id + "_events_share",
                static_cast<double>(platform.cell(c)
                                        .simulation()
                                        .events()
                                        .executed()) /
                    total_events,
                "Fraction of run events executed by this cell");
            telemetry.gauge(
                id + "_queue_depth",
                static_cast<double>(platform.cell(c).queuedRequests()),
                "Requests waiting in this cell's batch queues at run "
                "end");
            telemetry.gauge(
                id + "_servers",
                static_cast<double>(platform.cellServers(c)),
                "Servers this cell owns after rebalancing");
        }
        telemetry.gauge("cell_imbalance_factor", r.imbalanceFinal,
                        "Straggler load-per-server over fleet mean at "
                        "the final barrier");
        bench::writeTelemetryFiles(telemetry, "scale_skew_telemetry.json",
                                   "scale_skew_metrics.prom");
    }
    return r;
}

void
printSkewPoint(const SkewResult &r)
{
    std::cout << "  " << r.base.servers << " servers, " << r.base.cells
              << " cells, " << (r.rebalanced ? "rebalanced:" : "static:    ")
              << " " << fmt(r.base.eventsPerSec() / 1e3, 1)
              << " k events/s, imbalance peak " << fmt(r.imbalancePeak, 2)
              << ", " << r.migrations << " migrations, straggler owns "
              << r.stragglerServers << " servers  ("
              << r.base.completions << "/" << r.base.arrivals
              << " completed, " << r.base.drops << " dropped)\n";
}

void
emitSkewPoint(std::ostream &out, const SkewResult &r, bool last)
{
    out << "    {\n"
        << "      \"servers\": " << r.base.servers << ",\n"
        << "      \"cells\": " << r.base.cells << ",\n"
        << "      \"threads\": " << r.base.threads << ",\n"
        << "      \"functions\": " << r.base.functions << ",\n"
        << "      \"hotspots_pinned\": true,\n"
        << "      \"rebalanced\": " << (r.rebalanced ? "true" : "false")
        << ",\n"
        << "      \"wall_sec\": " << r.base.wallSec << ",\n"
        << "      \"events\": " << r.base.events << ",\n"
        << "      \"events_per_sec\": " << r.base.eventsPerSec() << ",\n"
        << "      \"arrivals\": " << r.base.arrivals << ",\n"
        << "      \"completions\": " << r.base.completions << ",\n"
        << "      \"drops\": " << r.base.drops << ",\n"
        << "      \"migrations\": " << r.migrations << ",\n"
        << "      \"imbalance_factor\": " << r.imbalancePeak << ",\n"
        << "      \"imbalance_final\": " << r.imbalanceFinal << ",\n"
        << "      \"straggler_servers\": " << r.stragglerServers << ",\n";
    out << "      \"imbalance_series\": [";
    for (std::size_t i = 0; i < r.imbalanceSeries.size(); ++i)
        out << (i ? ", " : "") << r.imbalanceSeries[i];
    out << "],\n";
    out << "      \"migration_series\": [";
    for (std::size_t i = 0; i < r.migrationSeries.size(); ++i)
        out << (i ? ", " : "") << r.migrationSeries[i];
    out << "]\n";
    out << "    }" << (last ? "\n" : ",\n");
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
        << "      \"wall_sec\": " << r.wallSec << ",\n"
        << "      \"events\": " << r.events << ",\n"
        << "      \"events_per_sec\": " << r.eventsPerSec() << ",\n"
        << "      \"decisions\": " << r.decisions << ",\n"
        << "      \"decisions_per_sec\": " << r.decisionsPerSec() << ",\n"
        << "      \"arrivals\": " << r.arrivals << ",\n"
        << "      \"completions\": " << r.completions << ",\n"
        << "      \"drops\": " << r.drops << ",\n"
        << "      \"live_instances\": " << r.liveInstances << "\n"
        << "    }" << (last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool with_trace = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--trace") == 0)
            with_trace = true;
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

    std::vector<PointResult> points;
    bool arrivals_match = true;
    double speedup_10k = 0.0;
    double speedup_100k = 0.0;
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
    }

    // The >= 3x bar only binds where the cells can actually run in
    // parallel; a 1-2 core box measures barrier overhead, not scaling.
    bool gate_pass =
        !gate_applicable || smoke || speedup_100k >= 3.0;

    // Skewed scenario: hotspot functions pinned to cell 0, static
    // partition vs rebalancing, same traces.
    printHeading(std::cout,
                 "Sharded control plane: skewed arrivals "
                 "(static vs rebalanced)");
    std::vector<SkewResult> skew_points;
    bool skew_arrivals_match = true;
    double skew_speedup_10k = 0.0;
    double skew_speedup_100k = 0.0;
    for (const Scale &s : scales) {
        std::size_t hotspots = std::max<std::size_t>(1, s.functions / 8);
        ScaleWorkload w =
            buildSkewWorkload(s.functions, hotspots, s.rpsPerFn,
                              8.0 * s.rpsPerFn, s.duration, s.servers + 1);
        SkewResult st = runSkewPoint(s.servers, s.cells, w, false,
                                     with_trace);
        printSkewPoint(st);
        SkewResult rb = runSkewPoint(s.servers, s.cells, w, true,
                                     with_trace);
        printSkewPoint(rb);
        if (st.base.arrivals != rb.base.arrivals)
            skew_arrivals_match = false;
        double speedup =
            st.base.eventsPerSec() > 0.0
                ? rb.base.eventsPerSec() / st.base.eventsPerSec()
                : 0.0;
        std::cout << "    skew speedup: " << fmt(speedup, 2) << "x\n";
        if (s.servers == 10'000)
            skew_speedup_10k = speedup;
        else if (s.servers == 100'000)
            skew_speedup_100k = speedup;
        skew_points.push_back(std::move(st));
        skew_points.push_back(std::move(rb));
    }
    // Same applicability rule as the flat-vs-sharded gate: the 1.5x bar
    // binds at 100k servers with real parallelism only.
    bool skew_gate_pass =
        !gate_applicable || smoke || skew_speedup_100k >= 1.5;

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
        << "  \"skew_arrivals_match\": "
        << (skew_arrivals_match ? "true" : "false") << ",\n"
        << "  \"skew_speedup_10k\": " << skew_speedup_10k << ",\n"
        << "  \"skew_speedup_100k\": " << skew_speedup_100k << ",\n"
        << "  \"skew_gate_applicable\": "
        << (gate_applicable ? "true" : "false") << ",\n"
        << "  \"skew_speedup_gate\": "
        << (skew_gate_pass ? "true" : "false") << ",\n"
        << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i)
        emitPoint(out, points[i], i + 1 == points.size());
    out << "  ],\n"
        << "  \"skew_points\": [\n";
    for (std::size_t i = 0; i < skew_points.size(); ++i)
        emitSkewPoint(out, skew_points[i], i + 1 == skew_points.size());
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
    if (!skew_arrivals_match) {
        std::cerr << "ERROR: rebalanced skew run ingested a different "
                     "arrival count than the static run\n";
        return 1;
    }
    if (!skew_gate_pass) {
        std::cerr << "ERROR: rebalanced skew throughput at 100k servers "
                     "below the 1.5x bar on >= 8 hardware threads\n";
        return 1;
    }
    return 0;
}
