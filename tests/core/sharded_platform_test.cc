/**
 * @file
 * Tests for the cell-partitioned control plane.
 *
 * The two determinism anchors from DESIGN.md 11: cells=1 is bit-identical
 * to a flat Platform, and a multi-cell run is byte-identical for every
 * worker-thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/platform.hh"
#include "core/sharded_platform.hh"
#include "obs/slo_monitor.hh"
#include "sim/logging.hh"
#include "sim/tick_log.hh"
#include "workload/generators.hh"

namespace {

using infless::core::CellOptions;
using infless::core::FunctionSpec;
using infless::core::Platform;
using infless::core::PlatformOptions;
using infless::core::ShardedPlatform;
using infless::metrics::RunMetrics;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;
using infless::sim::Tick;
using infless::workload::constantRate;
using infless::workload::uniformArrivals;

FunctionSpec
spec(const std::string &name, const std::string &model)
{
    FunctionSpec s;
    s.name = name;
    s.model = model;
    s.sloTicks = msToTicks(200);
    return s;
}

/** Everything RunMetrics exposes, flattened for equality comparison. */
std::vector<double>
fingerprint(const RunMetrics &m, Tick end)
{
    return {
        static_cast<double>(m.arrivals()),
        static_cast<double>(m.completions()),
        static_cast<double>(m.drops()),
        static_cast<double>(m.sloViolations()),
        static_cast<double>(m.coldLaunches()),
        static_cast<double>(m.warmLaunches()),
        static_cast<double>(m.batches()),
        static_cast<double>(m.sheds()),
        m.meanBatchFill(),
        static_cast<double>(m.latency().count()),
        static_cast<double>(m.latency().min()),
        static_cast<double>(m.latency().max()),
        m.latency().mean(),
        static_cast<double>(m.latency().percentile(50)),
        static_cast<double>(m.latency().percentile(99)),
        static_cast<double>(m.queueTime().percentile(99)),
        static_cast<double>(m.execTime().percentile(99)),
        m.cpuCoreSeconds(end),
        m.gpuDeviceSeconds(end),
        m.memoryGbSeconds(end),
        m.meanInstances(end),
        static_cast<double>(m.execCacheHits()),
        static_cast<double>(m.execCacheMisses()),
    };
}

/** Everything an SLO monitor exposes, flattened for comparison. */
std::vector<double>
sloDigest(const infless::obs::SloMonitor &health)
{
    std::vector<double> d;
    for (std::int32_t fn : health.functions()) {
        d.push_back(static_cast<double>(fn));
        d.push_back(static_cast<double>(health.sloOf(fn)));
        for (const infless::obs::WindowRow &row : health.closed(fn)) {
            d.push_back(static_cast<double>(row.start));
            d.push_back(static_cast<double>(row.completions));
            d.push_back(static_cast<double>(row.violations));
            d.push_back(static_cast<double>(row.drops));
            d.push_back(row.coldSum);
            d.push_back(row.queueSum);
            d.push_back(row.batchSum);
            d.push_back(row.execSum);
            d.push_back(row.burn);
        }
    }
    for (const infless::obs::SloAlert &alert : health.alerts()) {
        d.push_back(static_cast<double>(alert.function));
        d.push_back(static_cast<double>(alert.kind));
        d.push_back(static_cast<double>(alert.edge));
        d.push_back(static_cast<double>(alert.at));
        d.push_back(alert.burnRate);
        d.push_back(alert.meanCold);
        d.push_back(alert.meanQueue);
        d.push_back(alert.meanBatch);
        d.push_back(alert.meanExec);
    }
    d.push_back(static_cast<double>(health.alertsFired()));
    return d;
}

constexpr Tick kRunEnd = 30 * kTicksPerSec;

template <typename P>
void
driveWorkload(P &platform)
{
    auto fn0 = platform.deploy(spec("resnet", "ResNet-50"));
    auto fn1 = platform.deploy(spec("mobilenet", "MobileNet"));
    platform.injectTrace(fn0, uniformArrivals(60.0, 20 * kTicksPerSec));
    platform.injectRateSeries(fn1, constantRate(40.0, 20 * kTicksPerSec));
    platform.run(kRunEnd);
}

TEST(ShardedPlatform, Cells1IsBitIdenticalToFlatPlatform)
{
    for (bool slo : {false, true}) {
        PlatformOptions opts;
        opts.seed = 7;
        opts.obs.slo.enabled = slo;

        Platform flat(16, opts);
        driveWorkload(flat);

        CellOptions cells;
        cells.cells = 1;
        ShardedPlatform sharded(16, opts, cells);
        driveWorkload(sharded);

        EXPECT_EQ(fingerprint(flat.totalMetrics(), kRunEnd),
                  fingerprint(sharded.totalMetrics(), kRunEnd))
            << "slo " << slo;
        for (int fn = 0; fn < 2; ++fn)
            EXPECT_EQ(fingerprint(flat.functionMetrics(fn), kRunEnd),
                      fingerprint(sharded.functionMetrics(fn), kRunEnd))
                << "slo " << slo;
        EXPECT_EQ(flat.liveInstanceCount(), sharded.liveInstanceCount());
        EXPECT_EQ(flat.simulation().events().executed(),
                  sharded.eventsExecuted());
        EXPECT_EQ(flat.schedulerDecisions(), sharded.schedulerDecisions());
        EXPECT_EQ(flat.sloMonitor().closed(0).empty(), !slo);
    }
}

TEST(ShardedPlatform, Cells1SloHealthMatchesFlatPlatform)
{
    PlatformOptions opts;
    opts.seed = 7;
    opts.obs.slo.enabled = true;

    Platform flat(16, opts);
    driveWorkload(flat);

    CellOptions cells;
    cells.cells = 1;
    ShardedPlatform sharded(16, opts, cells);
    driveWorkload(sharded);

    // cells=1 delegates: its one cell's monitor holds the flat
    // monitor's rows and alerts.
    EXPECT_FALSE(flat.sloMonitor().closed(0).empty());
    EXPECT_EQ(sloDigest(flat.sloMonitor()),
              sloDigest(sharded.cell(0).sloMonitor()));
}

std::vector<double>
multiCellRun(std::size_t threads)
{
    PlatformOptions opts;
    opts.seed = 11;
    CellOptions cells;
    cells.cells = 4;
    cells.threads = threads;
    ShardedPlatform platform(16, opts, cells);
    driveWorkload(platform);
    auto fp = fingerprint(platform.totalMetrics(), kRunEnd);
    for (int fn = 0; fn < 2; ++fn) {
        auto ffp = fingerprint(platform.functionMetrics(fn), kRunEnd);
        fp.insert(fp.end(), ffp.begin(), ffp.end());
    }
    fp.push_back(static_cast<double>(platform.eventsExecuted()));
    fp.push_back(static_cast<double>(platform.schedulerDecisions()));
    for (std::size_t c = 0; c < 4; ++c)
        fp.push_back(static_cast<double>(platform.routedTo(c)));
    return fp;
}

TEST(ShardedPlatform, MultiCellByteIdenticalAcrossThreadCounts)
{
    auto serial = multiCellRun(1);
    EXPECT_EQ(serial, multiCellRun(2));
    EXPECT_EQ(serial, multiCellRun(4));
    EXPECT_EQ(serial, multiCellRun(0)); // pool default
}

TEST(ShardedPlatform, MultiCellConservesRequests)
{
    PlatformOptions opts;
    opts.seed = 3;
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(16, opts, cells);
    driveWorkload(platform);
    const auto &m = platform.totalMetrics();
    EXPECT_GT(m.arrivals(), 1'000);
    // Every arrival is settled or verifiably in flight (a retry backoff
    // can legally straddle the run end), across all cells together.
    EXPECT_EQ(m.completions() + m.drops() + platform.inFlightRequests(),
              m.arrivals());
    // And the run is essentially drained: stragglers are rare.
    EXPECT_LE(platform.inFlightRequests(), 5);
}

std::int64_t
routedSum(const ShardedPlatform &platform)
{
    std::int64_t total = 0;
    for (std::size_t c = 0; c < platform.cellCount(); ++c)
        total += platform.routedTo(c);
    return total;
}

TEST(ShardedPlatform, HomeCellOwnsFunctionWhenRoomy)
{
    PlatformOptions opts;
    opts.seed = 5;
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(16, opts, cells);
    driveWorkload(platform);
    for (int fn = 0; fn < 2; ++fn) {
        // Light load never exhausts a cell, so the home set stays one
        // cell and that cell sees every arrival of the function.
        std::size_t home = platform.router().rankedCell(fn, 0);
        EXPECT_EQ(platform.router().homeSize(fn), 1u);
        EXPECT_GT(platform.cell(home).functionMetrics(fn).arrivals(), 0);
        for (std::size_t c = 0; c < platform.cellCount(); ++c) {
            if (c != home) {
                EXPECT_EQ(platform.cell(c).functionMetrics(fn).arrivals(), 0)
                    << "fn " << fn << " leaked into cell " << c;
            }
        }
    }
    EXPECT_EQ(routedSum(platform), platform.totalMetrics().arrivals());
}

TEST(ShardedPlatform, SpillsPastHomeOnScaleOutMiss)
{
    // One server per cell and three heavy functions far past what one
    // server holds: home cells run out of room and report misses.
    PlatformOptions opts;
    opts.seed = 43;
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(4, opts, cells);
    const char *models[] = {"Bert-v1", "ResNet-50", "VGGNet"};
    for (const char *model : models) {
        auto fn = platform.deploy(spec(model, model));
        platform.injectTrace(fn, uniformArrivals(2'000.0, 10 * kTicksPerSec));
    }
    platform.run(15 * kTicksPerSec);

    std::int64_t misses = 0;
    bool spilled = false;
    for (int fn = 0; fn < 3; ++fn) {
        for (std::size_t c = 0; c < platform.cellCount(); ++c)
            misses += platform.cell(c).scaleOutMisses(fn);
        if (platform.router().homeSize(fn) < 2)
            continue;
        std::size_t next = platform.router().rankedCell(fn, 1);
        spilled = spilled ||
                  platform.cell(next).functionMetrics(fn).arrivals() > 0;
    }
    EXPECT_GT(misses, 0);
    EXPECT_TRUE(spilled) << "no function reached its next-ranked cell";

    const RunMetrics &m = platform.totalMetrics();
    EXPECT_EQ(routedSum(platform), m.arrivals());
    EXPECT_EQ(m.completions() + m.drops() + platform.inFlightRequests(),
              m.arrivals());
}

TEST(ShardedPlatform, CellsReleaseReplayedArrivals)
{
    // A flat platform keeps an injected trace delta-encoded in chunks
    // and frees each chunk once replay has read past it, so the storage
    // it holds shrinks as arrivals fire and is gone after the last one.
    PlatformOptions opts;
    opts.seed = 47;
    Platform flat(8, opts);
    auto fn = flat.deploy(spec("resnet", "ResNet-50"));
    flat.injectTrace(fn, uniformArrivals(2000.0, 20 * kTicksPerSec));
    std::size_t injected = flat.heldArrivalBytes();
    EXPECT_GE(injected, 16 * infless::sim::TickLog::kChunkBytes);
    flat.run(10 * kTicksPerSec);
    EXPECT_LE(flat.heldArrivalBytes(), injected * 6 / 10);
    EXPECT_GT(flat.heldArrivalBytes(), 0u);
    flat.run(25 * kTicksPerSec);
    EXPECT_EQ(flat.heldArrivalBytes(), 0u);

    // Cells receive one trace per (window, function) and replay each
    // within its window, so between windows they hold no arrivals at
    // all, however long the run.
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform sharded(16, opts, cells);
    auto sfn = sharded.deploy(spec("resnet", "ResNet-50"));
    sharded.injectTrace(sfn, uniformArrivals(200.0, 20 * kTicksPerSec));
    for (Tick t = kTicksPerSec; t <= 25 * kTicksPerSec; t += kTicksPerSec) {
        sharded.run(t);
        for (std::size_t c = 0; c < sharded.cellCount(); ++c)
            ASSERT_EQ(sharded.cell(c).heldArrivalBytes(), 0u)
                << "cell " << c << " at " << t;
    }
    EXPECT_GT(sharded.totalMetrics().arrivals(), 3'000);
}

TEST(ShardedPlatform, MultiCellArrivalsMatchFlatForSameTrace)
{
    // The same pre-materialized trace must be fully ingested regardless
    // of the partitioning (routing changes placement, never volume).
    auto trace = uniformArrivals(80.0, 10 * kTicksPerSec);

    PlatformOptions opts;
    opts.seed = 13;
    Platform flat(8, opts);
    auto fn = flat.deploy(spec("resnet", "ResNet-50"));
    flat.injectTrace(fn, trace);
    flat.run(15 * kTicksPerSec);

    CellOptions cells;
    cells.cells = 2;
    ShardedPlatform sharded(8, opts, cells);
    auto sfn = sharded.deploy(spec("resnet", "ResNet-50"));
    sharded.injectTrace(sfn, trace);
    sharded.run(15 * kTicksPerSec);

    EXPECT_EQ(sharded.totalMetrics().arrivals(),
              flat.totalMetrics().arrivals());
}

TEST(ShardedPlatform, RepeatedRunsAdvanceTheWindowLoop)
{
    PlatformOptions opts;
    opts.seed = 17;
    CellOptions cells;
    cells.cells = 2;
    ShardedPlatform platform(8, opts, cells);
    auto fn = platform.deploy(spec("resnet", "ResNet-50"));
    platform.injectTrace(fn, uniformArrivals(50.0, 10 * kTicksPerSec));
    platform.run(5 * kTicksPerSec);
    std::int64_t mid = platform.totalMetrics().arrivals();
    EXPECT_GT(mid, 0);
    platform.run(15 * kTicksPerSec);
    const auto &m = platform.totalMetrics();
    EXPECT_GT(m.arrivals(), mid);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(ShardedPlatform, CellSeedsDiverge)
{
    PlatformOptions opts;
    opts.seed = 23;
    CellOptions cells;
    cells.cells = 2;
    ShardedPlatform platform(8, opts, cells);
    // Different seeds per cell: their platforms draw independent RNG
    // streams (equal seeds would correlate keep-alive jitter etc.).
    EXPECT_NE(platform.cell(0).options().seed,
              platform.cell(1).options().seed);
    EXPECT_NE(platform.cell(0).options().seed, opts.seed);
}

/** The fingerprint of a 4-cell run of two functions, each at half of
 *  brownout's sample floor (kBrownoutMinSamples outcomes per
 *  kBrownoutWindow), plus its brownout entries. */
std::pair<std::vector<double>, std::int64_t>
multiCellFingerprint(const PlatformOptions &opts)
{
    constexpr double kRps =
        0.5 * infless::overload::kBrownoutMinSamples /
        infless::sim::ticksToSec(infless::overload::kBrownoutWindow);
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(16, opts, cells);
    auto fn0 = platform.deploy(spec("resnet", "ResNet-50"));
    auto fn1 = platform.deploy(spec("mobilenet", "MobileNet"));
    platform.injectTrace(fn0, uniformArrivals(kRps, 20 * kTicksPerSec));
    platform.injectRateSeries(fn1, constantRate(kRps, 20 * kTicksPerSec));
    platform.run(kRunEnd);
    return {fingerprint(platform.totalMetrics(), kRunEnd),
            platform.totalMetrics().brownoutEntries()};
}

TEST(ShardedPlatform, ZeroOverloadConfigIsBitIdenticalMultiCell)
{
    // The flat-platform inertness pin, repeated across cells: per-cell
    // control-plane state (breakers, brownout) must not leak into any
    // cell's event stream while it cannot fire — the breaker tuned
    // unreachable, brownout fed too few outcomes to engage.
    // Admission keeps no state and cannot be made inert at this
    // workload's SLO, so the flat pin covers it.
    PlatformOptions plain;
    plain.seed = 7;

    PlatformOptions inert = plain;
    inert.overload.breaker.enabled = true;
    inert.overload.breaker.openThreshold = 1.5;
    inert.overload.brownout.enabled = true;
    auto [inert_fp, inert_entries] = multiCellFingerprint(inert);
    EXPECT_EQ(multiCellFingerprint(plain).first, inert_fp);
    EXPECT_EQ(inert_entries, 0);
}

/** Each cell's SLO rows and alerts from a 4-cell run with only the
 *  monitor on. */
std::vector<double>
sloHealthRun(std::size_t threads)
{
    PlatformOptions opts;
    opts.seed = 29;
    opts.obs.slo.enabled = true;
    CellOptions cells;
    cells.cells = 4;
    cells.threads = threads;
    ShardedPlatform platform(16, opts, cells);
    driveWorkload(platform);

    // The cells' rows account for every completion and drop the fleet
    // settled, across all cells together.
    const RunMetrics &m = platform.totalMetrics();
    std::vector<double> d;
    std::int64_t completions = 0, drops = 0;
    bool any_rows = false;
    for (std::size_t c = 0; c < platform.cellCount(); ++c) {
        const infless::obs::SloMonitor &health = platform.cell(c).sloMonitor();
        for (std::int32_t fn : health.functions()) {
            for (const auto &row : health.closed(fn)) {
                completions += row.completions;
                drops += row.drops;
                any_rows = true;
            }
        }
        auto cd = sloDigest(health);
        d.insert(d.end(), cd.begin(), cd.end());
    }
    EXPECT_TRUE(any_rows);
    EXPECT_EQ(completions, m.completions());
    EXPECT_EQ(drops, m.drops());
    return d;
}

TEST(ShardedPlatform, SloHealthByteIdenticalAcrossThreadCounts)
{
    auto serial = sloHealthRun(1);
    EXPECT_EQ(serial, sloHealthRun(2));
    EXPECT_EQ(serial, sloHealthRun(4));
    EXPECT_EQ(serial, sloHealthRun(0)); // pool default
}

// ---------------------------------------------------------------------------
// Crashes and health ejection under cells
// ---------------------------------------------------------------------------

/** A 2-cell run with i.i.d. crashes and per-cell health scoring:
 *  the merged fingerprint plus each cell's quarantine and routing. */
std::vector<double>
chaosRun(std::size_t threads)
{
    PlatformOptions opts;
    opts.seed = 37;
    opts.faults.serverMtbfSec = 30.0;
    opts.faults.serverMttrSec = 5.0;
    opts.health.enabled = true;
    CellOptions cells;
    cells.cells = 2;
    cells.threads = threads;
    ShardedPlatform platform(16, opts, cells);
    driveWorkload(platform);

    const RunMetrics &m = platform.totalMetrics();
    auto fp = fingerprint(m, kRunEnd);
    fp.push_back(static_cast<double>(m.serverCrashes()));
    fp.push_back(static_cast<double>(m.serverRecoveries()));
    fp.push_back(static_cast<double>(m.healthEjections()));
    fp.push_back(static_cast<double>(m.healthReadmissions()));
    fp.push_back(static_cast<double>(platform.eventsExecuted()));
    fp.push_back(static_cast<double>(platform.schedulerDecisions()));
    for (std::size_t c = 0; c < platform.cellCount(); ++c) {
        fp.push_back(static_cast<double>(platform.routedTo(c)));
        fp.push_back(
            static_cast<double>(platform.cell(c).quarantinedServers()));
    }

    // Non-vacuity: servers crashed inside the cells.
    EXPECT_GT(m.serverCrashes(), 0);
    EXPECT_EQ(m.completions() + m.drops() + platform.inFlightRequests(),
              m.arrivals());
    return fp;
}

TEST(ShardedDomains, ChaosRunByteIdenticalAcrossThreadCounts)
{
    // Crashes and health scoring run inside each cell, and stay
    // byte-identical at every worker-thread count.
    auto serial = chaosRun(1);
    EXPECT_EQ(serial, chaosRun(2));
    EXPECT_EQ(serial, chaosRun(4));
    EXPECT_EQ(serial, chaosRun(0)); // pool default
}

/** The panic message of a 2-cell construction over @p opts, or "" when
 *  it constructs. */
std::string
multiCellPanic(const PlatformOptions &opts)
{
    CellOptions cells;
    cells.cells = 2;
    try {
        ShardedPlatform platform(8, opts, cells);
    } catch (const infless::sim::PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(ShardedPlatform, MultiCellRejectsServerIdOptions)
{
    // Zones, outages and gray servers are keyed by server id, and each
    // cell numbers its servers from 0. A multi-cell platform refuses
    // them; cells=1 is the flat platform and takes them all.
    PlatformOptions topo;
    topo.seed = 19;
    topo.topology.zones = 2;
    topo.topology.racksPerZone = 1;
    topo.topology.rackSize = 3;
    PlatformOptions gray;
    gray.seed = 19;
    gray.faults.grayFraction = 0.5;
    gray.faults.grayFactor = 4.0;
    PlatformOptions outage = topo;
    outage.faults.domainOutageAt = 5 * kTicksPerSec;
    outage.faults.domainOutageMttrSec = 5.0;

    EXPECT_NE(multiCellPanic(topo).find("topology"), std::string::npos);
    EXPECT_NE(multiCellPanic(gray).find("gray"), std::string::npos);
    EXPECT_NE(multiCellPanic(outage).find("domain outages"),
              std::string::npos);

    for (const PlatformOptions &opts : {topo, gray, outage}) {
        CellOptions cells;
        cells.cells = 1;
        ShardedPlatform platform(8, opts, cells);
        auto fn = platform.deploy(spec("resnet", "ResNet-50"));
        platform.injectTrace(fn, uniformArrivals(50.0, 10 * kTicksPerSec));
        platform.run(15 * kTicksPerSec);
        const RunMetrics &m = platform.totalMetrics();
        EXPECT_GT(m.arrivals(), 0);
        EXPECT_EQ(m.completions() + m.drops() + platform.inFlightRequests(),
                  m.arrivals());
    }
}

TEST(ShardedPlatform, RunBeforeTheClockPanics)
{
    PlatformOptions opts;
    opts.seed = 19;
    Platform flat(8, opts);
    flat.run(10 * kTicksPerSec);
    flat.run(10 * kTicksPerSec); // re-entering at the clock is fine
    EXPECT_THROW(flat.run(5 * kTicksPerSec), infless::sim::PanicError);

    for (std::size_t n_cells : {1u, 2u}) {
        CellOptions cells;
        cells.cells = n_cells;
        ShardedPlatform sharded(8, opts, cells);
        sharded.run(10 * kTicksPerSec);
        EXPECT_THROW(sharded.run(5 * kTicksPerSec),
                     infless::sim::PanicError)
            << n_cells << " cells";
    }
}

TEST(ShardedPlatform, CellAccessorsRejectOutOfRangeIndex)
{
    CellOptions cells;
    cells.cells = 2;
    ShardedPlatform platform(8, {}, cells);
    EXPECT_NO_THROW(platform.cell(1));
    EXPECT_EQ(platform.routedTo(1), 0);
    EXPECT_THROW(platform.cell(2), infless::sim::PanicError);
    EXPECT_THROW(platform.routedTo(2), infless::sim::PanicError);
}

/** FNV-1a over the bit patterns of @p values. */
std::uint64_t
bitDigest(const std::vector<double> &values)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (double v : values) {
        auto bits = std::bit_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/** One hot function well above a cell's share plus light background
 *  traffic, all of it routed over 4 cells. */
std::vector<double>
skewedTrafficRun()
{
    PlatformOptions opts;
    opts.seed = 41;
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(16, opts, cells);
    auto hot = platform.deploy(spec("resnet", "ResNet-50"));
    auto bg = platform.deploy(spec("mobilenet", "MobileNet"));
    platform.injectTrace(hot, uniformArrivals(120.0, 20 * kTicksPerSec));
    platform.injectRateSeries(bg, constantRate(20.0, 20 * kTicksPerSec));
    platform.run(kRunEnd);

    auto fp = fingerprint(platform.totalMetrics(), kRunEnd);
    fp.push_back(static_cast<double>(platform.eventsExecuted()));
    fp.push_back(static_cast<double>(platform.schedulerDecisions()));
    for (std::size_t c = 0; c < platform.cellCount(); ++c)
        fp.push_back(static_cast<double>(platform.routedTo(c)));
    return fp;
}

TEST(ShardedPlatform, MultiCellGoldenDigest)
{
    // Routing under uneven load, pinned bit for bit on home-cell
    // routing (the spread-everything po2 router gave
    // 0x1cab0b91a08a563b).
    EXPECT_EQ(bitDigest(skewedTrafficRun()), 0x5c68a1661a24d54fULL);
}

/** A 4-cell run with every per-cell robustness and observability
 *  subsystem on: i.i.d. crashes, startup failures, health ejection, the
 *  SLO monitor, the flight recorder, full tracing and the overload
 *  stack. Returns the merged fingerprint plus each cell's SLO rows,
 *  flight-recorder counts, events, decisions and routed arrivals. */
std::vector<double>
perCellChaosRun(std::size_t threads)
{
    PlatformOptions opts;
    opts.seed = 62;
    opts.faults.serverMtbfSec = 60.0;
    opts.faults.serverMttrSec = 5.0;
    opts.faults.startupFailureProb = 0.2;
    opts.health.enabled = true;
    opts.obs.slo.enabled = true;
    opts.obs.flight.enabled = true;
    opts.obs.trace.sampleRate = 1.0;
    opts.overload = infless::overload::OverloadConfig::fullStack();
    CellOptions cells;
    cells.cells = 4;
    cells.threads = threads;
    ShardedPlatform platform(16, opts, cells);
    driveWorkload(platform);

    const RunMetrics &m = platform.totalMetrics();
    auto fp = fingerprint(m, kRunEnd);
    fp.push_back(static_cast<double>(m.serverCrashes()));
    fp.push_back(static_cast<double>(m.serverRecoveries()));
    fp.push_back(static_cast<double>(m.startupFailures()));
    fp.push_back(static_cast<double>(m.failovers()));
    fp.push_back(static_cast<double>(m.healthEjections()));
    fp.push_back(static_cast<double>(m.breakerOpens()));
    bool any_triggered = false;
    std::int64_t slo_completions = 0, slo_drops = 0;
    for (std::size_t c = 0; c < platform.cellCount(); ++c) {
        const Platform &cell = platform.cell(c);
        auto slo = sloDigest(cell.sloMonitor());
        fp.insert(fp.end(), slo.begin(), slo.end());
        for (std::int32_t fn : cell.sloMonitor().functions()) {
            for (const auto &row : cell.sloMonitor().closed(fn)) {
                slo_completions += row.completions;
                slo_drops += row.drops;
            }
        }
        const infless::obs::FlightRecorder &flight = cell.flightRecorder();
        any_triggered = any_triggered || flight.triggered();
        fp.push_back(static_cast<double>(flight.triggerCause()));
        fp.push_back(static_cast<double>(flight.triggerAt()));
        fp.push_back(static_cast<double>(flight.triggerCount()));
        fp.push_back(static_cast<double>(flight.recorded()));
        fp.push_back(static_cast<double>(flight.dump().size()));
        fp.push_back(static_cast<double>(cell.tracer().recorded()));
        fp.push_back(
            static_cast<double>(cell.simulation().events().executed()));
        fp.push_back(static_cast<double>(cell.schedulerDecisions()));
        fp.push_back(static_cast<double>(platform.routedTo(c)));
    }

    // Non-vacuity: every fault class fired and some cell froze a dump.
    EXPECT_GT(m.serverCrashes(), 0);
    EXPECT_GT(m.startupFailures(), 0);
    EXPECT_TRUE(any_triggered);
    // The cells' SLO windows account for every request the fleet settled.
    EXPECT_EQ(slo_completions, m.completions());
    EXPECT_EQ(slo_drops, m.drops());
    EXPECT_EQ(m.completions() + m.drops() + platform.inFlightRequests(),
              m.arrivals());
    return fp;
}

TEST(ShardedPlatform, PerCellChaosGoldenDigest)
{
    // Crashes, startup failures, health, SLO, flight, tracing and
    // overload all run inside each cell; only arrivals and router
    // digests cross a cell boundary. Byte-identical at every
    // worker-thread count, and pinned bit for bit.
    auto serial = perCellChaosRun(1);
    EXPECT_EQ(serial, perCellChaosRun(2));
    EXPECT_EQ(serial, perCellChaosRun(4));
    EXPECT_EQ(serial, perCellChaosRun(0)); // pool default
    EXPECT_EQ(bitDigest(serial), 0x277efebec8b5bcf3ULL);
}

/** @p trace with every arrival moved @p by ticks later. */
infless::workload::ArrivalTrace
shifted(const infless::workload::ArrivalTrace &trace, Tick by)
{
    std::vector<Tick> ticks = trace.arrivals();
    for (Tick &t : ticks)
        t += by;
    return infless::workload::ArrivalTrace(std::move(ticks));
}

/** Arrivals that tie across feeds, on window boundaries and between
 *  two feeds of one function, routed over home sets that spill. */
struct RoutingOrderRun
{
    std::vector<double> fp;
    std::vector<std::int64_t> routed;
    std::size_t widestHome = 0;
};

RoutingOrderRun
routingOrderRun()
{
    // One server per cell: three heavy functions overflow their home
    // cells, so routing draws among several cells per function.
    PlatformOptions opts;
    opts.seed = 29;
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(4, opts, cells);
    const Tick first = 3 * kTicksPerSec;
    std::vector<infless::core::FunctionId> heavy;
    for (const char *model : {"Bert-v1", "ResNet-50", "VGGNet"}) {
        heavy.push_back(platform.deploy(spec(model, model)));
        // 1 ms apart in every feed: the three tie on every tick, and
        // every 250 ms window boundary carries an arrival.
        platform.injectTrace(heavy.back(), uniformArrivals(1'000.0, first));
    }
    // Two feeds of one function, 2.5 ms and 4 ms apart: they
    // interleave and tie every 20 ms.
    auto light = platform.deploy(spec("mobilenet", "MobileNet"));
    platform.injectTrace(light, uniformArrivals(400.0, first));
    platform.injectTrace(light, uniformArrivals(250.0, first));
    const Tick mid = msToTicks(1'500);
    platform.run(mid);

    // A second feed of a heavy function, injected between runs: it
    // starts on the cursor and ties with every live heavy feed.
    platform.injectTrace(
        heavy[0], shifted(uniformArrivals(1'000.0, 2 * kTicksPerSec),
                          mid - msToTicks(1)));
    const Tick end = 5 * kTicksPerSec;
    platform.run(end);

    RoutingOrderRun out;
    out.fp = fingerprint(platform.totalMetrics(), end);
    for (std::size_t fn = 0; fn < platform.functionCount(); ++fn) {
        auto ffp = fingerprint(
            platform.functionMetrics(static_cast<int>(fn)), end);
        out.fp.insert(out.fp.end(), ffp.begin(), ffp.end());
        out.widestHome =
            std::max(out.widestHome, platform.router().homeSize(fn));
    }
    out.fp.push_back(static_cast<double>(platform.eventsExecuted()));
    out.fp.push_back(static_cast<double>(platform.schedulerDecisions()));
    for (std::size_t c = 0; c < platform.cellCount(); ++c)
        out.routed.push_back(platform.routedTo(c));
    return out;
}

TEST(ShardedPlatform, RoutingOrderGoldenDigest)
{
    // Routing draws depend on arrival order once a home set holds more
    // than one cell, so this pins the order the barrier routes in:
    // ticks ascending, ties in feed-injection order.
    RoutingOrderRun run = routingOrderRun();
    EXPECT_GE(run.widestHome, 2u);
    EXPECT_EQ(run.routed,
              (std::vector<std::int64_t>{4227, 2430, 3834, 2453}));
    EXPECT_EQ(bitDigest(run.fp), 0x9f3defe6d4394f48ULL);
}

TEST(ShardedPlatform, DropPressureCountsEachRejectionOnce)
{
    // Admission sheds most of a burst far past cell 0's capacity. A shed
    // is a drop, so the router's drop pressure for a window is the
    // cell's drop count over it, each rejection counted once.
    PlatformOptions opts;
    opts.seed = 5;
    opts.overload.admission.enabled = true;
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(8, opts, cells);
    auto fn = platform.deploy(spec("resnet", "ResNet-50"));
    platform.injectTrace(fn, uniformArrivals(4000.0, kTicksPerSec));

    const Platform &cell = platform.cell(0);
    platform.run(msToTicks(250));
    std::int64_t drops_before = cell.totalMetrics().drops();
    std::int64_t sheds_before = cell.totalMetrics().sheds();
    platform.run(msToTicks(500));
    // Re-entering run() at the same tick refreshes the router at the
    // 500 ms barrier and advances nothing.
    platform.run(msToTicks(500));

    std::int64_t drops = cell.totalMetrics().drops() - drops_before;
    std::int64_t sheds = cell.totalMetrics().sheds() - sheds_before;
    EXPECT_GT(sheds, 0);
    EXPECT_EQ(sheds, drops); // every rejection in the window is a shed

    const auto &router = platform.router();
    double load = static_cast<double>(
        cell.queuedRequests() + router.routedSinceRefresh(0) + drops);
    double avail = cell.cluster().totalAvailable().weighted(
        infless::cluster::kDefaultBeta);
    EXPECT_DOUBLE_EQ(router.score(0), load / avail);
}

} // namespace
