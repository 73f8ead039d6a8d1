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
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cell_partition.hh"
#include "core/platform.hh"
#include "core/sharded_platform.hh"
#include "obs/slo_monitor.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/tick_log.hh"
#include "workload/generators.hh"
#include "workload/trace.hh"

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

    // cells=1 runs one cell over the whole fleet: its monitor holds the
    // flat monitor's rows and alerts.
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
    EXPECT_EQ(serial, multiCellRun(0)); // hardware threads
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
        // The home cell sees every arrival of the function.
        std::size_t home = platform.homeCell(fn);
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

    // A cell is a flat platform over its slice and takes its home
    // functions' traces whole at injection, so each cell holds arrival
    // bytes until it has replayed its traces, and none after.
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform sharded(16, opts, cells);
    const Tick load = 20 * kTicksPerSec;
    std::vector<bool> homed(cells.cells, false);
    for (int i = 0; std::count(homed.begin(), homed.end(), false) > 0; ++i) {
        ASSERT_LT(i, 64) << "some cell is home to no function";
        auto sfn = sharded.deploy(
            spec("resnet-" + std::to_string(i), "ResNet-50"));
        sharded.injectTrace(sfn, uniformArrivals(100.0, load));
        homed[sharded.homeCell(sfn)] = true;
    }
    for (Tick t = kTicksPerSec; t <= 25 * kTicksPerSec; t += kTicksPerSec) {
        sharded.run(t);
        for (std::size_t c = 0; c < sharded.cellCount(); ++c) {
            if (t < load)
                ASSERT_GT(sharded.cell(c).heldArrivalBytes(), 0u)
                    << "cell " << c << " at " << t;
            else
                ASSERT_EQ(sharded.cell(c).heldArrivalBytes(), 0u)
                    << "cell " << c << " at " << t;
        }
    }
    EXPECT_GT(sharded.totalMetrics().arrivals(), 7'000);
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
    EXPECT_EQ(serial, sloHealthRun(0)); // hardware threads
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
    EXPECT_EQ(serial, chaosRun(0)); // hardware threads
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

TEST(ShardedPlatform, MultiCellRejectsUnknownFunctionIds)
{
    // A flat Platform panics on an id deploy() never returned; so does a
    // multi-cell one, before the id can index any per-function state.
    CellOptions cells;
    cells.cells = 2;
    ShardedPlatform platform(8, {}, cells);
    auto fn = platform.deploy(spec("resnet", "ResNet-50"));
    using infless::sim::PanicError;
    EXPECT_THROW(platform.functionMetrics(7), PanicError);
    EXPECT_THROW(platform.injectTrace(5, uniformArrivals(10.0, kTicksPerSec)),
                 PanicError);
    EXPECT_THROW(platform.injectTrace(-1, uniformArrivals(10.0, kTicksPerSec)),
                 PanicError);
    EXPECT_THROW(
        platform.injectRateSeries(fn + 1, constantRate(10.0, kTicksPerSec)),
        PanicError);
    EXPECT_THROW(platform.homeCell(fn + 1), PanicError);

    // The rejected feeds left nothing behind: only the deployed
    // function's arrivals are routed.
    auto trace = uniformArrivals(10.0, kTicksPerSec);
    auto n = static_cast<std::int64_t>(trace.arrivals().size());
    platform.injectTrace(fn, trace);
    platform.run(2 * kTicksPerSec);
    EXPECT_GT(n, 0);
    EXPECT_EQ(routedSum(platform), n);
    EXPECT_EQ(platform.functionMetrics(fn).arrivals(), n);

    // Nor did they draw: a valid rate series gets the arrivals it gets
    // on a platform that never saw the rejected calls.
    ShardedPlatform clean(8, {}, cells);
    clean.deploy(spec("resnet", "ResNet-50"));
    clean.injectTrace(fn, trace);
    clean.run(2 * kTicksPerSec);
    auto series = constantRate(40.0, 10 * kTicksPerSec);
    platform.injectRateSeries(fn, series);
    clean.injectRateSeries(fn, series);
    platform.run(12 * kTicksPerSec);
    clean.run(12 * kTicksPerSec);
    EXPECT_GT(clean.functionMetrics(fn).arrivals(), n);
    EXPECT_EQ(fingerprint(platform.functionMetrics(fn), 12 * kTicksPerSec),
              fingerprint(clean.functionMetrics(fn), 12 * kTicksPerSec));
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
    // overload all run inside each cell; only routed arrivals cross a
    // cell boundary. Byte-identical at every worker-thread count, and
    // pinned bit for bit.
    auto serial = perCellChaosRun(1);
    EXPECT_EQ(serial, perCellChaosRun(2));
    EXPECT_EQ(serial, perCellChaosRun(4));
    EXPECT_EQ(serial, perCellChaosRun(0)); // hardware threads
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

/** Arrivals that tie across feeds, on every multiple of 250 ms and
 *  between two feeds of one function, routed over 4 cells. */
struct FeedOrderRun
{
    std::vector<double> fp;
    std::vector<std::int64_t> routed;
};

FeedOrderRun
feedOrderRun(std::size_t servers)
{
    PlatformOptions opts;
    opts.seed = 29;
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(servers, opts, cells);
    const Tick first = 3 * kTicksPerSec;
    std::vector<infless::core::FunctionId> heavy;
    for (const char *model : {"Bert-v1", "ResNet-50", "VGGNet"}) {
        heavy.push_back(platform.deploy(spec(model, model)));
        // 1 ms apart in every feed: the three tie on every tick, and
        // every multiple of 250 ms carries an arrival.
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

    FeedOrderRun out;
    out.fp = fingerprint(platform.totalMetrics(), end);
    for (std::size_t fn = 0; fn < platform.functionCount(); ++fn) {
        auto ffp = fingerprint(
            platform.functionMetrics(static_cast<int>(fn)), end);
        out.fp.insert(out.fp.end(), ffp.begin(), ffp.end());
    }
    out.fp.push_back(static_cast<double>(platform.eventsExecuted()));
    out.fp.push_back(static_cast<double>(platform.schedulerDecisions()));
    for (std::size_t c = 0; c < platform.cellCount(); ++c)
        out.routed.push_back(platform.routedTo(c));
    return out;
}

TEST(ShardedPlatform, FeedOrderGoldenDigest)
{
    // The same tied and interleaved feeds on 16 servers per cell, where
    // every function stays in one cell: pins what each cell takes in
    // when feeds tie on multiples of 250 ms, interleave within one
    // function and join between runs.
    FeedOrderRun run = feedOrderRun(64);
    EXPECT_EQ(run.routed,
              (std::vector<std::int64_t>{2999, 0, 7997, 1948}));
    EXPECT_EQ(bitDigest(run.fp), 0xe7e14657449b3734ULL);
}

/** Eight light functions over 16 roomy cells; one function has two
 *  interleaving feeds. */
struct SingleHomeRun
{
    std::vector<double> fp;
    std::vector<std::int64_t> routed;
};

SingleHomeRun
singleHomeRun()
{
    PlatformOptions opts;
    opts.seed = 73;
    CellOptions cells;
    cells.cells = 16;
    cells.threads = 4;
    ShardedPlatform platform(64, opts, cells);
    const char *models[] = {"ResNet-50", "MobileNet", "Bert-v1",
                            "ResNet-20", "MNIST",     "SSD",
                            "DSSM-2365", "LSTM-2365"};
    const Tick load = 10 * kTicksPerSec;
    for (std::size_t i = 0; i < 8; ++i) {
        auto fn = platform.deploy(spec(models[i], models[i]));
        double rps = 10.0 + 5.0 * static_cast<double>(i);
        if (i % 2 == 0)
            platform.injectTrace(fn, uniformArrivals(rps, load));
        else
            platform.injectRateSeries(fn, constantRate(rps, load));
    }
    // A second feed of function 0, 3 ms off the first.
    platform.injectTrace(
        0, shifted(uniformArrivals(25.0, load - msToTicks(3)), msToTicks(3)));
    // An interior run() ending at 4.1 s, off any multiple of 250 ms.
    platform.run(msToTicks(4'100));

    SingleHomeRun out;
    const Tick end = 15 * kTicksPerSec;
    platform.run(end);

    out.fp = fingerprint(platform.totalMetrics(), end);
    for (std::size_t fn = 0; fn < platform.functionCount(); ++fn) {
        auto ffp = fingerprint(
            platform.functionMetrics(static_cast<int>(fn)), end);
        out.fp.insert(out.fp.end(), ffp.begin(), ffp.end());
    }
    out.fp.push_back(static_cast<double>(platform.eventsExecuted()));
    out.fp.push_back(static_cast<double>(platform.schedulerDecisions()));
    for (std::size_t c = 0; c < platform.cellCount(); ++c)
        out.routed.push_back(platform.routedTo(c));
    return out;
}

TEST(ShardedPlatform, SingleHomeRoutingGoldenDigest)
{
    // Pins what each function's home cell takes in over 16 cells,
    // across an interior run() ending at 4.1 s.
    SingleHomeRun run = singleHomeRun();
    EXPECT_EQ(run.routed,
              (std::vector<std::int64_t>{0, 385, 217, 0, 633, 0, 0, 547, 519,
                                         0, 0, 300, 0, 0, 0, 399}));
    EXPECT_EQ(bitDigest(run.fp), 0xe8c822373e662c47ULL);
}

/** Four functions over 4 cells, the one homed on the highest-index
 *  cell far hotter than the rest, so the busiest cell is claimed
 *  first rather than last. */
std::vector<double>
skewedCellsRun(std::size_t threads)
{
    PlatformOptions opts;
    opts.seed = 17;
    CellOptions cells;
    cells.cells = 4;
    cells.threads = threads;
    ShardedPlatform platform(16, opts, cells);
    const std::size_t last = platform.cellCount() - 1;
    std::vector<infless::core::FunctionId> fns;
    std::size_t hot = 4;
    for (const char *model : {"ResNet-50", "MobileNet", "SSD", "MNIST"}) {
        fns.push_back(platform.deploy(spec(model, model)));
        if (hot == 4 && platform.homeCell(fns.back()) == last)
            hot = fns.size() - 1;
    }
    EXPECT_LT(hot, 4u) << "no function is homed on the last cell";
    const Tick load = 10 * kTicksPerSec;
    for (std::size_t i = 0; i < fns.size(); ++i)
        platform.injectTrace(fns[i],
                             uniformArrivals(i == hot ? 150.0 : 10.0, load));
    platform.run(5 * kTicksPerSec);
    for (std::size_t c = 0; c < last; ++c)
        EXPECT_GT(platform.routedTo(last), platform.routedTo(c));
    const Tick end = 15 * kTicksPerSec;
    platform.run(end);

    auto fp = fingerprint(platform.totalMetrics(), end);
    for (std::size_t c = 0; c < platform.cellCount(); ++c) {
        auto cfp = fingerprint(platform.cell(c).totalMetrics(), end);
        fp.insert(fp.end(), cfp.begin(), cfp.end());
        fp.push_back(static_cast<double>(platform.routedTo(c)));
    }
    fp.push_back(static_cast<double>(platform.eventsExecuted()));
    fp.push_back(static_cast<double>(platform.schedulerDecisions()));
    return fp;
}

TEST(ShardedPlatform, SkewedCellsByteIdenticalAcrossThreadCounts)
{
    // Workers claim the busiest cell first; the claim order must not
    // reach any output.
    auto serial = skewedCellsRun(1);
    EXPECT_EQ(serial, skewedCellsRun(3));
    EXPECT_EQ(serial, skewedCellsRun(4));
}

TEST(ShardedPlatform, EachCellIsAFlatPlatform)
{
    // Cell c of a multi-cell run is bit for bit a flat Platform over c's
    // server slice, seeded hashCombine(seed, 0xCE11'0000 + c), with
    // every function deployed and only c's home functions' traces
    // injected upfront: nothing crosses a cell boundary at run time.
    PlatformOptions opts;
    opts.seed = 83;
    opts.faults.serverMtbfSec = 60.0;
    opts.faults.serverMttrSec = 5.0;
    opts.faults.startupFailureProb = 0.1;
    opts.obs.slo.enabled = true;
    opts.overload = infless::overload::OverloadConfig::fullStack();
    constexpr std::size_t kServers = 22; // uneven slices: 6, 6, 5, 5
    CellOptions cells;
    cells.cells = 4;
    cells.threads = 2;
    ShardedPlatform sharded(kServers, opts, cells);

    const char *models[] = {"ResNet-50", "MobileNet", "Bert-v1", "SSD",
                            "MNIST",     "VGGNet",    "ResNet-20"};
    const Tick load = 10 * kTicksPerSec;
    std::vector<std::pair<infless::core::FunctionId,
                          infless::workload::ArrivalTrace>>
        feeds;
    infless::sim::Rng rng(opts.seed);
    for (std::size_t i = 0; i < std::size(models); ++i) {
        auto fn = sharded.deploy(spec(models[i], models[i]));
        double rps = 15.0 + 10.0 * static_cast<double>(i);
        if (i % 2 == 0)
            feeds.emplace_back(fn, uniformArrivals(rps, load));
        else
            feeds.emplace_back(
                fn, infless::workload::ArrivalTrace::fromRateSeries(
                        constantRate(rps, load), rng));
    }
    // A second feed of function 0 that ties with the first every 200 ms.
    feeds.emplace_back(0, uniformArrivals(10.0, load));
    for (const auto &[fn, trace] : feeds)
        sharded.injectTrace(fn, trace);
    // An interior run() ending on an arrival, at 4.1 s.
    const Tick mid = msToTicks(4'100);
    const Tick end = 15 * kTicksPerSec;
    sharded.run(mid);
    sharded.run(end);

    std::vector<infless::cluster::CellSlice> slices =
        infless::cluster::partitionServers(kServers, cells.cells);
    ASSERT_EQ(slices.size(), sharded.cellCount());
    std::size_t busy_cells = 0;
    for (std::size_t c = 0; c < sharded.cellCount(); ++c) {
        PlatformOptions cell_opts = opts;
        cell_opts.seed =
            infless::sim::hashCombine(opts.seed, 0xCE11'0000ULL + c);
        Platform flat(slices[c].size(), cell_opts);
        for (const char *model : models)
            flat.deploy(spec(model, model));
        for (const auto &[fn, trace] : feeds)
            if (sharded.homeCell(fn) == c)
                flat.injectTrace(fn, trace);
        flat.run(mid);
        flat.run(end);

        const Platform &cell = sharded.cell(c);
        busy_cells += cell.totalMetrics().arrivals() > 0;
        EXPECT_EQ(fingerprint(cell.totalMetrics(), end),
                  fingerprint(flat.totalMetrics(), end))
            << "cell " << c;
        for (std::size_t fn = 0; fn < std::size(models); ++fn) {
            auto id = static_cast<infless::core::FunctionId>(fn);
            EXPECT_EQ(fingerprint(cell.functionMetrics(id), end),
                      fingerprint(flat.functionMetrics(id), end))
                << "cell " << c << " fn " << fn;
        }
        EXPECT_EQ(cell.simulation().events().executed(),
                  flat.simulation().events().executed())
            << "cell " << c;
        EXPECT_EQ(cell.schedulerDecisions(), flat.schedulerDecisions())
            << "cell " << c;
        EXPECT_EQ(sloDigest(cell.sloMonitor()), sloDigest(flat.sloMonitor()))
            << "cell " << c;
    }
    // Non-vacuity: the functions spread over more than one cell.
    EXPECT_GT(busy_cells, 1u);
    // Only a function's home cell records anything for it, so its
    // platform-wide metrics are its home cell's.
    for (std::size_t fn = 0; fn < std::size(models); ++fn) {
        auto id = static_cast<infless::core::FunctionId>(fn);
        EXPECT_EQ(fingerprint(sharded.functionMetrics(id), end),
                  fingerprint(sharded.cell(sharded.homeCell(id))
                                  .functionMetrics(id),
                              end))
            << "fn " << fn;
    }
}

} // namespace
