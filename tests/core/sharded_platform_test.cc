/**
 * @file
 * Tests for the cell-partitioned control plane.
 *
 * The two determinism anchors from DESIGN.md 11: cells=1 is bit-identical
 * to a flat Platform, and a multi-cell run is byte-identical for every
 * worker-thread count.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
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
    PlatformOptions opts;
    opts.seed = 7;

    Platform flat(16, opts);
    driveWorkload(flat);

    CellOptions cells;
    cells.cells = 1;
    ShardedPlatform sharded(16, opts, cells);
    driveWorkload(sharded);

    EXPECT_EQ(fingerprint(flat.totalMetrics(), kRunEnd),
              fingerprint(sharded.totalMetrics(), kRunEnd));
    for (int fn = 0; fn < 2; ++fn)
        EXPECT_EQ(fingerprint(flat.functionMetrics(fn), kRunEnd),
                  fingerprint(sharded.functionMetrics(fn), kRunEnd));
    EXPECT_EQ(flat.liveInstanceCount(), sharded.liveInstanceCount());
    EXPECT_EQ(flat.simulation().events().executed(),
              sharded.eventsExecuted());
    EXPECT_EQ(flat.schedulerDecisions(), sharded.schedulerDecisions());
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

TEST(ShardedPlatform, FaultCommandsApplyAtBarriers)
{
    PlatformOptions opts;
    opts.seed = 19;
    CellOptions cells;
    cells.cells = 2;
    ShardedPlatform platform(8, opts, cells);
    auto fn = platform.deploy(spec("resnet", "ResNet-50"));
    platform.injectTrace(fn, uniformArrivals(50.0, 10 * kTicksPerSec));
    // Server 6 lives in cell 1 ([4, 8)); crash it mid-run, recover later.
    platform.scheduleServerCrash(6, 2 * kTicksPerSec);
    platform.scheduleServerRecovery(6, 6 * kTicksPerSec);
    platform.run(15 * kTicksPerSec);

    const auto &m = platform.totalMetrics();
    EXPECT_EQ(m.serverCrashes(), 1);
    EXPECT_EQ(m.serverRecoveries(), 1);
    // The crash landed in the owning cell's shard.
    EXPECT_EQ(platform.cell(1).totalMetrics().serverCrashes(), 1);
    EXPECT_EQ(platform.cell(0).totalMetrics().serverCrashes(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(ShardedPlatform, FaultCommandsRejectUnknownServerIds)
{
    for (std::size_t n_cells : {1u, 4u}) {
        PlatformOptions opts;
        opts.seed = 19;
        CellOptions cells;
        cells.cells = n_cells;
        ShardedPlatform platform(8, opts, cells);
        auto fn = platform.deploy(spec("resnet", "ResNet-50"));
        platform.injectTrace(fn, uniformArrivals(50.0, 10 * kTicksPerSec));
        // Rejected at the call, not at some later event or barrier.
        EXPECT_THROW(platform.scheduleServerCrash(8, kTicksPerSec),
                     infless::sim::PanicError);
        EXPECT_THROW(platform.scheduleServerRecovery(-1, kTicksPerSec),
                     infless::sim::PanicError);
        platform.run(15 * kTicksPerSec);

        const auto &m = platform.totalMetrics();
        EXPECT_GT(m.arrivals(), 0) << n_cells << " cells";
        EXPECT_EQ(m.serverCrashes(), 0) << n_cells << " cells";
        EXPECT_EQ(m.completions() + m.drops() + platform.inFlightRequests(),
                  m.arrivals())
            << n_cells << " cells";
    }
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

std::vector<double>
multiCellFingerprint(const PlatformOptions &opts)
{
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform platform(16, opts, cells);
    driveWorkload(platform);
    return fingerprint(platform.totalMetrics(), kRunEnd);
}

TEST(ShardedPlatform, ZeroOverloadConfigIsBitIdenticalMultiCell)
{
    // The flat-platform inertness pin, repeated across cells: per-cell
    // control-plane state (breakers, budgets) must not leak into any
    // cell's event stream when tuned unreachable.
    PlatformOptions plain;
    plain.seed = 7;

    PlatformOptions inert = plain;
    inert.overload.admission.enabled = true;
    inert.overload.admission.slackFactor = 1e12;
    inert.overload.breaker.enabled = true;
    inert.overload.breaker.openThreshold = 1.5;
    inert.overload.retryBudget.enabled = true;
    inert.overload.brownout.enabled = true;
    inert.overload.brownout.enterThreshold = 1.5;
    EXPECT_EQ(multiCellFingerprint(plain), multiCellFingerprint(inert));
}

// ---------------------------------------------------------------------------
// SLO health merge
// ---------------------------------------------------------------------------

/** Everything the health engine exposes, flattened for comparison. */
std::vector<double>
sloDigest(const infless::obs::SloHealthCore &health)
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

    // The merged rows account for every completion and drop the fleet
    // settled, across all cells together.
    const RunMetrics &m = platform.totalMetrics();
    std::int64_t completions = 0, drops = 0;
    for (std::int32_t fn : platform.sloHealth().functions()) {
        for (const auto &row : platform.sloHealth().closed(fn)) {
            completions += row.completions;
            drops += row.drops;
        }
    }
    EXPECT_EQ(completions, m.completions());
    EXPECT_EQ(drops, m.drops());
    EXPECT_FALSE(platform.sloHealth().closed(0).empty());
    return sloDigest(platform.sloHealth());
}

TEST(ShardedPlatform, SloHealthByteIdenticalAcrossThreadCounts)
{
    auto serial = sloHealthRun(1);
    EXPECT_EQ(serial, sloHealthRun(2));
    EXPECT_EQ(serial, sloHealthRun(4));
    EXPECT_EQ(serial, sloHealthRun(0)); // pool default
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

    // cells=1 delegates: the health view IS the flat monitor's, and the
    // enabled monitor leaves the run itself bit-identical.
    EXPECT_EQ(sloDigest(flat.sloMonitor()), sloDigest(sharded.sloHealth()));
    EXPECT_EQ(fingerprint(flat.totalMetrics(), kRunEnd),
              fingerprint(sharded.totalMetrics(), kRunEnd));
}

// ---------------------------------------------------------------------------
// Failure domains, gray failures, health ejection
// ---------------------------------------------------------------------------

TEST(ShardedDomains, ScriptedOutageSpansCellsAndMergesOnce)
{
    // Zone 0 of this layout is {0,1,2,6,7}: racks of 3 round-robin over
    // 2 zones, so the zone straddles the 2-cell partition ([0,4), [4,8)).
    PlatformOptions opts;
    opts.seed = 19;
    opts.topology.zones = 2;
    opts.topology.racksPerZone = 1;
    opts.topology.rackSize = 3;
    opts.faults.domainOutageAt = 5 * kTicksPerSec;
    opts.faults.domainOutageTarget = 0;
    opts.faults.domainOutageMttrSec = 5.0;
    CellOptions cells;
    cells.cells = 2;
    ShardedPlatform platform(8, opts, cells);
    auto fn = platform.deploy(spec("resnet", "ResNet-50"));
    platform.injectTrace(fn, uniformArrivals(50.0, 15 * kTicksPerSec));
    platform.run(20 * kTicksPerSec);

    const RunMetrics &m = platform.totalMetrics();
    // Every member of the zone crashed together — across both cells —
    // and repaired together.
    EXPECT_EQ(m.serverCrashes(), 5);
    EXPECT_EQ(m.serverRecoveries(), 5);
    EXPECT_EQ(platform.cell(0).totalMetrics().serverCrashes(), 3);
    EXPECT_EQ(platform.cell(1).totalMetrics().serverCrashes(), 2);
    // ...but it is ONE outage: the note lands on cell 0 only, so the
    // merged counter does not multiply by the number of cells touched.
    EXPECT_EQ(m.domainOutages(), 1);
    EXPECT_EQ(platform.cell(1).totalMetrics().domainOutages(), 0);
    EXPECT_EQ(m.completions() + m.drops() + platform.inFlightRequests(),
              m.arrivals());
}

std::vector<double>
chaosRun(std::size_t threads)
{
    PlatformOptions opts;
    opts.seed = 37;
    // Zones straddle cell boundaries (racks of 3 over a 4x4 partition).
    opts.topology.zones = 3;
    opts.topology.racksPerZone = 1;
    opts.topology.rackSize = 3;
    opts.faults.domainOutageAt = 5 * kTicksPerSec;
    opts.faults.domainOutageTarget = 1;
    opts.faults.domainOutageMttrSec = 5.0;
    opts.faults.grayFraction = 0.5;
    opts.faults.grayFactor = 4.0;
    opts.scheduler.spreadWeight = 0.5;
    opts.health.enabled = true;
    // Cells hold 4 servers each: the default 0.2 cap would floor to
    // zero slots, so give each cell one ejection slot.
    opts.health.maxEjectFraction = 0.3;
    CellOptions cells;
    cells.cells = 4;
    cells.threads = threads;
    ShardedPlatform platform(16, opts, cells);
    driveWorkload(platform);

    auto fp = fingerprint(platform.totalMetrics(), kRunEnd);
    const RunMetrics &m = platform.totalMetrics();
    fp.push_back(static_cast<double>(m.serverCrashes()));
    fp.push_back(static_cast<double>(m.serverRecoveries()));
    fp.push_back(static_cast<double>(m.domainOutages()));
    fp.push_back(static_cast<double>(m.healthEjections()));
    fp.push_back(static_cast<double>(m.healthReadmissions()));
    fp.push_back(static_cast<double>(m.grayDetections()));
    fp.push_back(static_cast<double>(platform.eventsExecuted()));
    fp.push_back(static_cast<double>(platform.schedulerDecisions()));
    for (std::size_t c = 0; c < platform.cellCount(); ++c) {
        fp.push_back(static_cast<double>(platform.routedTo(c)));
        fp.push_back(
            static_cast<double>(platform.cell(c).quarantinedServers()));
    }

    // Non-vacuity: the correlated outage fired and took servers down.
    EXPECT_EQ(m.domainOutages(), 1);
    EXPECT_GT(m.serverCrashes(), 0);
    EXPECT_EQ(m.completions() + m.drops() + platform.inFlightRequests(),
              m.arrivals());
    return fp;
}

TEST(ShardedDomains, ChaosRunByteIdenticalAcrossThreadCounts)
{
    // The full robustness stack at once — topology spread, a scripted
    // zone outage straddling cells, gray servers, per-cell health
    // ejection — stays byte-identical at every worker-thread count.
    auto serial = chaosRun(1);
    EXPECT_EQ(serial, chaosRun(2));
    EXPECT_EQ(serial, chaosRun(4));
    EXPECT_EQ(serial, chaosRun(0)); // pool default
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
    // Multi-cell outputs pinned bit for bit: the chaos run covers
    // topology spread, a zone outage straddling cells, gray servers and
    // health ejection; the skewed run covers routing under uneven load.
    // Pinned on home-cell routing (the spread-everything po2 router
    // gave 0x94bbd48f6408799a and 0x1cab0b91a08a563b).
    EXPECT_EQ(bitDigest(chaosRun(1)), 0x8c89a4b1e79cb99bULL);
    EXPECT_EQ(bitDigest(skewedTrafficRun()), 0x5c68a1661a24d54fULL);
}

} // namespace
