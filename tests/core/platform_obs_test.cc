/**
 * @file
 * Observability integration with the platform: tracing emits the
 * expected lifecycle spans and fault instants, sampling rate 0 and
 * profiling leave every simulation output bit-identical, and the
 * overhead profiler populates under load. A golden digest pins the
 * whole span stream, flight dump and alert log of a full-stack run;
 * another pins the telemetry export of a run that moves every counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/platform.hh"
#include "core/sharded_platform.hh"
#include "obs/prof_scope.hh"
#include "obs/slo_monitor.hh"
#include "obs/telemetry.hh"
#include "obs/trace_recorder.hh"
#include "workload/generators.hh"
#include "workload/trace.hh"

namespace {

using infless::core::CellOptions;
using infless::core::FunctionSpec;
using infless::core::Platform;
using infless::core::PlatformOptions;
using infless::core::ShardedPlatform;
using infless::metrics::LatencyHistogram;
using infless::metrics::RunMetrics;
using infless::obs::AlertEdge;
using infless::obs::FlightTrigger;
using infless::obs::Phase;
using infless::obs::SloAlert;
using infless::obs::SpanKind;
using infless::obs::spanKindName;
using infless::obs::SpanRecord;
using infless::overload::OverloadConfig;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;
using infless::sim::Tick;
using infless::workload::uniformArrivals;

FunctionSpec
resnetSpec(Tick slo = msToTicks(200))
{
    FunctionSpec spec;
    spec.name = "resnet";
    spec.model = "ResNet-50";
    spec.sloTicks = slo;
    return spec;
}

/** Every simulation output a run produces, as a comparable tuple. */
auto
metricTuple(const Platform &p)
{
    const auto &m = p.totalMetrics();
    return std::make_tuple(
        m.arrivals(), m.completions(), m.drops(), m.sloViolations(),
        m.launches(), m.coldLaunches(), m.batches(),
        m.latency().percentile(99.0), m.queueTime().percentile(99.0),
        m.execTime().percentile(99.0), m.meanBatchFill(),
        p.liveInstanceCount(), p.meanFragmentRatio());
}

void
runWorkload(Platform &p)
{
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(80.0, kTicksPerMin));
    p.run(kTicksPerMin + 10 * kTicksPerSec);
}

TEST(PlatformObsTest, TracingAndProfilingAreBitIdentical)
{
    // Reference: observability fully off (the default options).
    Platform plain(4);
    runWorkload(plain);

    // Full-rate tracing + profiling on: every simulation output must be
    // unchanged — tracing draws no randomness and schedules no events,
    // profiling reads only the host's wall clock.
    PlatformOptions opts;
    opts.obs.trace.sampleRate = 1.0;
    opts.obs.profiling = true;
    Platform traced(4, std::move(opts));
    runWorkload(traced);

    EXPECT_EQ(metricTuple(plain), metricTuple(traced));
    EXPECT_GT(traced.tracer().recorded(), 0u);
}

TEST(PlatformObsTest, RateZeroRecordsNothing)
{
    PlatformOptions opts;
    opts.obs.trace.sampleRate = 0.0;
    Platform p(4, std::move(opts));
    runWorkload(p);
    EXPECT_FALSE(p.tracer().enabled());
    EXPECT_EQ(p.tracer().recorded(), 0u);
    EXPECT_EQ(p.tracer().size(), 0u);
}

TEST(PlatformObsTest, FullRateTracingEmitsLifecycleSpans)
{
    PlatformOptions opts;
    opts.obs.trace.sampleRate = 1.0;
    opts.obs.trace.capacity = 1 << 18; // keep the whole run
    Platform p(4, std::move(opts));
    runWorkload(p);

    int arrivals = 0, queues = 0, execs = 0, completes = 0, colds = 0;
    for (const SpanRecord &rec : p.tracer().snapshot()) {
        switch (rec.kind) {
          case SpanKind::Arrival:
            ++arrivals;
            break;
          case SpanKind::Queue:
            ++queues;
            EXPECT_GE(rec.server, 0);
            EXPECT_GE(rec.instance, 0);
            break;
          case SpanKind::Exec:
            ++execs;
            EXPECT_GT(rec.duration, 0);
            break;
          case SpanKind::Complete:
            ++completes;
            break;
          case SpanKind::ColdStart:
            ++colds;
            EXPECT_GT(rec.duration, 0);
            break;
          default:
            break;
        }
    }
    const auto &m = p.totalMetrics();
    EXPECT_EQ(arrivals, m.arrivals());
    EXPECT_EQ(completes, m.completions());
    EXPECT_EQ(queues, completes); // one queue span per completion
    EXPECT_EQ(execs, completes);
    EXPECT_GT(colds, 0); // the first requests waited through a cold start
}

TEST(PlatformObsTest, CrashAndRecoveryEmitClusterInstants)
{
    PlatformOptions opts;
    opts.obs.trace.sampleRate = 1.0;
    Platform p(4, std::move(opts));
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(50.0, 30 * kTicksPerSec));

    p.run(5 * kTicksPerSec);
    p.injectServerCrash(0);
    p.run(10 * kTicksPerSec);
    p.injectServerRecovery(0);
    p.run(35 * kTicksPerSec);

    int crashes = 0, recoveries = 0;
    for (const SpanRecord &rec : p.tracer().snapshot()) {
        if (rec.kind == SpanKind::ServerCrash) {
            ++crashes;
            EXPECT_EQ(rec.server, 0);
        }
        if (rec.kind == SpanKind::ServerRecovery)
            ++recoveries;
    }
    EXPECT_EQ(crashes, 1);
    EXPECT_EQ(recoveries, 1);
}

TEST(PlatformObsTest, FractionalSamplingTracesSubsetConsistently)
{
    PlatformOptions opts;
    opts.obs.trace.sampleRate = 0.25;
    Platform p(4, std::move(opts));
    runWorkload(p);

    const auto &tracer = p.tracer();
    EXPECT_GT(tracer.recorded(), 0u);
    // Every recorded request must itself be sampled (no leakage), and
    // strictly fewer than all arrivals can be traced.
    for (const SpanRecord &rec : tracer.snapshot()) {
        if (rec.request >= 0) {
            EXPECT_TRUE(tracer.sampled(rec.request));
        }
    }
    EXPECT_LT(tracer.recorded(),
              static_cast<std::uint64_t>(p.totalMetrics().arrivals()) * 4);
}

TEST(PlatformObsTest, ProfilerPopulatesUnderLoad)
{
    PlatformOptions opts;
    opts.obs.profiling = true;
    Platform p(4, std::move(opts));
    runWorkload(p);

    const auto &prof = p.overheads();
    // The scaler fires every period, and any scale-out runs Algorithm 1;
    // expirations hit the keep-alive policy.
    EXPECT_GT(prof.stats(Phase::Autoscaler).count, 0u);
    EXPECT_GT(prof.stats(Phase::Schedule).count, 0u);
    EXPECT_GT(prof.stats(Phase::ColdStartPolicy).count, 0u);
    // The COP enumeration runs once per distinct candidate pool, nested
    // inside the first schedule call that needs it: the one function
    // plans from one (model, SLO, batch cap) pool.
    EXPECT_EQ(prof.stats(Phase::CopSolve).count, 1u);
    EXPECT_LE(prof.stats(Phase::CopSolve).count,
              prof.stats(Phase::Schedule).count);
}

TEST(PlatformObsTest, ProfilerOffRecordsNothing)
{
    Platform p(4);
    runWorkload(p);
    EXPECT_FALSE(p.overheads().enabled());
    EXPECT_EQ(p.overheads().stats(Phase::Schedule).count, 0u);
    EXPECT_EQ(p.overheads().stats(Phase::Autoscaler).count, 0u);
}

TEST(PlatformObsTest, SloMonitorAndFlightRecorderAreBitIdentical)
{
    // Same doctrine as tracing: the health engine observes completions
    // and the flight ring records spans, but neither schedules events or
    // draws randomness, so every simulation output is unchanged.
    Platform plain(4);
    runWorkload(plain);

    PlatformOptions opts;
    opts.obs.slo.enabled = true;
    opts.obs.flight.enabled = true;
    Platform watched(4, std::move(opts));
    runWorkload(watched);

    EXPECT_EQ(metricTuple(plain), metricTuple(watched));
    EXPECT_GT(watched.sloMonitor().closed(0).size(), 0u);
    EXPECT_GT(watched.flightRecorder().recorded(), 0u);
    // And off-by-default means absent: the plain run holds no health
    // state at all.
    EXPECT_FALSE(plain.sloMonitor().enabled());
    EXPECT_TRUE(plain.sloMonitor().functions().empty());
    EXPECT_FALSE(plain.flightRecorder().enabled());
}

TEST(PlatformObsTest, SloAttributionMatchesRunMetrics)
{
    PlatformOptions opts;
    opts.obs.slo.enabled = true;
    Platform p(4, std::move(opts));
    runWorkload(p);

    const auto &m = p.totalMetrics();
    std::int64_t completions = 0, violations = 0, drops = 0;
    double attributed = 0.0;
    for (const auto &row : p.sloMonitor().closed(0)) {
        completions += row.completions;
        violations += row.violations;
        drops += row.drops;
        attributed +=
            row.coldSum + row.queueSum + row.batchSum + row.execSum;
    }
    EXPECT_EQ(completions, m.completions());
    EXPECT_EQ(violations, m.sloViolations());
    EXPECT_EQ(drops, m.drops());
    // The four-way split is exhaustive: cold + (queue - batch_wait) +
    // batch_wait + exec sums to the end-to-end latency mass.
    EXPECT_NEAR(attributed, m.latency().sum(),
                1e-6 * std::max(1.0, m.latency().sum()));
    // The batching tax is a refinement of queue wait, never extra mass.
    EXPECT_EQ(m.batchTime().count(), m.completions());
}

TEST(PlatformObsTest, FastBurnAlertFreezesTheFlightDump)
{
    PlatformOptions opts;
    opts.obs.slo.enabled = true;
    opts.obs.flight.enabled = true;
    Platform p(1, std::move(opts));
    auto fn = p.deploy(resnetSpec());
    // Far beyond one server's capacity: the violation fraction saturates
    // and the fast rule fires as soon as its 2-window span closes.
    p.injectTrace(fn, uniformArrivals(4000.0, 6 * kTicksPerSec));
    p.run(10 * kTicksPerSec);

    const auto &monitor = p.sloMonitor();
    ASSERT_GT(monitor.alertsFired(), 0);
    const SloAlert *first = nullptr;
    for (const SloAlert &alert : monitor.alerts()) {
        if (alert.edge == AlertEdge::Firing) {
            first = &alert;
            break;
        }
    }
    ASSERT_NE(first, nullptr);

    const auto &flight = p.flightRecorder();
    ASSERT_TRUE(flight.triggered());
    EXPECT_EQ(flight.triggerCause(), FlightTrigger::SloFastBurn);
    EXPECT_EQ(flight.triggerAt(), first->at);
    // The frozen dump ends with the marker at the alert instant: the
    // evidence is the seconds leading INTO the incident.
    ASSERT_FALSE(flight.dump().empty());
    EXPECT_EQ(flight.dump().back().kind, SpanKind::FlightDump);
    EXPECT_EQ(flight.dump().back().start, first->at);
}

TEST(PlatformObsTest, ServerCrashTriggersTheFlightDump)
{
    PlatformOptions opts;
    opts.obs.flight.enabled = true;
    Platform p(4, std::move(opts));
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(50.0, 10 * kTicksPerSec));
    p.run(5 * kTicksPerSec);
    p.injectServerCrash(2);
    p.run(15 * kTicksPerSec);

    const auto &flight = p.flightRecorder();
    ASSERT_TRUE(flight.triggered());
    EXPECT_EQ(flight.triggerCause(), FlightTrigger::ServerCrash);
    EXPECT_EQ(flight.triggerAt(), 5 * kTicksPerSec);
    // The crash span is emitted before the trigger freezes the dump, so
    // the incident itself is inside the evidence.
    bool has_crash = false;
    for (const SpanRecord &rec : flight.dump()) {
        if (rec.kind == SpanKind::ServerCrash && rec.server == 2)
            has_crash = true;
    }
    EXPECT_TRUE(has_crash);
}

/** FNV-1a over 64-bit words, fed one field at a time. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    }
    void mixInt(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
    void
    mixText(const std::string &text)
    {
        for (unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    }
    void mixDouble(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
    void
    mixSpans(const std::vector<SpanRecord> &spans)
    {
        mix(spans.size());
        for (const SpanRecord &rec : spans) {
            mixInt(rec.start);
            mixInt(rec.duration);
            mixInt(rec.request);
            mixInt(rec.instance);
            mixInt(rec.function);
            mixInt(rec.server);
            mix(static_cast<std::uint64_t>(rec.kind));
        }
    }
};

TEST(PlatformObsTest, SpanStreamGoldenDigest)
{
    // The full overload stack on a crashing flat fleet with every
    // observer on: every span the tracer holds, the frozen flight dump
    // and every SLO alert edge, pinned field for field. At this seed
    // half the servers are gray, so admitted requests still violate and
    // the breaker cycles open, half-open and closed.
    PlatformOptions opts;
    opts.overload = OverloadConfig::fullStack();
    opts.seed = 7;
    opts.faults.grayFraction = 0.5;
    opts.faults.grayFactor = 3.0;
    opts.faults.serverMtbfSec = 15.0;
    opts.faults.serverMttrSec = 5.0;
    opts.faults.crashHorizon = 20 * kTicksPerSec;
    opts.obs.trace.sampleRate = 1.0;
    opts.obs.trace.capacity = 1 << 19;
    opts.obs.flight.enabled = true;
    opts.obs.slo.enabled = true;
    Platform p(6, std::move(opts));
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(2000.0, 20 * kTicksPerSec));
    p.run(30 * kTicksPerSec);

    std::vector<SpanRecord> spans = p.tracer().snapshot();
    ASSERT_EQ(spans.size(), p.tracer().recorded()); // nothing overwritten
    std::set<SpanKind> kinds;
    for (const SpanRecord &rec : spans)
        kinds.insert(rec.kind);
    for (SpanKind kind :
         {SpanKind::Arrival, SpanKind::ColdStart, SpanKind::Queue,
          SpanKind::BatchWait, SpanKind::Exec, SpanKind::Complete,
          SpanKind::Drop, SpanKind::Shed, SpanKind::Retry,
          SpanKind::BreakerOpen, SpanKind::BreakerHalfOpen,
          SpanKind::BreakerClose, SpanKind::BrownoutEnter,
          SpanKind::BrownoutExit, SpanKind::ServerCrash,
          SpanKind::ServerRecovery})
        EXPECT_EQ(kinds.count(kind), 1u) << spanKindName(kind);

    Fnv1a fnv;
    fnv.mixSpans(spans);
    const auto &flight = p.flightRecorder();
    fnv.mix(static_cast<std::uint64_t>(flight.triggerCause()));
    fnv.mixInt(flight.triggerAt());
    fnv.mixSpans(flight.dump());
    const auto &alerts = p.sloMonitor().alerts();
    fnv.mix(alerts.size());
    for (const SloAlert &alert : alerts) {
        fnv.mixInt(alert.function);
        fnv.mix(static_cast<std::uint64_t>(alert.kind));
        fnv.mix(static_cast<std::uint64_t>(alert.edge));
        fnv.mixInt(alert.at);
        fnv.mixDouble(alert.burnRate);
        fnv.mixDouble(alert.meanCold);
        fnv.mixDouble(alert.meanQueue);
        fnv.mixDouble(alert.meanBatch);
        fnv.mixDouble(alert.meanExec);
    }
    EXPECT_TRUE(flight.triggered());
    EXPECT_FALSE(alerts.empty());
    EXPECT_EQ(fnv.h, 0xb4810eb9075d6144ULL);
}

TEST(PlatformObsTest, TelemetryGoldenDigest)
{
    // Every run counter the telemetry export carries, on a flat fleet
    // that exercises all of them: the full overload stack past capacity,
    // seeded crashes and aborted cold starts, a scripted zone outage,
    // gray servers found by the health ejector, and a periodic function
    // that LSTH learns to pre-warm. Both export formats pinned byte for
    // byte.
    PlatformOptions opts;
    opts.overload = OverloadConfig::fullStack();
    opts.seed = 7;
    opts.faults.serverMtbfSec = 15.0;
    opts.faults.serverMttrSec = 5.0;
    opts.faults.startupFailureProb = 0.1;
    opts.faults.crashHorizon = 20 * kTicksPerSec;
    opts.topology.zones = 2;
    opts.topology.rackSize = 3;
    opts.faults.domainOutageAt = 10 * kTicksPerSec;
    opts.faults.domainOutageTarget = 0;
    opts.faults.domainOutageMttrSec = 5.0;
    opts.health.enabled = true;
    Platform p(6, std::move(opts));
    p.setGrayMultiplier(3, 4.0);

    auto burst = p.deploy(resnetSpec());
    p.injectTrace(burst, uniformArrivals(2000.0, 20 * kTicksPerSec));
    FunctionSpec steady_spec = resnetSpec();
    steady_spec.name = "steady";
    auto steady = p.deploy(steady_spec);
    p.injectTrace(steady, uniformArrivals(80.0, 150 * kTicksPerSec));
    auto pulsed = p.deploy(FunctionSpec{"pulsed", "MobileNet",
                                        msToTicks(200), 32});
    std::vector<Tick> pulses;
    for (int i = 1; i <= 12; ++i)
        pulses.push_back(static_cast<Tick>(i) * 5 * kTicksPerMin);
    p.injectTrace(pulsed, infless::workload::ArrivalTrace(pulses));
    p.run(61 * kTicksPerMin);

    // The fixture reaches every exported counter.
    const auto &m = p.totalMetrics();
    std::vector<std::int64_t> counts = {
        m.arrivals(), m.completions(), m.drops(), m.sloViolations(),
        m.coldLaunches(), m.warmLaunches(), m.batches(),
        m.serverCrashes(), m.serverRecoveries(), m.startupFailures(),
        m.retries(), m.failovers(), m.lostBatchRequests(),
        static_cast<std::int64_t>(m.execCacheHits()),
        static_cast<std::int64_t>(m.execCacheMisses()), m.sheds(),
        m.breakerSheds(), m.queueEvictions(), m.breakerOpens(),
        m.breakerCloses(), m.brownoutEntries(), m.brownoutExits(),
        m.healthEjections(), m.healthReadmissions(), m.grayDetections(),
        m.domainOutages()};
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_GT(counts[i], 0) << "counter #" << i;

    infless::obs::TelemetryRegistry telemetry;
    telemetry.setRun("telemetry_golden", 7, 3660.0);
    telemetry.addRunMetrics(m);
    std::ostringstream json, prom;
    telemetry.writeJson(json);
    telemetry.writePrometheus(prom);
    Fnv1a fnv;
    fnv.mixText(json.str());
    fnv.mixText(prom.str());
    EXPECT_EQ(fnv.h, 0x70ed6f8249dca247ULL);
}

TEST(PlatformObsTest, IdleFunctionExportGoldenDigest)
{
    // A 4-cell fleet with one function that never receives a request
    // and one busy function that home-cell routing keeps out of some
    // cells. Pins both export formats of every per-cell and merged
    // per-function metrics set, and every histogram bucket's edge and
    // count, so an idle function exports the same empty 233-bucket
    // histograms however its storage is held.
    PlatformOptions opts;
    opts.seed = 13;
    CellOptions cells;
    cells.cells = 4;
    ShardedPlatform p(16, opts, cells);
    auto busy = p.deploy(resnetSpec());
    FunctionSpec idle_spec = resnetSpec();
    idle_spec.name = "idle";
    auto idle = p.deploy(idle_spec);
    p.injectTrace(busy, uniformArrivals(60.0, 10 * kTicksPerSec));
    const Tick end = 15 * kTicksPerSec;
    p.run(end);

    EXPECT_EQ(p.functionMetrics(idle).arrivals(), 0);
    EXPECT_GT(p.functionMetrics(busy).completions(), 0);
    EXPECT_EQ(p.functionMetrics(idle).latency().bucketCount(), 233u);

    Fnv1a fnv;
    int empty_busy_cells = 0;
    auto mix_metrics = [&](const RunMetrics &m) {
        infless::obs::TelemetryRegistry telemetry;
        telemetry.setRun("idle_export", 13, infless::sim::ticksToSec(end));
        telemetry.addRunMetrics(m);
        std::ostringstream json, prom;
        telemetry.writeJson(json);
        telemetry.writePrometheus(prom);
        fnv.mixText(json.str());
        fnv.mixText(prom.str());
        for (const LatencyHistogram *h :
             {&m.latency(), &m.queueTime(), &m.execTime(), &m.coldTime(),
              &m.batchTime()}) {
            fnv.mix(h->bucketCount());
            for (std::size_t b = 0; b < h->bucketCount(); ++b) {
                fnv.mixInt(h->bucketUpperBound(b));
                fnv.mixInt(h->bucketSamples(b));
            }
        }
    };
    for (std::size_t c = 0; c < p.cellCount(); ++c) {
        const Platform &cell = p.cell(c);
        mix_metrics(cell.functionMetrics(idle));
        mix_metrics(cell.functionMetrics(busy));
        mix_metrics(cell.totalMetrics());
        empty_busy_cells += cell.functionMetrics(busy).completions() == 0;
    }
    mix_metrics(p.functionMetrics(idle));
    mix_metrics(p.functionMetrics(busy));
    mix_metrics(p.totalMetrics());
    EXPECT_GT(empty_busy_cells, 0);
    EXPECT_EQ(fnv.h, 0xb8e1424ee9fd205cULL);
}

} // namespace
