/**
 * @file
 * Overload control plane integration with the platform: the disabled
 * (and inert) configs leave every simulation output bit-identical,
 * admission control sheds under burst overload, bounded queues evict,
 * the breaker opens and recovers, brownout engages, the retry budget
 * caps failover storms, and request conservation holds throughout.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>

#include "core/platform.hh"
#include "obs/trace_recorder.hh"
#include "workload/generators.hh"

namespace {

using infless::core::FunctionSpec;
using infless::core::Platform;
using infless::core::PlatformOptions;
using infless::obs::SpanKind;
using infless::obs::SpanRecord;
using infless::overload::BreakerState;
using infless::overload::OverloadConfig;
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

/** Sustained burst well past what two servers absorb within SLO. */
void
runBurst(Platform &p, double rps = 2000.0,
         Tick duration = 20 * kTicksPerSec)
{
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(rps, duration));
    p.run(duration + 10 * kTicksPerSec);
}

TEST(PlatformOverloadTest, ZeroOverloadConfigIsBitIdentical)
{
    // Reference: the seed platform's defaults (overload absent).
    Platform plain(2);
    runBurst(plain);

    // Inert settings: every subsystem switched on but tuned so it can
    // never fire — unreachable thresholds, unbounded slack, a budget
    // nothing draws on, the legacy queue bound. The simulation must not
    // notice the control plane exists.
    PlatformOptions opts;
    opts.overload.admission.enabled = true;
    opts.overload.admission.slackFactor = 1e12;
    opts.overload.breaker.enabled = true;
    opts.overload.breaker.openThreshold = 1.5; // rate <= 1: unreachable
    opts.overload.retryBudget.enabled = true;
    opts.overload.brownout.enabled = true;
    opts.overload.brownout.enterThreshold = 1.5;
    Platform inert(2, std::move(opts));
    runBurst(inert);

    EXPECT_EQ(metricTuple(plain), metricTuple(inert));
    auto snap = inert.overloadSnapshot(0);
    EXPECT_EQ(snap.breakerState, BreakerState::Closed);
    EXPECT_FALSE(snap.brownoutActive);
    EXPECT_EQ(snap.sheds, 0);
    EXPECT_EQ(snap.breakerSheds, 0);
    EXPECT_EQ(snap.queueEvictions, 0);
    EXPECT_EQ(snap.retryBudgetExhausted, 0);
}

TEST(PlatformOverloadTest, DisabledConfigReportsNoOverloadActivity)
{
    Platform p(2);
    runBurst(p);
    const auto &m = p.totalMetrics();
    EXPECT_EQ(m.sheds(), 0);
    EXPECT_EQ(m.breakerSheds(), 0);
    EXPECT_EQ(m.queueEvictions(), 0);
    EXPECT_EQ(m.retryBudgetExhausted(), 0);
    EXPECT_EQ(m.breakerOpens(), 0);
    EXPECT_EQ(m.brownoutEntries(), 0);
}

TEST(PlatformOverloadTest, AdmissionShedsAndPreservesConservation)
{
    PlatformOptions opts;
    opts.overload.admission.enabled = true;
    Platform p(2, std::move(opts));
    runBurst(p);

    const auto &m = p.totalMetrics();
    EXPECT_GT(m.sheds(), 0);
    // Sheds are a kind of drop: the total drop count covers them, so
    // the conservation identity is unchanged.
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    EXPECT_TRUE(p.auditConservation());
}

TEST(PlatformOverloadTest, AdmissionImprovesInSloGoodput)
{
    Platform undefended(2);
    runBurst(undefended);

    PlatformOptions opts;
    opts.overload.admission.enabled = true;
    Platform defended(2, std::move(opts));
    runBurst(defended);

    // Fail-fast shedding must convert SLO-violating completions into
    // cheap rejects: more completions land inside the SLO than when
    // every request is allowed to queue.
    const auto &um = undefended.totalMetrics();
    const auto &dm = defended.totalMetrics();
    EXPECT_GE(dm.completions() - dm.sloViolations(),
              um.completions() - um.sloViolations());
}

TEST(PlatformOverloadTest, BoundedQueueEvictsOldest)
{
    PlatformOptions opts;
    opts.overload.queue.depthCap = 4;
    opts.overload.queue.evictOldest = true;
    Platform p(2, std::move(opts));
    runBurst(p);

    const auto &m = p.totalMetrics();
    EXPECT_GT(m.queueEvictions(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    EXPECT_TRUE(p.auditConservation());
}

TEST(PlatformOverloadTest, BreakerOpensUnderOverloadAndSheds)
{
    PlatformOptions opts;
    opts.overload.breaker.enabled = true;
    opts.overload.breaker.window = 2 * kTicksPerSec;
    opts.overload.breaker.minSamples = 10;
    opts.overload.breaker.openThreshold = 0.3;
    opts.overload.breaker.openDuration = kTicksPerSec;
    Platform p(2, std::move(opts));
    // Drops while new capacity is still warming are provisioning
    // artifacts and bypass the breaker, so the load must exceed what
    // the *full* cluster can serve: saturated, nothing left to launch,
    // drops attributable to genuine overload.
    runBurst(p, 8000.0);

    const auto &m = p.totalMetrics();
    EXPECT_GE(m.breakerOpens(), 1);
    EXPECT_GT(m.breakerSheds(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(PlatformOverloadTest, BreakerEventsReachTheTracer)
{
    PlatformOptions opts;
    opts.obs.trace.sampleRate = 1.0;
    opts.obs.trace.capacity = 1 << 18;
    opts.overload.breaker.enabled = true;
    opts.overload.breaker.window = 2 * kTicksPerSec;
    opts.overload.breaker.minSamples = 10;
    opts.overload.breaker.openThreshold = 0.3;
    opts.overload.breaker.openDuration = kTicksPerSec;
    Platform p(2, std::move(opts));
    runBurst(p, 8000.0); // past full-cluster capacity; see above
    int opens = 0, sheds = 0;
    for (const SpanRecord &rec : p.tracer().snapshot()) {
        if (rec.kind == SpanKind::BreakerOpen) {
            ++opens;
            EXPECT_EQ(rec.function, 0);
        }
        if (rec.kind == SpanKind::Shed)
            ++sheds;
    }
    EXPECT_GE(opens, 1);
    EXPECT_GT(sheds, 0);
}

TEST(PlatformOverloadTest, BrownoutEngagesUnderSustainedPressure)
{
    PlatformOptions opts;
    opts.overload.brownout.enabled = true;
    opts.overload.brownout.minSamples = 30;
    opts.overload.brownout.enterThreshold = 0.10;
    opts.overload.brownout.minHold = 2 * kTicksPerSec;
    Platform p(2, std::move(opts));
    runBurst(p);

    const auto &m = p.totalMetrics();
    EXPECT_GE(m.brownoutEntries(), 1);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(PlatformOverloadTest, RetryBudgetCapsFailoverStorm)
{
    PlatformOptions opts;
    opts.overload.retryBudget.enabled = true;
    opts.overload.retryBudget.burst = 0.0; // deny every failover
    Platform p(2, std::move(opts));

    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(200.0, 20 * kTicksPerSec));
    p.run(10 * kTicksPerSec);
    p.injectServerCrash(0);
    p.run(30 * kTicksPerSec);

    const auto &m = p.totalMetrics();
    // The crash loses queued/in-flight requests; with an empty budget
    // each failover is denied and dropped instead of re-dispatched.
    EXPECT_GT(m.retryBudgetExhausted(), 0);
    EXPECT_EQ(m.retries(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(PlatformOverloadTest, FullStackHoldsConservationUnderBurst)
{
    PlatformOptions opts;
    opts.overload = OverloadConfig::fullStack();
    Platform p(2, std::move(opts));
    runBurst(p, 3000.0);

    std::string diag;
    EXPECT_TRUE(p.auditConservation(&diag)) << diag;
    const auto &m = p.totalMetrics();
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    EXPECT_GT(m.completions(), 0);
}

TEST(PlatformOverloadTest, SnapshotMirrorsFunctionCounters)
{
    PlatformOptions opts;
    opts.overload.admission.enabled = true;
    Platform p(2, std::move(opts));
    runBurst(p);

    auto snap = p.overloadSnapshot(0);
    const auto &fm = p.functionMetrics(0);
    EXPECT_EQ(snap.sheds, fm.sheds());
    EXPECT_EQ(snap.breakerSheds, fm.breakerSheds());
    EXPECT_EQ(snap.queueEvictions, fm.queueEvictions());
    EXPECT_EQ(snap.retryBudgetExhausted, fm.retryBudgetExhausted());
    EXPECT_EQ(snap.breakerState, BreakerState::Closed);
}

TEST(PlatformOverloadTest, FaithfulProfileErrorConfigIsBitIdentical)
{
    Platform plain(2);
    runBurst(plain);

    // factor 1.0 + jitter 0: the fault is disabled and the platform
    // must not even install the distortion hook.
    PlatformOptions opts;
    opts.faults.profileError.factor = 1.0;
    Platform faithful(2, std::move(opts));
    runBurst(faithful);
    EXPECT_EQ(metricTuple(plain), metricTuple(faithful));
}

/** FNV-1a over the bit patterns of a metricTuple's fields, each widened
 *  to double. */
template <typename Tuple>
std::uint64_t
tupleDigest(std::uint64_t h, const Tuple &tuple)
{
    std::apply(
        [&h](const auto &...field) {
            for (double v : {static_cast<double>(field)...}) {
                auto bits = std::bit_cast<std::uint64_t>(v);
                for (int i = 0; i < 8; ++i) {
                    h ^= (bits >> (8 * i)) & 0xFF;
                    h *= 0x100000001b3ULL;
                }
            }
        },
        tuple);
    return h;
}

TEST(PlatformOverloadTest, StaticAndFullStackGoldenDigest)
{
    // No gate, static admission and the full stack past full-cluster
    // capacity, each with an accurate and a 1.5x pessimistic profiler:
    // every output pinned bit for bit.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (double error : {1.0, 1.5}) {
        OverloadConfig admission;
        admission.admission.enabled = true;
        for (const OverloadConfig &overload :
             {OverloadConfig{}, admission, OverloadConfig::fullStack()}) {
            PlatformOptions opts;
            opts.overload = overload;
            opts.faults.profileError.factor = error;
            Platform p(2, std::move(opts));
            runBurst(p, 8000.0);
            h = tupleDigest(h, metricTuple(p));
        }
    }
    EXPECT_EQ(h, 0xae60135b5dfac524ULL);
}

TEST(PlatformOverloadTest, MispredictedProfileShiftsControlDecisions)
{
    Platform honest(2);
    runBurst(honest);

    // A pessimistic profiler changes what the scheduler provisions and
    // what the dispatcher batches — outcomes must move while execution
    // ground truth (and conservation) stay intact.
    PlatformOptions opts;
    opts.faults.profileError.factor = 1.5;
    Platform lying(2, std::move(opts));
    runBurst(lying);

    const auto &lm = lying.totalMetrics();
    EXPECT_NE(honest.totalMetrics().completions(), lm.completions());
    EXPECT_EQ(lm.completions() + lm.drops(), lm.arrivals());
    EXPECT_TRUE(lying.auditConservation());
}

} // namespace
