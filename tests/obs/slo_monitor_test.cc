/**
 * @file
 * Unit tests for the SLO health engine: window anchoring, burn-rate
 * math, the multi-window alert rules with hysteresis, attribution
 * accounting and the histogram evidence ring.
 */

#include <gtest/gtest.h>

#include <vector>

#include "obs/slo_monitor.hh"

namespace {

using infless::obs::AlertEdge;
using infless::obs::AlertKind;
using infless::obs::kSloWindowTicks;
using infless::obs::kSlowBurnRule;
using infless::obs::SloAlert;
using infless::obs::SloMonitor;
using infless::obs::SloMonitorConfig;
using infless::obs::WindowRow;
using infless::sim::kTicksPerMs;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

constexpr std::int32_t kFn = 0;
constexpr Tick kSlo = 100 * kTicksPerMs;
constexpr Tick kWindow = kSloWindowTicks;

/** An enabled monitor. The rules are fixed: 1% budget, fast = burn
 *  14.4 over 2 windows, slow = burn 6 over 12 windows (1 s windows,
 *  20-sample floor, 2-window clear streak). */
SloMonitorConfig
testConfig()
{
    SloMonitorConfig cfg;
    cfg.enabled = true;
    return cfg;
}

SloMonitor
makeMonitor(SloMonitorConfig cfg = testConfig())
{
    SloMonitor monitor;
    monitor.configure(cfg);
    monitor.registerFunction(kFn, kSlo);
    return monitor;
}

/** The fast rule's edge tests below run at most 7 windows, fewer than
 *  the slow rule spans, so the slow rule cannot fire in them. */
static_assert(kSlowBurnRule.windows > 7);

/** Fill window @p window with @p good in-SLO and @p bad violating
 *  completions (fixed attribution split: 10/20/5 ms + exec). */
void
feedWindow(SloMonitor &monitor, std::int32_t fn, int window, int good,
           int bad, int drops = 0)
{
    Tick at = Tick(window) * kWindow + kWindow / 2;
    Tick cold = 10 * kTicksPerMs, queue = 20 * kTicksPerMs,
         batch = 5 * kTicksPerMs;
    for (int i = 0; i < good; ++i) {
        Tick total = 50 * kTicksPerMs;
        monitor.recordCompletion(fn, at, total, cold, queue, batch,
                                 total - cold - queue - batch);
    }
    for (int i = 0; i < bad; ++i) {
        Tick total = 200 * kTicksPerMs;
        monitor.recordCompletion(fn, at, total, cold, queue, batch,
                                 total - cold - queue - batch);
    }
    for (int i = 0; i < drops; ++i)
        monitor.recordDrop(fn, at);
}

TEST(SloMonitorTest, DisabledMonitorRecordsNothing)
{
    SloMonitor monitor; // default config: disabled
    monitor.registerFunction(kFn, kSlo);
    monitor.recordCompletion(kFn, 10, 200 * kTicksPerMs, 0, 0, 0, 0);
    monitor.recordDrop(kFn, 20);
    monitor.advanceTo(10 * kWindow);
    EXPECT_FALSE(monitor.enabled());
    EXPECT_TRUE(monitor.functions().empty());
    EXPECT_TRUE(monitor.closed(kFn).empty());
    EXPECT_TRUE(monitor.alerts().empty());
}

TEST(SloMonitorTest, WindowsAnchorAtTickZero)
{
    // Windows align to the sim-clock origin, not first traffic: after
    // advanceTo(now) exactly floor(now / W) windows are closed — the
    // invariant the sharded merge cursor depends on.
    SloMonitor monitor = makeMonitor();
    monitor.advanceTo(3 * kWindow + kWindow / 2);
    ASSERT_EQ(monitor.closed(kFn).size(), 3u);
    for (std::size_t w = 0; w < 3; ++w) {
        EXPECT_EQ(monitor.closed(kFn)[w].start, Tick(w) * kWindow);
        EXPECT_EQ(monitor.closed(kFn)[w].finished(), 0);
    }

    feedWindow(monitor, kFn, 3, 2, 0);
    monitor.advanceTo(5 * kWindow);
    ASSERT_EQ(monitor.closed(kFn).size(), 5u);
    EXPECT_EQ(monitor.closed(kFn)[3].completions, 2);
    EXPECT_EQ(monitor.closed(kFn)[4].completions, 0);
}

TEST(SloMonitorTest, BurnRateIsViolationFractionOverBudget)
{
    SloMonitor monitor = makeMonitor();
    feedWindow(monitor, kFn, 0, 8, 2);
    monitor.advanceTo(kWindow);
    const WindowRow &row = monitor.closed(kFn)[0];
    EXPECT_EQ(row.completions, 10);
    EXPECT_EQ(row.violations, 2);
    // (2 bad / 10 finished) / 0.01 budget = 20x burn.
    EXPECT_DOUBLE_EQ(row.burn, 20.0);
}

TEST(SloMonitorTest, LatencyExactlyAtSloIsNotAViolation)
{
    SloMonitor monitor = makeMonitor();
    monitor.recordCompletion(kFn, kWindow / 2, kSlo, 0, 0, 0, kSlo);
    monitor.recordCompletion(kFn, kWindow / 2, kSlo + 1, 0, 0, 0, kSlo + 1);
    monitor.advanceTo(kWindow);
    EXPECT_EQ(monitor.closed(kFn)[0].violations, 1);
}

TEST(SloMonitorTest, DropsBurnBudgetLikeViolations)
{
    SloMonitor monitor = makeMonitor();
    feedWindow(monitor, kFn, 0, 0, 0, 10);
    monitor.advanceTo(kWindow);
    const WindowRow &row = monitor.closed(kFn)[0];
    EXPECT_EQ(row.drops, 10);
    EXPECT_EQ(row.finished(), 10);
    EXPECT_DOUBLE_EQ(row.burn, 100.0);
}

TEST(SloMonitorTest, AttributionSumsAccumulatePerWindow)
{
    SloMonitor monitor = makeMonitor();
    feedWindow(monitor, kFn, 0, 3, 0);
    monitor.advanceTo(kWindow);
    const WindowRow &row = monitor.closed(kFn)[0];
    EXPECT_DOUBLE_EQ(row.coldSum, 3.0 * 10 * kTicksPerMs);
    EXPECT_DOUBLE_EQ(row.queueSum, 3.0 * 20 * kTicksPerMs);
    EXPECT_DOUBLE_EQ(row.batchSum, 3.0 * 5 * kTicksPerMs);
    EXPECT_DOUBLE_EQ(row.execSum, 3.0 * 15 * kTicksPerMs);
}

TEST(SloMonitorTest, FastBurnFiresOnceItsSpanHasClosed)
{
    SloMonitor monitor = makeMonitor();
    // Window 0 alone burns at 50x but the fast rule spans 2 windows: no
    // alert until window 1 closes.
    feedWindow(monitor, kFn, 0, 5, 5);
    monitor.advanceTo(kWindow);
    EXPECT_TRUE(monitor.alerts().empty());

    feedWindow(monitor, kFn, 1, 5, 5);
    monitor.advanceTo(2 * kWindow);
    ASSERT_EQ(monitor.alerts().size(), 1u);
    const SloAlert &alert = monitor.alerts()[0];
    EXPECT_EQ(alert.function, kFn);
    EXPECT_EQ(alert.kind, AlertKind::FastBurn);
    EXPECT_EQ(alert.edge, AlertEdge::Firing);
    EXPECT_EQ(alert.at, 2 * kWindow);
    EXPECT_DOUBLE_EQ(alert.burnRate, 50.0);
    // Attribution means ride along as the "why": per-completion averages
    // over the rule's span.
    EXPECT_DOUBLE_EQ(alert.meanCold, 10.0 * kTicksPerMs);
    EXPECT_DOUBLE_EQ(alert.meanQueue, 20.0 * kTicksPerMs);
    EXPECT_DOUBLE_EQ(alert.meanBatch, 5.0 * kTicksPerMs);
    EXPECT_TRUE(monitor.firing(kFn, AlertKind::FastBurn));
    EXPECT_FALSE(monitor.firing(kFn, AlertKind::SlowBurn));
    EXPECT_EQ(monitor.alertsFired(), 1);
}

TEST(SloMonitorTest, MinSamplesGatesFiring)
{
    SloMonitor monitor = makeMonitor();
    // 100% violations, but only 4 finished requests per fast span: an
    // idle-ish function never pages off a handful of requests.
    for (int w = 0; w < 6; ++w)
        feedWindow(monitor, kFn, w, 0, 2);
    monitor.advanceTo(6 * kWindow);
    EXPECT_EQ(monitor.alertsFired(), 0);
    EXPECT_TRUE(monitor.alerts().empty());
    // The burn rate itself is still tracked (100x) — only paging is
    // gated.
    EXPECT_DOUBLE_EQ(monitor.burnRate(kFn, AlertKind::FastBurn), 100.0);
}

TEST(SloMonitorTest, AlertClearsAfterConsecutiveQuietWindows)
{
    SloMonitor monitor = makeMonitor();
    feedWindow(monitor, kFn, 0, 8, 2);
    feedWindow(monitor, kFn, 1, 8, 2);
    // One quiet window halves the pooled burn (10 < 14.4) but
    // hysteresis needs two in a row.
    feedWindow(monitor, kFn, 2, 10, 0);
    monitor.advanceTo(3 * kWindow);
    ASSERT_EQ(monitor.alerts().size(), 1u);
    EXPECT_TRUE(monitor.firing(kFn, AlertKind::FastBurn));

    feedWindow(monitor, kFn, 3, 10, 0);
    monitor.advanceTo(4 * kWindow);
    ASSERT_EQ(monitor.alerts().size(), 2u);
    EXPECT_EQ(monitor.alerts()[1].edge, AlertEdge::Cleared);
    EXPECT_EQ(monitor.alerts()[1].at, 4 * kWindow);
    EXPECT_FALSE(monitor.firing(kFn, AlertKind::FastBurn));
    // Cleared edges do not count as fired alerts.
    EXPECT_EQ(monitor.alertsFired(), 1);
}

TEST(SloMonitorTest, HotWindowResetsTheClearStreak)
{
    SloMonitor monitor = makeMonitor();
    feedWindow(monitor, kFn, 0, 8, 2);
    feedWindow(monitor, kFn, 1, 8, 2); // fires at 2s
    feedWindow(monitor, kFn, 2, 10, 0); // streak 1
    feedWindow(monitor, kFn, 3, 0, 10); // back over threshold: reset
    feedWindow(monitor, kFn, 4, 10, 0); // pooled with w3 still 50x: reset
    feedWindow(monitor, kFn, 5, 10, 0); // streak 1
    monitor.advanceTo(6 * kWindow);
    EXPECT_TRUE(monitor.firing(kFn, AlertKind::FastBurn));

    feedWindow(monitor, kFn, 6, 10, 0); // streak 2: cleared
    monitor.advanceTo(7 * kWindow);
    EXPECT_FALSE(monitor.firing(kFn, AlertKind::FastBurn));
    EXPECT_EQ(monitor.alerts().back().at, 7 * kWindow);
}

TEST(SloMonitorTest, SlowBurnCatchesSustainedBleedTheFastRuleMisses)
{
    SloMonitor monitor = makeMonitor();
    // 10% violations: burn 10 — under the fast threshold (14.4) but
    // over the slow one (6) once its 12-window span has closed.
    constexpr int kSpan = kSlowBurnRule.windows;
    for (int w = 0; w < kSpan - 1; ++w)
        feedWindow(monitor, kFn, w, 9, 1);
    monitor.advanceTo((kSpan - 1) * kWindow);
    EXPECT_TRUE(monitor.alerts().empty());
    feedWindow(monitor, kFn, kSpan - 1, 9, 1);
    monitor.advanceTo(kSpan * kWindow);
    ASSERT_EQ(monitor.alerts().size(), 1u);
    EXPECT_EQ(monitor.alerts()[0].kind, AlertKind::SlowBurn);
    EXPECT_EQ(monitor.alerts()[0].at, kSpan * kWindow);
    EXPECT_DOUBLE_EQ(monitor.alerts()[0].burnRate, 10.0);
    EXPECT_FALSE(monitor.firing(kFn, AlertKind::FastBurn));
}

TEST(SloMonitorTest, IdleFunctionsNeverPage)
{
    SloMonitor monitor = makeMonitor();
    monitor.advanceTo(20 * kWindow);
    EXPECT_EQ(monitor.closed(kFn).size(), 20u);
    EXPECT_TRUE(monitor.alerts().empty());
    EXPECT_DOUBLE_EQ(monitor.burnRate(kFn, AlertKind::FastBurn), 0.0);
    EXPECT_DOUBLE_EQ(monitor.burnRate(kFn, AlertKind::SlowBurn), 0.0);
}

TEST(SloMonitorTest, UnregisteredFunctionTrafficIsIgnored)
{
    SloMonitor monitor = makeMonitor();
    monitor.recordCompletion(99, kWindow / 2, kSlo * 2, 0, 0, 0, 0);
    monitor.recordDrop(99, kWindow / 2);
    monitor.advanceTo(kWindow);
    EXPECT_TRUE(monitor.closed(99).empty());
    EXPECT_FALSE(monitor.firing(99, AlertKind::FastBurn));
    EXPECT_EQ(monitor.sloOf(kFn), kSlo);
    EXPECT_EQ(monitor.sloOf(99), 0);
}

TEST(SloMonitorTest, AlertCallbackSeesEveryEdge)
{
    SloMonitor monitor = makeMonitor();
    std::vector<SloAlert> seen;
    monitor.setAlertCallback(
        [&seen](const SloAlert &alert) { seen.push_back(alert); });
    feedWindow(monitor, kFn, 0, 8, 2);
    feedWindow(monitor, kFn, 1, 8, 2);
    feedWindow(monitor, kFn, 2, 10, 0);
    feedWindow(monitor, kFn, 3, 10, 0);
    monitor.advanceTo(4 * kWindow);
    ASSERT_EQ(seen.size(), monitor.alerts().size());
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].edge, AlertEdge::Firing);
    EXPECT_EQ(seen[1].edge, AlertEdge::Cleared);
}

} // namespace
