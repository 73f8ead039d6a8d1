/**
 * @file
 * Unit tests for the SLO health engine: window anchoring, burn-rate
 * math, the multi-window alert rules with hysteresis, attribution
 * accounting, the histogram evidence ring, and the cross-cell merge.
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
using infless::obs::SloHealthMerge;
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

// Cross-cell merge -----------------------------------------------------------

TEST(SloHealthMergeTest, MergedWindowsEqualAFlatMonitorFedEverything)
{
    SloMonitorConfig cfg = testConfig();
    SloMonitor cell0, cell1, flat;
    for (SloMonitor *m : {&cell0, &cell1, &flat}) {
        m->configure(cfg);
        m->registerFunction(kFn, kSlo);
    }
    // Asymmetric per-cell traffic, including a window where one cell is
    // completely idle.
    int good0[] = {4, 0, 6, 2}, bad0[] = {1, 0, 4, 0};
    int good1[] = {6, 9, 0, 3}, bad1[] = {2, 1, 0, 5};
    for (int w = 0; w < 4; ++w) {
        feedWindow(cell0, kFn, w, good0[w], bad0[w]);
        feedWindow(cell1, kFn, w, good1[w], bad1[w], /*drops=*/w);
        feedWindow(flat, kFn, w, good0[w] + good1[w], bad0[w] + bad1[w],
                   w);
    }
    cell0.advanceTo(4 * kWindow);
    cell1.advanceTo(4 * kWindow);
    flat.advanceTo(4 * kWindow);

    SloHealthMerge merge;
    merge.configure(cfg);
    merge.setCellCount(2);
    merge.absorb(0, cell0);
    merge.absorb(1, cell1);

    const auto &got = merge.closed(kFn);
    const auto &want = flat.closed(kFn);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t w = 0; w < want.size(); ++w) {
        EXPECT_EQ(got[w].start, want[w].start);
        EXPECT_EQ(got[w].completions, want[w].completions);
        EXPECT_EQ(got[w].violations, want[w].violations);
        EXPECT_EQ(got[w].drops, want[w].drops);
        EXPECT_DOUBLE_EQ(got[w].coldSum, want[w].coldSum);
        EXPECT_DOUBLE_EQ(got[w].queueSum, want[w].queueSum);
        EXPECT_DOUBLE_EQ(got[w].batchSum, want[w].batchSum);
        EXPECT_DOUBLE_EQ(got[w].execSum, want[w].execSum);
        EXPECT_DOUBLE_EQ(got[w].burn, want[w].burn);
    }
    // And the alert stream is identical: the merge evaluates the same
    // rules over the same pooled rows.
    ASSERT_EQ(merge.alerts().size(), flat.alerts().size());
    for (std::size_t i = 0; i < flat.alerts().size(); ++i) {
        EXPECT_EQ(merge.alerts()[i].kind, flat.alerts()[i].kind);
        EXPECT_EQ(merge.alerts()[i].edge, flat.alerts()[i].edge);
        EXPECT_EQ(merge.alerts()[i].at, flat.alerts()[i].at);
        EXPECT_DOUBLE_EQ(merge.alerts()[i].burnRate,
                         flat.alerts()[i].burnRate);
    }
    EXPECT_EQ(merge.sloOf(kFn), kSlo);
}

TEST(SloHealthMergeTest, StragglerCellDefersEvaluation)
{
    SloMonitorConfig cfg = testConfig();
    SloMonitor cell0, cell1;
    for (SloMonitor *m : {&cell0, &cell1}) {
        m->configure(cfg);
        m->registerFunction(kFn, kSlo);
    }
    cell0.advanceTo(3 * kWindow);
    cell1.advanceTo(1 * kWindow);

    SloHealthMerge merge;
    merge.configure(cfg);
    merge.setCellCount(2);
    merge.absorb(0, cell0);
    // Cell 1 has not been absorbed yet: nothing is evaluated.
    EXPECT_TRUE(merge.closed(kFn).empty());
    merge.absorb(1, cell1);
    // Only the window both cells have closed is finalized.
    EXPECT_EQ(merge.closed(kFn).size(), 1u);

    cell1.advanceTo(3 * kWindow);
    merge.absorb(1, cell1);
    EXPECT_EQ(merge.closed(kFn).size(), 3u);
}

TEST(SloHealthMergeTest, ColdCellsDiluteTheClusterBurn)
{
    // One hot cell at 100% violations, one cold cell with 9x the clean
    // traffic: the cluster burn is 10 (under the fast rule's 14.4) and
    // never pages, while the hot cell alone would. The cluster budget
    // is what the rules protect.
    SloMonitorConfig cfg = testConfig();
    SloMonitor hot, cold;
    for (SloMonitor *m : {&hot, &cold}) {
        m->configure(cfg);
        m->registerFunction(kFn, kSlo);
    }
    for (int w = 0; w < 4; ++w) {
        feedWindow(hot, kFn, w, 0, 10);
        feedWindow(cold, kFn, w, 90, 0);
    }
    hot.advanceTo(4 * kWindow);
    cold.advanceTo(4 * kWindow);
    EXPECT_GT(hot.alertsFired(), 0);

    SloHealthMerge merge;
    merge.configure(cfg);
    merge.setCellCount(2);
    merge.absorb(0, hot);
    merge.absorb(1, cold);
    EXPECT_EQ(merge.alertsFired(), 0);
    EXPECT_DOUBLE_EQ(merge.burnRate(kFn, AlertKind::FastBurn), 10.0);
}

TEST(SloHealthMergeTest, FunctionsAbsentFromACellStillMerge)
{
    SloMonitorConfig cfg = testConfig();
    SloMonitor cell0, cell1;
    cell0.configure(cfg);
    cell1.configure(cfg);
    cell0.registerFunction(7, kSlo);
    cell1.registerFunction(8, kSlo);
    feedWindow(cell0, 7, 0, 3, 1);
    cell0.advanceTo(2 * kWindow);
    cell1.advanceTo(2 * kWindow);

    SloHealthMerge merge;
    merge.configure(cfg);
    merge.setCellCount(2);
    merge.absorb(0, cell0);
    merge.absorb(1, cell1);
    EXPECT_EQ(merge.functions(), (std::vector<std::int32_t>{7, 8}));
    ASSERT_EQ(merge.closed(7).size(), 2u);
    EXPECT_EQ(merge.closed(7)[0].completions, 4);
    EXPECT_EQ(merge.closed(7)[0].violations, 1);
    ASSERT_EQ(merge.closed(8).size(), 2u);
    EXPECT_EQ(merge.closed(8)[0].finished(), 0);
}

TEST(SloHealthMergeTest, RepeatedAbsorbIsIdempotent)
{
    SloMonitorConfig cfg = testConfig();
    SloMonitor cell0;
    cell0.configure(cfg);
    cell0.registerFunction(kFn, kSlo);
    feedWindow(cell0, kFn, 0, 4, 2);
    cell0.advanceTo(kWindow);

    SloHealthMerge merge;
    merge.configure(cfg);
    merge.setCellCount(1);
    merge.absorb(0, cell0);
    merge.absorb(0, cell0); // no new windows: must not double-count
    ASSERT_EQ(merge.closed(kFn).size(), 1u);
    EXPECT_EQ(merge.closed(kFn)[0].completions, 6);
    EXPECT_EQ(merge.closed(kFn)[0].violations, 2);
}

} // namespace
