/**
 * @file
 * Tests for the health scorer / outlier ejector: EMA folding, the
 * median-relative ejection rule, the success-rate rule, the
 * max-ejection-fraction guard and probation-based re-admission.
 */

#include <gtest/gtest.h>

#include "health/outlier_ejector.hh"
#include "sim/time.hh"

namespace {

using infless::cluster::ServerId;
using infless::health::HealthConfig;
using infless::health::kHealthEvalPeriod;
using infless::health::OutlierEjector;
using infless::health::ServerHealth;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

constexpr auto kAnyone = [](ServerId) { return true; };

HealthConfig
testConfig()
{
    HealthConfig cfg;
    cfg.enabled = true;
    cfg.minSamples = 10;
    cfg.ratioThreshold = 2.0;
    cfg.maxEjectFraction = 0.25;
    cfg.probation = 60 * kTicksPerSec;
    return cfg;
}

/** Feed @p n exec samples with a fixed actual/base ratio. */
void
feed(OutlierEjector &ej, ServerId id, int n, double ratio)
{
    for (int i = 0; i < n; ++i) {
        ej.recordExec(id, 1000,
                      static_cast<Tick>(1000.0 * ratio));
        ej.recordSuccess(id);
    }
}

TEST(OutlierEjectorTest, HealthyFleetEjectsNobody)
{
    OutlierEjector ej(testConfig());
    ej.ensureServers(8);
    for (ServerId s = 0; s < 8; ++s)
        feed(ej, s, 20, 1.0);
    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, 8);
    EXPECT_TRUE(acts.eject.empty());
    EXPECT_TRUE(acts.readmit.empty());
    EXPECT_EQ(ej.ejectedCount(), 0u);
    EXPECT_EQ(ej.emaRatio(0), 1.0);
}

TEST(OutlierEjectorTest, SlowOutlierEjectedAgainstFleetMedian)
{
    OutlierEjector ej(testConfig());
    ej.ensureServers(8);
    for (ServerId s = 0; s < 7; ++s)
        feed(ej, s, 20, 1.0);
    feed(ej, 7, 20, 4.0); // 4x the fleet median, past threshold 2.0

    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, 8);
    ASSERT_EQ(acts.eject.size(), 1u);
    EXPECT_EQ(acts.eject[0], 7);
    EXPECT_EQ(ej.state(7), ServerHealth::Ejected);
    EXPECT_EQ(ej.state(6), ServerHealth::Healthy);
    EXPECT_EQ(ej.ejections(), 1);
    EXPECT_NEAR(ej.emaRatio(7), 4.0, 1e-9);
}

TEST(OutlierEjectorTest, MinSamplesGateBlocksEarlyJudgment)
{
    OutlierEjector ej(testConfig());
    ej.ensureServers(4);
    for (ServerId s = 0; s < 3; ++s)
        feed(ej, s, 20, 1.0);
    // Only 5 samples (< minSamples 10): too little evidence, however
    // bad the ratio looks.
    for (int i = 0; i < 5; ++i)
        ej.recordExec(3, 1000, 8000);
    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, 4);
    EXPECT_TRUE(acts.eject.empty());

    // More evidence arrives: now it is judged and ejected.
    for (int i = 0; i < 10; ++i)
        ej.recordExec(3, 1000, 8000);
    acts = ej.evaluate(10 * kTicksPerSec, kAnyone, 4);
    ASSERT_EQ(acts.eject.size(), 1u);
    EXPECT_EQ(acts.eject[0], 3);
}

TEST(OutlierEjectorTest, FailingServerEjectedBySuccessRate)
{
    OutlierEjector ej(testConfig());
    ej.ensureServers(4);
    for (ServerId s = 0; s < 3; ++s)
        feed(ej, s, 20, 1.0);
    // Server 3 serves at normal speed but fails most of its work.
    for (int i = 0; i < 20; ++i) {
        ej.recordExec(3, 1000, 1000);
        if (i % 4 == 0)
            ej.recordSuccess(3);
        else
            ej.recordFailure(3);
    }
    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, 4);
    ASSERT_EQ(acts.eject.size(), 1u);
    EXPECT_EQ(acts.eject[0], 3);
}

TEST(OutlierEjectorTest, GuardCapsEjectedFraction)
{
    // 8 live servers, maxEjectFraction 0.25 -> at most 2 quarantined,
    // even with 3 servers all far past the threshold. (A bad *majority*
    // is a different defense: it drags the median up and nobody is an
    // outlier anymore.)
    OutlierEjector ej(testConfig());
    ej.ensureServers(8);
    for (ServerId s = 0; s < 5; ++s)
        feed(ej, s, 20, 1.0);
    for (ServerId s = 5; s < 8; ++s)
        feed(ej, s, 20, 5.0 + s); // distinct badness, worst last

    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, 8);
    ASSERT_EQ(acts.eject.size(), 2u);
    EXPECT_EQ(ej.ejectedCount(), 2u);
    // Worst-first: the highest EMA/median ratios go first.
    EXPECT_EQ(acts.eject[0], 7);
    EXPECT_EQ(acts.eject[1], 6);

    // Still capped on later evaluations while the first two sit in
    // quarantine.
    for (ServerId s = 0; s < 4; ++s)
        feed(ej, s, 20, 1.0);
    feed(ej, 4, 20, 9.0);
    acts = ej.evaluate(10 * kTicksPerSec, kAnyone, 8);
    EXPECT_TRUE(acts.eject.empty());
    EXPECT_EQ(ej.ejectedCount(), 2u);
}

TEST(OutlierEjectorTest, ProbationReadmitsWithFreshStats)
{
    HealthConfig cfg = testConfig();
    OutlierEjector ej(cfg);
    ej.ensureServers(4);
    for (ServerId s = 0; s < 3; ++s)
        feed(ej, s, 20, 1.0);
    feed(ej, 3, 20, 6.0);
    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, 4);
    ASSERT_EQ(acts.eject.size(), 1u);

    // Before probation expires: still ejected.
    acts = ej.evaluate(5 * kTicksPerSec + cfg.probation - 1, kAnyone, 4);
    EXPECT_TRUE(acts.readmit.empty());
    EXPECT_EQ(ej.state(3), ServerHealth::Ejected);

    // Probation over: re-admitted with a clean slate (EMA back to the
    // unobserved default), so the old bad history cannot re-eject it.
    acts = ej.evaluate(5 * kTicksPerSec + cfg.probation, kAnyone, 4);
    ASSERT_EQ(acts.readmit.size(), 1u);
    EXPECT_EQ(acts.readmit[0], 3);
    EXPECT_EQ(ej.state(3), ServerHealth::Healthy);
    EXPECT_EQ(ej.emaRatio(3), 1.0);
    EXPECT_EQ(ej.readmissions(), 1);
    EXPECT_EQ(ej.ejectedCount(), 0u);

    // Still degraded? It re-ejects on evidence accumulated anew.
    for (ServerId s = 0; s < 3; ++s)
        feed(ej, s, 20, 1.0);
    feed(ej, 3, 20, 6.0);
    acts = ej.evaluate(5 * kTicksPerSec + cfg.probation +
                           kHealthEvalPeriod,
                       kAnyone, 4);
    ASSERT_EQ(acts.eject.size(), 1u);
    EXPECT_EQ(ej.ejections(), 2);
}

TEST(OutlierEjectorTest, IneligibleServersAreNeverEjected)
{
    OutlierEjector ej(testConfig());
    ej.ensureServers(4);
    for (ServerId s = 0; s < 3; ++s)
        feed(ej, s, 20, 1.0);
    feed(ej, 3, 20, 6.0);
    // Server 3 is down (crashed): already out of the pool, ejecting it
    // would double-punish and burn the guard budget.
    auto acts = ej.evaluate(
        5 * kTicksPerSec, [](ServerId id) { return id != 3; }, 4);
    EXPECT_TRUE(acts.eject.empty());
}

TEST(OutlierEjectorTest, DeterministicAcrossRuns)
{
    auto run = [] {
        HealthConfig cfg = testConfig();
        cfg.maxEjectFraction = 0.4; // floor(0.4 * 6) = 2 slots
        OutlierEjector ej(cfg);
        ej.ensureServers(6);
        for (ServerId s = 0; s < 6; ++s)
            feed(ej, s, 20, s == 2 ? 5.0 : 1.0);
        auto a = ej.evaluate(5 * kTicksPerSec, kAnyone, 6);
        for (ServerId s = 0; s < 6; ++s)
            if (s != 2)
                feed(ej, s, 20, s == 4 ? 7.0 : 1.0);
        auto b = ej.evaluate(10 * kTicksPerSec, kAnyone, 6);
        std::vector<ServerId> out = a.eject;
        out.insert(out.end(), b.eject.begin(), b.eject.end());
        return out;
    };
    EXPECT_EQ(run(), run());
    EXPECT_EQ(run(), (std::vector<ServerId>{2, 4}));
}

} // namespace
