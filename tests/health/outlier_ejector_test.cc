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
using infless::health::kHealthEvalPeriod;
using infless::health::kMinSamples;
using infless::health::kProbation;
using infless::health::OutlierEjector;
using infless::health::ServerHealth;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

constexpr auto kAnyone = [](ServerId) { return true; };

/** Smallest fleet with one ejection slot: floor(0.2 * 5) = 1. Server 3
 *  is the suspect, the others its healthy peers. */
constexpr std::size_t kFleet = 5;
constexpr ServerId kHealthyPeers[] = {0, 1, 2, 4};

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
    OutlierEjector ej;
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
    OutlierEjector ej;
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
    OutlierEjector ej;
    ej.ensureServers(kFleet);
    for (ServerId s : kHealthyPeers)
        feed(ej, s, 20, 1.0);
    // One sample short of kMinSamples: too little evidence, however bad
    // the ratio looks.
    for (int i = 0; i < kMinSamples - 1; ++i)
        ej.recordExec(3, 1000, 8000);
    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, kFleet);
    EXPECT_TRUE(acts.eject.empty());

    // More evidence arrives: now it is judged and ejected.
    ej.recordExec(3, 1000, 8000);
    acts = ej.evaluate(10 * kTicksPerSec, kAnyone, kFleet);
    ASSERT_EQ(acts.eject.size(), 1u);
    EXPECT_EQ(acts.eject[0], 3);
}

TEST(OutlierEjectorTest, FailingServerEjectedBySuccessRate)
{
    OutlierEjector ej;
    ej.ensureServers(kFleet);
    for (ServerId s : kHealthyPeers)
        feed(ej, s, 20, 1.0);
    // Server 3 serves at normal speed but fails most of its work.
    for (int i = 0; i < 20; ++i) {
        ej.recordExec(3, 1000, 1000);
        if (i % 4 == 0)
            ej.recordSuccess(3);
        else
            ej.recordFailure(3);
    }
    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, kFleet);
    ASSERT_EQ(acts.eject.size(), 1u);
    EXPECT_EQ(acts.eject[0], 3);
}

TEST(OutlierEjectorTest, GuardCapsEjectedFraction)
{
    // 10 live servers, kMaxEjectFraction 0.2 -> at most 2 quarantined,
    // even with 3 servers all far past the threshold. (A bad *majority*
    // is a different defense: it drags the median up and nobody is an
    // outlier anymore.)
    OutlierEjector ej;
    ej.ensureServers(10);
    for (ServerId s = 0; s < 7; ++s)
        feed(ej, s, 20, 1.0);
    for (ServerId s = 7; s < 10; ++s)
        feed(ej, s, 20, 5.0 + s); // distinct badness, worst last

    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, 10);
    ASSERT_EQ(acts.eject.size(), 2u);
    EXPECT_EQ(ej.ejectedCount(), 2u);
    // Worst-first: the highest EMA/median ratios go first.
    EXPECT_EQ(acts.eject[0], 9);
    EXPECT_EQ(acts.eject[1], 8);

    // Still capped on later evaluations while the first two sit in
    // quarantine.
    for (ServerId s = 0; s < 6; ++s)
        feed(ej, s, 20, 1.0);
    feed(ej, 6, 20, 9.0);
    acts = ej.evaluate(10 * kTicksPerSec, kAnyone, 10);
    EXPECT_TRUE(acts.eject.empty());
    EXPECT_EQ(ej.ejectedCount(), 2u);
}

TEST(OutlierEjectorTest, ProbationReadmitsWithFreshStats)
{
    OutlierEjector ej;
    ej.ensureServers(kFleet);
    for (ServerId s : kHealthyPeers)
        feed(ej, s, 20, 1.0);
    feed(ej, 3, 20, 6.0);
    auto acts = ej.evaluate(5 * kTicksPerSec, kAnyone, kFleet);
    ASSERT_EQ(acts.eject.size(), 1u);

    // Before probation expires: still ejected.
    acts = ej.evaluate(5 * kTicksPerSec + kProbation - 1, kAnyone, kFleet);
    EXPECT_TRUE(acts.readmit.empty());
    EXPECT_EQ(ej.state(3), ServerHealth::Ejected);

    // Probation over: re-admitted with a clean slate (EMA back to the
    // unobserved default), so the old bad history cannot re-eject it.
    acts = ej.evaluate(5 * kTicksPerSec + kProbation, kAnyone, kFleet);
    ASSERT_EQ(acts.readmit.size(), 1u);
    EXPECT_EQ(acts.readmit[0], 3);
    EXPECT_EQ(ej.state(3), ServerHealth::Healthy);
    EXPECT_EQ(ej.emaRatio(3), 1.0);
    EXPECT_EQ(ej.readmissions(), 1);
    EXPECT_EQ(ej.ejectedCount(), 0u);

    // Still degraded? It re-ejects on evidence accumulated anew.
    for (ServerId s : kHealthyPeers)
        feed(ej, s, 20, 1.0);
    feed(ej, 3, 20, 6.0);
    acts = ej.evaluate(5 * kTicksPerSec + kProbation +
                           kHealthEvalPeriod,
                       kAnyone, kFleet);
    ASSERT_EQ(acts.eject.size(), 1u);
    EXPECT_EQ(ej.ejections(), 2);
}

TEST(OutlierEjectorTest, IneligibleServersAreNeverEjected)
{
    OutlierEjector ej;
    ej.ensureServers(kFleet);
    for (ServerId s : kHealthyPeers)
        feed(ej, s, 20, 1.0);
    feed(ej, 3, 20, 6.0);
    // Server 3 is down (crashed): already out of the pool, ejecting it
    // would double-punish and burn the guard budget.
    auto acts = ej.evaluate(
        5 * kTicksPerSec, [](ServerId id) { return id != 3; }, kFleet);
    EXPECT_TRUE(acts.eject.empty());
}

TEST(OutlierEjectorTest, DeterministicAcrossRuns)
{
    auto run = [] {
        OutlierEjector ej; // floor(0.2 * 10) = 2 slots
        ej.ensureServers(10);
        for (ServerId s = 0; s < 10; ++s)
            feed(ej, s, 20, s == 2 ? 5.0 : 1.0);
        auto a = ej.evaluate(5 * kTicksPerSec, kAnyone, 10);
        for (ServerId s = 0; s < 10; ++s)
            if (s != 2)
                feed(ej, s, 20, s == 4 ? 7.0 : 1.0);
        auto b = ej.evaluate(10 * kTicksPerSec, kAnyone, 10);
        std::vector<ServerId> out = a.eject;
        out.insert(out.end(), b.eject.begin(), b.eject.end());
        return out;
    };
    EXPECT_EQ(run(), run());
    EXPECT_EQ(run(), (std::vector<ServerId>{2, 4}));
}

} // namespace
