/**
 * @file
 * Unit tests for the batch-aware dispatching logic (§3.2's three-case
 * rule, rate estimation, and weighted routing).
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/dispatcher.hh"
#include "sim/time.hh"

namespace {

using infless::core::assessScaling;
using infless::core::InstanceRateInfo;
using infless::core::RateEstimator;
using infless::core::ScalingAssessment;
using infless::core::targetRates;
using infless::core::WeightedPick;
using infless::sim::kTicksPerSec;

using Action = ScalingAssessment::Action;

TEST(RateEstimatorTest, CountsWithinWindow)
{
    RateEstimator est;
    // 10 arrivals per second for three seconds.
    for (int i = 0; i < 30; ++i)
        est.record(i * kTicksPerSec / 10);
    // Mature estimate: ~20 arrivals in the trailing 2s window.
    EXPECT_NEAR(est.rps(3 * kTicksPerSec), 10.0, 0.6);
}

TEST(RateEstimatorTest, EarlyEstimateUsesObservedSpan)
{
    // Before a full window has elapsed the estimator divides by the
    // observed span, so ramp-up rates are not underestimated.
    RateEstimator est;
    for (int i = 0; i < 10; ++i)
        est.record(i * kTicksPerSec / 10); // 10 arrivals in 1 second
    EXPECT_NEAR(est.rps(kTicksPerSec), 10.0, 0.5);
}

TEST(RateEstimatorTest, OldArrivalsExpire)
{
    RateEstimator est;
    est.record(0);
    est.record(5 * kTicksPerSec / 2);
    EXPECT_DOUBLE_EQ(est.rps(3 * kTicksPerSec), 0.5); // only the 2.5s one left
    EXPECT_DOUBLE_EQ(est.rps(10 * kTicksPerSec), 0.0);
}

TEST(AssessScalingTest, CaseOneScaleOut)
{
    auto a = assessScaling(120.0, 100.0, 40.0, 0.8);
    EXPECT_EQ(a.action, Action::ScaleOut);
    EXPECT_DOUBLE_EQ(a.residualRps, 20.0);
}

TEST(AssessScalingTest, CaseTwoHold)
{
    // Threshold = 0.8*40 + 0.2*100 = 52.
    auto a = assessScaling(60.0, 100.0, 40.0, 0.8);
    EXPECT_EQ(a.action, Action::Hold);
    auto boundary = assessScaling(52.0, 100.0, 40.0, 0.8);
    EXPECT_EQ(boundary.action, Action::Hold);
}

TEST(AssessScalingTest, CaseThreeScaleIn)
{
    auto a = assessScaling(50.0, 100.0, 40.0, 0.8);
    EXPECT_EQ(a.action, Action::ScaleIn);
}

TEST(AssessScalingTest, AlphaShiftsScaleInThreshold)
{
    // With alpha=0: threshold is R_max; anything below scales in.
    EXPECT_EQ(assessScaling(99.0, 100.0, 40.0, 0.0).action,
              Action::ScaleIn);
    // With alpha=1: threshold is R_min.
    EXPECT_EQ(assessScaling(45.0, 100.0, 40.0, 1.0).action, Action::Hold);
    EXPECT_EQ(assessScaling(39.0, 100.0, 40.0, 1.0).action,
              Action::ScaleIn);
}

TEST(AssessScalingTest, NoInstancesAlwaysScalesOut)
{
    auto a = assessScaling(10.0, 0.0, 0.0, 0.8);
    EXPECT_EQ(a.action, Action::ScaleOut);
    EXPECT_DOUBLE_EQ(a.residualRps, 10.0);
}

TEST(TargetRatesTest, FullLoadGivesUpperBounds)
{
    std::vector<InstanceRateInfo> infos = {{80, 28}, {40, 10}};
    auto rates = targetRates(infos, 120.0);
    EXPECT_DOUBLE_EQ(rates[0], 80.0);
    EXPECT_DOUBLE_EQ(rates[1], 40.0);
}

TEST(TargetRatesTest, MinimumLoadGivesLowerBounds)
{
    std::vector<InstanceRateInfo> infos = {{80, 28}, {40, 10}};
    auto rates = targetRates(infos, 38.0);
    EXPECT_DOUBLE_EQ(rates[0], 28.0);
    EXPECT_DOUBLE_EQ(rates[1], 10.0);
}

TEST(TargetRatesTest, InterpolationSumsToMeasuredRate)
{
    std::vector<InstanceRateInfo> infos = {{80, 28}, {40, 10}, {60, 20}};
    double measured = 120.0; // between Rmin=58 and Rmax=180
    auto rates = targetRates(infos, measured);
    double sum = rates[0] + rates[1] + rates[2];
    EXPECT_NEAR(sum, measured, 1e-9);
    for (std::size_t i = 0; i < infos.size(); ++i) {
        EXPECT_GE(rates[i], infos[i].rLow);
        EXPECT_LE(rates[i], infos[i].rUp);
    }
}

TEST(TargetRatesTest, RatesStayWithinBoundsWhenOverloaded)
{
    std::vector<InstanceRateInfo> infos = {{80, 28}};
    auto rates = targetRates(infos, 500.0);
    EXPECT_DOUBLE_EQ(rates[0], 80.0); // clamped at r_up
}

TEST(PickWeightedTest, PrefersLeastLoadedRelativeToWeight)
{
    // Instance 0 has twice the weight, so at equal served it wins.
    WeightedPick even;
    even.offer(0, 80.0, 10.0);
    even.offer(1, 40.0, 10.0);
    EXPECT_EQ(even.pick(), 0u);
    // (31)/80 = 0.3875 vs (11)/40 = 0.275 -> instance 1 now.
    WeightedPick ahead;
    ahead.offer(0, 80.0, 30.0);
    ahead.offer(1, 40.0, 10.0);
    EXPECT_EQ(ahead.pick(), 1u);
}

TEST(PickWeightedTest, SkipsIneligibleAndZeroWeight)
{
    // Instance 0 is ineligible, so it is never offered; the zero-weight
    // instance 1 loses to any positive weight.
    WeightedPick pick;
    pick.offer(1, 0.0, 0.0);
    pick.offer(2, 40.0, 0.0);
    EXPECT_EQ(pick.pick(), 2u);
}

TEST(PickWeightedTest, NothingEligibleReturnsSentinel)
{
    EXPECT_EQ(WeightedPick().pick(), std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(WeightedPick::kNone, std::numeric_limits<std::size_t>::max());
}

TEST(PickWeightedTest, AllZeroWeightsFallBackToLeastServed)
{
    // Every eligible instance at target rate zero (e.g. the estimator
    // reads 0 rps right after a lull) must still route: least-served
    // round-robin, not a silent drop.
    WeightedPick all;
    all.offer(0, 0.0, 5.0);
    all.offer(1, 0.0, 2.0);
    all.offer(2, 0.0, 9.0);
    EXPECT_EQ(all.pick(), 1u);

    // Ineligible entries (not offered) stay out of the fallback.
    WeightedPick without_1;
    without_1.offer(0, 0.0, 5.0);
    without_1.offer(2, 0.0, 9.0);
    EXPECT_EQ(without_1.pick(), 0u);

    // A positive-weight entry still wins outright over the fallback.
    WeightedPick weighted;
    weighted.offer(0, 0.0, 5.0);
    weighted.offer(2, 10.0, 9.0);
    EXPECT_EQ(weighted.pick(), 2u);
}

TEST(PickWeightedTest, TiesGoToTheFirstOffered)
{
    WeightedPick ratio;
    ratio.offer(7, 20.0, 1.0);
    ratio.offer(3, 40.0, 3.0);
    EXPECT_EQ(ratio.pick(), 7u);
    WeightedPick least;
    least.offer(7, 0.0, 4.0);
    least.offer(3, 0.0, 4.0);
    EXPECT_EQ(least.pick(), 7u);
}

TEST(PickWeightedTest, LongRunShareMatchesWeights)
{
    // Simulate 1200 picks; shares should track weights 3:2:1.
    std::vector<double> weights = {30.0, 20.0, 10.0};
    std::vector<double> served = {0.0, 0.0, 0.0};
    for (int i = 0; i < 1200; ++i) {
        WeightedPick pick;
        for (std::size_t j = 0; j < weights.size(); ++j)
            pick.offer(j, weights[j], served[j]);
        served[pick.pick()] += 1.0;
    }
    EXPECT_NEAR(served[0], 600.0, 2.0);
    EXPECT_NEAR(served[1], 400.0, 2.0);
    EXPECT_NEAR(served[2], 200.0, 2.0);
}

} // namespace
