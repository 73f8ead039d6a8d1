/**
 * @file
 * Unit tests for scale-in drain planning and the per-tick scale-out
 * claim.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "core/autoscaler.hh"

namespace {

using infless::core::chooseDrains;
using infless::core::InstanceRateInfo;
using infless::core::scaleOutClaim;

TEST(ChooseDrainsTest, NoDrainWhenLoadIsHealthy)
{
    std::vector<InstanceRateInfo> infos = {{80, 28}, {40, 10}};
    std::vector<double> costs = {1.0, 0.5};
    // Threshold = 0.8*38 + 0.2*120 = 54.4; measured above it.
    auto drains = chooseDrains(infos, costs, 100.0, 0.8);
    EXPECT_TRUE(drains.empty());
}

TEST(ChooseDrainsTest, DrainsLeastEfficientFirst)
{
    // Instance 1 delivers less RPS per unit cost.
    std::vector<InstanceRateInfo> infos = {{80, 28}, {40, 10}};
    std::vector<double> costs = {0.5, 0.5}; // eff: 160 vs 80
    auto drains = chooseDrains(infos, costs, 50.0, 0.8);
    ASSERT_FALSE(drains.empty());
    EXPECT_EQ(drains[0], 1u);
}

TEST(ChooseDrainsTest, NeverDropsCapacityBelowMeasuredRate)
{
    std::vector<InstanceRateInfo> infos = {{80, 28}, {40, 10}};
    std::vector<double> costs = {1.0, 1.0};
    auto drains = chooseDrains(infos, costs, 90.0, 0.8);
    // Removing either instance would leave less than 90 RPS of capacity.
    EXPECT_TRUE(drains.empty());
}

TEST(ChooseDrainsTest, ZeroLoadDrainsEverything)
{
    std::vector<InstanceRateInfo> infos = {{80, 28}, {40, 10}, {40, 10}};
    std::vector<double> costs = {1.0, 1.0, 1.0};
    auto drains = chooseDrains(infos, costs, 0.0, 0.8);
    EXPECT_EQ(drains.size(), 3u);
}

TEST(ChooseDrainsTest, StopsOnceBackInCaseTwo)
{
    // Three identical instances; load fits comfortably in two.
    std::vector<InstanceRateInfo> infos = {{40, 14}, {40, 14}, {40, 14}};
    std::vector<double> costs = {1.0, 1.0, 1.0};
    // Start: threshold = 0.8*42 + 0.2*120 = 57.6 > 50 -> scale in. After
    // one drain the threshold is 0.8*28 + 0.2*80 = 38.4 <= 50 -> stop.
    auto drains = chooseDrains(infos, costs, 50.0, 0.8);
    EXPECT_EQ(drains.size(), 1u);
}

TEST(ChooseDrainsTest, MismatchedAritiesPanic)
{
    std::vector<InstanceRateInfo> infos = {{40, 14}};
    std::vector<double> costs = {};
    EXPECT_THROW(chooseDrains(infos, costs, 0.0, 0.8),
                 infless::sim::PanicError);
}

TEST(ChooseDrainsTest, EmptyInstancesYieldNoDrains)
{
    EXPECT_TRUE(chooseDrains({}, {}, 5.0, 0.8).empty());
}

TEST(ScaleOutClaimTest, UnprioritizedClaimsAQuarterOfTheMeasuredRate)
{
    // 0.25 x 400 = 100 is above the 50 RPS floor and below the residual.
    EXPECT_DOUBLE_EQ(scaleOutClaim(400.0, 1000.0, false), 100.0);
}

TEST(ScaleOutClaimTest, UnprioritizedClaimNeverFallsBelowTheFloor)
{
    // 0.25 x 100 = 25 is under the floor: a quiet function still grows
    // by 50 RPS a tick.
    EXPECT_DOUBLE_EQ(scaleOutClaim(100.0, 1000.0, false), 50.0);
    EXPECT_DOUBLE_EQ(scaleOutClaim(0.0, 1000.0, false), 50.0);
}

TEST(ScaleOutClaimTest, UnprioritizedClaimIsCappedByTheResidual)
{
    // Both the quarter slice (100) and the floor (50) exceed the
    // residual: never claim more than is missing.
    EXPECT_DOUBLE_EQ(scaleOutClaim(400.0, 30.0, false), 30.0);
    EXPECT_DOUBLE_EQ(scaleOutClaim(400.0, 80.0, false), 80.0);
}

TEST(ScaleOutClaimTest, PrioritizedClaimsTheWholeResidual)
{
    // Brownout asks for scale-out at full speed: no slice, no floor.
    EXPECT_DOUBLE_EQ(scaleOutClaim(400.0, 1000.0, true), 1000.0);
    EXPECT_DOUBLE_EQ(scaleOutClaim(400.0, 30.0, true), 30.0);
    EXPECT_DOUBLE_EQ(scaleOutClaim(0.0, 1000.0, true), 1000.0);
}

} // namespace
