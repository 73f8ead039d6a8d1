/**
 * @file
 * Unit tests for the cold-start cost model.
 */

#include <gtest/gtest.h>

#include "cluster/container_runtime.hh"
#include "sim/time.hh"

namespace {

using infless::cluster::ContainerRuntime;
using infless::sim::msToTicks;

TEST(ContainerRuntimeTest, ColdStartGrowsWithModelSize)
{
    ContainerRuntime rt;
    auto small = rt.coldStartTicks(10);
    auto large = rt.coldStartTicks(400);
    EXPECT_GT(large, small);
    // The marginal cost is the per-MB load time.
    EXPECT_EQ(large - small, 390 * infless::cluster::kLoadPerMb);
}

TEST(ContainerRuntimeTest, ColdStartIsSecondsScaleForBigModels)
{
    ContainerRuntime rt;
    // Bert-v1 at 391 MB should take multiple seconds, far above its
    // execution time (the paper's observation in 3.5).
    EXPECT_GT(rt.coldStartTicks(391), msToTicks(2000));
    EXPECT_LT(rt.coldStartTicks(391), msToTicks(10'000));
}

TEST(ContainerRuntimeTest, WarmStartIsNegligible)
{
    ContainerRuntime rt;
    EXPECT_LT(rt.warmStartTicks(), msToTicks(10));
    EXPECT_LT(rt.warmStartTicks() * 100, rt.coldStartTicks(1));
}

} // namespace
