/**
 * @file
 * Unit tests for the basic workload generators.
 */

#include <gtest/gtest.h>

#include "workload/generators.hh"

namespace {

using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;
using infless::workload::constantRate;
using infless::workload::uniformArrivals;

TEST(GeneratorsTest, ConstantRateFillsAllBins)
{
    auto s = constantRate(25.0, 10 * kTicksPerMin);
    EXPECT_EQ(s.rps.size(), 10u);
    EXPECT_DOUBLE_EQ(s.meanRps(), 25.0);
    EXPECT_DOUBLE_EQ(s.peakRps(), 25.0);
}

TEST(GeneratorsTest, ConstantRateRoundsBinsUp)
{
    auto s = constantRate(1.0, 90 * kTicksPerSec, kTicksPerMin);
    EXPECT_EQ(s.rps.size(), 2u);
}

TEST(GeneratorsTest, ZeroRateIsEmpty)
{
    EXPECT_TRUE(uniformArrivals(0.0, kTicksPerMin).empty());
}

TEST(GeneratorsTest, UniformArrivalsAreEvenlySpaced)
{
    auto trace = uniformArrivals(10.0, 2 * kTicksPerSec);
    ASSERT_EQ(trace.size(), 19u); // gap 100ms, starting at 100ms
    const auto &arrivals = trace.arrivals();
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i] - arrivals[i - 1], kTicksPerSec / 10);
}

TEST(GeneratorsTest, UniformArrivalsStayInsideHorizon)
{
    auto trace = uniformArrivals(3.0, kTicksPerSec);
    for (Tick t : trace.arrivals())
        EXPECT_LT(t, kTicksPerSec);
}

} // namespace
