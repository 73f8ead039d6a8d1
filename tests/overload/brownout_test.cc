/**
 * @file
 * Tests for the brownout controller's enter/exit hysteresis.
 */

#include <gtest/gtest.h>

#include "overload/brownout.hh"
#include "sim/time.hh"

namespace {

using infless::overload::BrownoutConfig;
using infless::overload::BrownoutController;
using infless::overload::kBrownoutMinHold;
using infless::overload::kBrownoutMinSamples;
using infless::overload::kBrownoutWindow;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

BrownoutConfig
testConfig()
{
    BrownoutConfig cfg;
    cfg.enabled = true;
    return cfg;
}

/** Feed @p n outcomes 1 ms apart from @p start; returns the next tick. */
Tick
feed(BrownoutController &b, Tick start, int n, bool overloaded)
{
    for (int i = 0; i < n; ++i)
        b.record(start + i * 1000, overloaded);
    return start + n * 1000;
}

/** Past the hold, with every earlier sample aged out of the window. */
constexpr Tick kPastHold = kBrownoutMinHold + kBrownoutWindow;

TEST(BrownoutTest, DisabledNeverActivates)
{
    BrownoutController b; // default config: disabled
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(b.record(i * 1000, true)); // never an edge
    EXPECT_FALSE(b.update(kTicksPerSec));
    EXPECT_FALSE(b.active());
}

TEST(BrownoutTest, StaysOutBelowMinSamples)
{
    BrownoutController b(testConfig());
    feed(b, 0, kBrownoutMinSamples - 1, true);
    EXPECT_FALSE(b.active());
}

TEST(BrownoutTest, EntersUnderSustainedPressure)
{
    BrownoutController b(testConfig());
    // 42 clean and 7 hot outcomes: one short of the sample floor.
    feed(b, 0, 42, false);
    Tick t = feed(b, 42'000, 7, true);
    EXPECT_FALSE(b.active());
    EXPECT_TRUE(b.record(t, true)); // 8 of 50 = 16% >= 15%: engages
    EXPECT_TRUE(b.active());
}

TEST(BrownoutTest, HoldsThroughEarlyRecovery)
{
    BrownoutController b(testConfig());
    Tick t = feed(b, 0, kBrownoutMinSamples, true);
    ASSERT_TRUE(b.active());
    // Clean traffic inside the hold: stays browned out (hysteresis).
    feed(b, t, 200, false);
    EXPECT_FALSE(b.update(t + kTicksPerSec));
    EXPECT_TRUE(b.active());
}

TEST(BrownoutTest, ExitsAfterHoldWhenPressureClears)
{
    BrownoutController b(testConfig());
    feed(b, 0, kBrownoutMinSamples, true);
    ASSERT_TRUE(b.active());
    // Past the hold with an empty (fully aged-out) window: rate 0.
    EXPECT_TRUE(b.update(kPastHold));
    EXPECT_FALSE(b.active());
}

TEST(BrownoutTest, ReentersOnRenewedPressure)
{
    BrownoutController b(testConfig());
    feed(b, 0, kBrownoutMinSamples, true);
    ASSERT_TRUE(b.update(kPastHold));
    ASSERT_FALSE(b.active());
    Tick t = feed(b, kPastHold + kTicksPerSec, kBrownoutMinSamples - 1,
                  true);
    EXPECT_FALSE(b.active());
    EXPECT_TRUE(b.record(t, true)); // the second entry
    EXPECT_TRUE(b.active());
}

} // namespace
