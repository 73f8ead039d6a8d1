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
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

BrownoutConfig
testConfig()
{
    BrownoutConfig cfg;
    cfg.enabled = true;
    cfg.window = kTicksPerSec;
    cfg.windowBuckets = 4;
    cfg.enterThreshold = 0.2;
    cfg.minSamples = 10;
    cfg.minHold = 2 * kTicksPerSec;
    cfg.degradedSloMultiplier = 2.0;
    return cfg;
}

Tick
feed(BrownoutController &b, Tick start, int n, bool overloaded)
{
    for (int i = 0; i < n; ++i)
        b.record(start + i * 1000, overloaded);
    return start + n * 1000;
}

TEST(BrownoutTest, DisabledNeverActivates)
{
    BrownoutController b; // default config: disabled
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(b.record(i * 1000, true)); // never an edge
    EXPECT_FALSE(b.update(kTicksPerSec));
    EXPECT_FALSE(b.active());
    EXPECT_DOUBLE_EQ(b.sloMultiplier(), 1.0);
}

TEST(BrownoutTest, StaysOutBelowMinSamples)
{
    BrownoutController b(testConfig());
    feed(b, 0, 9, true);
    EXPECT_FALSE(b.active());
}

TEST(BrownoutTest, EntersUnderSustainedPressure)
{
    BrownoutController b(testConfig());
    feed(b, 0, 8, false);
    Tick t = feed(b, 8000, 1, true);
    EXPECT_FALSE(b.active());
    EXPECT_TRUE(b.record(t, true)); // 20% of 10 samples: engages
    EXPECT_TRUE(b.active());
    EXPECT_DOUBLE_EQ(b.sloMultiplier(), 2.0);
}

TEST(BrownoutTest, HoldsThroughEarlyRecovery)
{
    BrownoutController b(testConfig());
    Tick t = feed(b, 0, 10, true);
    ASSERT_TRUE(b.active());
    // Clean traffic inside the hold: stays browned out (hysteresis).
    feed(b, t, 20, false);
    EXPECT_FALSE(b.update(t + kTicksPerSec));
    EXPECT_TRUE(b.active());
}

TEST(BrownoutTest, ExitsAfterHoldWhenPressureClears)
{
    BrownoutController b(testConfig());
    feed(b, 0, 10, true);
    ASSERT_TRUE(b.active());
    // Past the hold with an empty (fully aged-out) window: rate 0.
    EXPECT_TRUE(b.update(5 * kTicksPerSec));
    EXPECT_FALSE(b.active());
    EXPECT_DOUBLE_EQ(b.sloMultiplier(), 1.0);
}

TEST(BrownoutTest, RelaxesOnlyWhileWindowIsHot)
{
    BrownoutController b(testConfig());
    Tick t = feed(b, 0, 10, true);
    ASSERT_TRUE(b.active());
    EXPECT_TRUE(b.relaxing(t));

    // Clean traffic inside the hold, spread wide enough to age the hot
    // samples out of the 1s window: still browned out, but the deadline
    // stretch reverts with the pressure.
    t = kTicksPerSec + kTicksPerSec / 10;
    for (int i = 0; i < 40; ++i, t += 20 * 1000)
        EXPECT_FALSE(b.record(t, false));
    EXPECT_TRUE(b.active());
    EXPECT_FALSE(b.relaxing(t));

    // Pressure returns inside the hold: the stretch re-engages without
    // a new entry.
    for (int i = 0; i < 40; ++i, t += 1000)
        EXPECT_FALSE(b.record(t, true));
    EXPECT_TRUE(b.active());
    EXPECT_TRUE(b.relaxing(t));
}

TEST(BrownoutTest, ReentersOnRenewedPressure)
{
    BrownoutController b(testConfig());
    feed(b, 0, 10, true);
    ASSERT_TRUE(b.update(5 * kTicksPerSec));
    ASSERT_FALSE(b.active());
    Tick t = feed(b, 6 * kTicksPerSec, 9, true);
    EXPECT_FALSE(b.active());
    EXPECT_TRUE(b.record(t, true)); // the second entry
    EXPECT_TRUE(b.active());
}

} // namespace
