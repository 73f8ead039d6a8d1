/**
 * @file
 * Unit tests for the keep-alive policies: fixed, HHP and LSTH.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "coldstart/fixed.hh"
#include "coldstart/hhp.hh"
#include "coldstart/lsth.hh"

namespace {

using infless::coldstart::FixedKeepAlive;
using infless::coldstart::HybridHistogramPolicy;
using infless::coldstart::KeepAliveDecision;
using infless::coldstart::LsthPolicy;
using infless::sim::kTicksPerHour;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

TEST(FixedKeepAliveTest, ConstantWindowsNoPrewarm)
{
    FixedKeepAlive policy(300 * kTicksPerSec);
    auto d = policy.decide(0);
    EXPECT_EQ(d.prewarmWindow, 0);
    EXPECT_EQ(d.keepAliveWindow, 300 * kTicksPerSec);
    // History-independent.
    policy.recordInvocation(kTicksPerHour);
    auto d2 = policy.decide(kTicksPerHour);
    EXPECT_EQ(d2.keepAliveWindow, d.keepAliveWindow);
}

TEST(FixedKeepAliveTest, DecisionCoversShortGapsOnly)
{
    FixedKeepAlive policy(300 * kTicksPerSec);
    auto d = policy.decide(0);
    EXPECT_TRUE(d.covers(100 * kTicksPerSec));
    EXPECT_FALSE(d.covers(301 * kTicksPerSec));
}

TEST(HhpTest, FallsBackConservativeWithoutHistory)
{
    HybridHistogramPolicy policy;
    auto d = policy.decide(0);
    EXPECT_EQ(d.prewarmWindow, 0);
    EXPECT_GE(d.keepAliveWindow, kTicksPerHour);
}

TEST(HhpTest, LearnsWindowsFromRegularGaps)
{
    HybridHistogramPolicy policy;
    // Invocations exactly every 10 minutes.
    for (int i = 0; i <= 20; ++i)
        policy.recordInvocation(static_cast<Tick>(i) * 10 * kTicksPerMin);
    auto d = policy.decide(20 * 10 * kTicksPerMin);
    // The 10-minute gap must be covered...
    EXPECT_TRUE(d.covers(10 * kTicksPerMin));
    // ...with a pre-warm window instead of keeping alive from t=0.
    EXPECT_GT(d.prewarmWindow, 5 * kTicksPerMin);
    // And the coverage ends soon after the expected gap.
    EXPECT_LT(d.warmEnd(), 20 * kTicksPerMin);
}

TEST(HhpTest, WindowsFromHeadTailAppliesMargins)
{
    auto d = HybridHistogramPolicy::windowsFrom(10 * kTicksPerMin,
                                                60 * kTicksPerMin, 0.15);
    // Floating-point rounding may land one tick either way.
    EXPECT_NEAR(static_cast<double>(d.prewarmWindow),
                10 * kTicksPerMin * 0.85, 2.0);
    EXPECT_NEAR(static_cast<double>(d.warmEnd()),
                60 * kTicksPerMin * 1.15, 2.0);
}

TEST(HhpTest, OverflowHeavyHistogramFallsBack)
{
    HybridHistogramPolicy policy;
    // Every gap is past the 4 h range, so each one overflows.
    for (int i = 0; i <= 20; ++i)
        policy.recordInvocation(static_cast<Tick>(i) * 5 * kTicksPerHour);
    auto d = policy.decide(20 * 5 * kTicksPerHour);
    // Unrepresentative -> conservative always-warm.
    EXPECT_EQ(d.prewarmWindow, 0);
    EXPECT_EQ(d.keepAliveWindow, infless::coldstart::kFallbackKeepAlive);
}

TEST(LsthTest, GammaZeroFollowsShortHistogram)
{
    LsthPolicy lsth(0.0);
    HybridHistogramPolicy hhp;
    // Feed both the same regular invocations within the short horizon,
    // so HHP's 4 h window holds exactly what LSTH's short one does.
    for (int i = 0; i <= 30; ++i) {
        Tick t = static_cast<Tick>(i) * kTicksPerMin;
        lsth.recordInvocation(t);
        hhp.recordInvocation(t);
    }
    auto a = lsth.decide(30 * kTicksPerMin);
    auto b = hhp.decide(30 * kTicksPerMin);
    EXPECT_EQ(a.prewarmWindow, b.prewarmWindow);
    EXPECT_EQ(a.keepAliveWindow, b.keepAliveWindow);
}

TEST(LsthTest, BlendsLongAndShortHorizons)
{
    // Regime change: long history of 30-minute gaps, then over an hour of
    // dense 1-minute gaps, so the short histogram sees only the dense
    // regime while the long histogram still remembers the sparse one.
    auto feed = [](LsthPolicy &policy) {
        Tick t = 0;
        for (int i = 0; i < 40; ++i) {
            t += 30 * kTicksPerMin;
            policy.recordInvocation(t);
        }
        for (int i = 0; i < 80; ++i) {
            t += kTicksPerMin;
            policy.recordInvocation(t);
        }
        return t;
    };
    auto with_gamma = [&](double gamma) {
        LsthPolicy policy(gamma);
        Tick t = feed(policy);
        return policy.decide(t);
    };
    auto short_only = with_gamma(0.0);
    auto blended = with_gamma(0.5);
    auto long_only = with_gamma(1.0);
    // The two horizons genuinely disagree...
    EXPECT_LT(short_only.warmEnd(), long_only.warmEnd());
    // ...and the gamma blend sits between them.
    EXPECT_GE(blended.warmEnd(), short_only.warmEnd());
    EXPECT_LE(blended.warmEnd(), long_only.warmEnd());
    EXPECT_LT(blended.warmEnd(), long_only.warmEnd());
    EXPECT_GT(blended.warmEnd(), short_only.warmEnd());
}

TEST(LsthTest, FallsBackWhenBothHistogramsCold)
{
    LsthPolicy policy;
    auto d = policy.decide(0);
    EXPECT_EQ(d.prewarmWindow, 0);
    EXPECT_GE(d.keepAliveWindow, kTicksPerHour);
}

TEST(LsthTest, UsesLongOnlyWhenShortIsEmpty)
{
    LsthPolicy policy;
    // All activity more than an hour ago.
    Tick t = 0;
    for (int i = 0; i < 20; ++i) {
        t += 10 * kTicksPerMin;
        policy.recordInvocation(t);
    }
    // Decide 2 hours later: short window evicted, long one alive.
    auto d = policy.decide(t + 2 * kTicksPerHour);
    EXPECT_EQ(policy.histogram().count(LsthPolicy::kShort), 0u);
    EXPECT_EQ(policy.histogram().count(LsthPolicy::kLong), 19u);
    EXPECT_TRUE(d.covers(10 * kTicksPerMin));
}

TEST(LsthTest, InvalidGammaRejected)
{
    EXPECT_THROW(LsthPolicy{1.5}, infless::sim::PanicError);
}

TEST(LsthTest, NameIncludesGamma)
{
    EXPECT_EQ(LsthPolicy(0.3).name(), "lsth(gamma=0.3)");
}

TEST(PolicyFactoryTest, FactoriesProduceFreshInstances)
{
    auto factory = LsthPolicy::factory();
    auto p1 = factory();
    auto p2 = factory();
    EXPECT_NE(p1.get(), p2.get());
    p1->recordInvocation(0);
    p1->recordInvocation(kTicksPerMin);
    // p2 must not share state with p1.
    auto fixed = FixedKeepAlive::factory(5 * kTicksPerSec)();
    EXPECT_EQ(fixed->decide(0).keepAliveWindow, 5 * kTicksPerSec);
}

} // namespace
