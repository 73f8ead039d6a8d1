/**
 * @file
 * Deterministic unit tests for the circuit breaker state machine:
 * closed -> open on failure rate, open -> half-open after the
 * cool-down, half-open -> closed on probe successes or back to open on
 * a probe failure.
 */

#include <gtest/gtest.h>

#include "overload/circuit_breaker.hh"
#include "sim/time.hh"

namespace {

using infless::overload::BreakerConfig;
using infless::overload::BreakerState;
using infless::overload::CircuitBreaker;
using infless::overload::kHalfOpenSuccesses;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

BreakerConfig
testConfig()
{
    BreakerConfig cfg;
    cfg.enabled = true;
    cfg.window = kTicksPerSec;
    cfg.windowBuckets = 4;
    cfg.openThreshold = 0.5;
    cfg.minSamples = 10;
    cfg.openDuration = kTicksPerSec;
    cfg.probeFraction = 1.0; // every request is a probe while half-open
    return cfg;
}

/** Feed @p n outcomes at 1ms spacing starting at @p start. */
Tick
feed(CircuitBreaker &b, Tick start, int n, bool failure)
{
    for (int i = 0; i < n; ++i)
        b.record(start + i * 1000, failure);
    return start + n * 1000;
}

TEST(CircuitBreakerTest, DisabledAlwaysAllows)
{
    CircuitBreaker b; // default config: disabled
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(b.allow(i * 1000, i));
        EXPECT_FALSE(b.record(i * 1000, true)); // never a transition
    }
    EXPECT_EQ(b.state(), BreakerState::Closed);
}

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples)
{
    CircuitBreaker b(testConfig());
    feed(b, 0, 9, true); // all failures, but under minSamples
    EXPECT_EQ(b.state(), BreakerState::Closed);
}

TEST(CircuitBreakerTest, OpensAtFailureThreshold)
{
    CircuitBreaker b(testConfig());
    feed(b, 0, 5, false);
    Tick t = feed(b, 5000, 4, true);
    EXPECT_EQ(b.state(), BreakerState::Closed);
    // 50% over 10 samples: the 10th outcome trips it, and says so.
    EXPECT_TRUE(b.record(t, true));
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_FALSE(b.record(t + 1, true)); // open stays open
}

TEST(CircuitBreakerTest, ShedsWhileOpenUntilCooldown)
{
    CircuitBreaker b(testConfig());
    Tick t = feed(b, 0, 10, true);
    ASSERT_EQ(b.state(), BreakerState::Open);
    // Inside the cool-down every request is shed.
    EXPECT_FALSE(b.allow(t, 1));
    EXPECT_FALSE(b.allow(b.openedAt() + kTicksPerSec - 1, 2));
    EXPECT_EQ(b.state(), BreakerState::Open);
}

TEST(CircuitBreakerTest, HalfOpensAfterCooldownAndAdmitsProbes)
{
    CircuitBreaker b(testConfig());
    feed(b, 0, 10, true);
    Tick after = b.openedAt() + kTicksPerSec;
    // probeFraction 1.0: the first request after the cool-down both
    // advances to half-open and is admitted as a probe.
    EXPECT_TRUE(b.allow(after, 42));
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);
}

TEST(CircuitBreakerTest, ProbeSuccessesClose)
{
    CircuitBreaker b(testConfig());
    feed(b, 0, 10, true);
    Tick t = b.openedAt() + kTicksPerSec;
    EXPECT_TRUE(b.allow(t, 0));
    ASSERT_EQ(b.state(), BreakerState::HalfOpen);
    // Only the last of the kHalfOpenSuccesses probe successes is a
    // transition.
    for (int i = 0; i < kHalfOpenSuccesses - 1; ++i)
        EXPECT_FALSE(b.record(t + i, false));
    EXPECT_TRUE(b.record(t + kHalfOpenSuccesses - 1, false));
    EXPECT_EQ(b.state(), BreakerState::Closed);
}

TEST(CircuitBreakerTest, ProbeFailureReopens)
{
    CircuitBreaker b(testConfig());
    feed(b, 0, 10, true);
    Tick t = b.openedAt() + kTicksPerSec;
    EXPECT_TRUE(b.allow(t, 0));
    b.record(t, false);
    b.record(t + 1, true); // one bad probe sends it straight back
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.openedAt(), t + 1);
}

TEST(CircuitBreakerTest, ZeroProbeFractionAdmitsNothingHalfOpen)
{
    BreakerConfig cfg = testConfig();
    cfg.probeFraction = 0.0;
    CircuitBreaker b(cfg);
    feed(b, 0, 10, true);
    Tick t = b.openedAt() + kTicksPerSec;
    // Advances to half-open but the hash gate admits no request.
    EXPECT_FALSE(b.allow(t, 0));
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);
    EXPECT_FALSE(b.allow(t + 1, 1));
}

TEST(CircuitBreakerTest, ProbeSelectionIsDeterministic)
{
    BreakerConfig cfg = testConfig();
    cfg.probeFraction = 0.3;
    auto decisions = [&cfg] {
        CircuitBreaker b(cfg);
        feed(b, 0, 10, true);
        Tick t = b.openedAt() + kTicksPerSec;
        std::vector<bool> out;
        for (std::int64_t r = 0; r < 64; ++r)
            out.push_back(b.allow(t + r, r));
        return out;
    };
    auto a = decisions();
    auto c = decisions();
    EXPECT_EQ(a, c);
    // Roughly probeFraction of requests pass (hash sampling, not all or
    // nothing).
    int admitted = 0;
    for (bool x : a)
        admitted += x ? 1 : 0;
    EXPECT_GT(admitted, 0);
    EXPECT_LT(admitted, 64);
}

TEST(CircuitBreakerTest, RecoveredWindowStaysClosed)
{
    CircuitBreaker b(testConfig());
    feed(b, 0, 10, true);
    Tick t = b.openedAt() + kTicksPerSec;
    EXPECT_TRUE(b.allow(t, 0));
    for (int i = 0; i < kHalfOpenSuccesses; ++i)
        b.record(t + i, false);
    ASSERT_EQ(b.state(), BreakerState::Closed);
    // The pre-open failure window was reset on close: healthy traffic
    // keeps it closed even though the old failures would still be
    // inside the time window.
    feed(b, t + 10, 10, false);
    EXPECT_EQ(b.state(), BreakerState::Closed);
}

TEST(CircuitBreakerTest, FailedProbeCycleDoesNotWedge)
{
    // The full relapse cycle: open -> half-open -> probe fails ->
    // reopen -> second cooldown -> probes succeed -> closed. A breaker
    // that reopens on a bad probe must remain recoverable — the
    // reopened state is a fresh Open with a fresh cooldown, not a
    // terminal one.
    CircuitBreaker b(testConfig());
    feed(b, 0, 10, true);
    ASSERT_EQ(b.state(), BreakerState::Open);

    Tick t = b.openedAt() + kTicksPerSec;
    EXPECT_TRUE(b.allow(t, 0));
    EXPECT_TRUE(b.record(t, true)); // probe fails: relapse
    ASSERT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.openedAt(), t);

    // Still shedding through the second cooldown.
    EXPECT_FALSE(b.allow(t + kTicksPerSec - 1, 1));

    // Second recovery attempt succeeds: kHalfOpenSuccesses clean probes
    // close it for good.
    Tick t2 = t + kTicksPerSec;
    EXPECT_TRUE(b.allow(t2, 2));
    ASSERT_EQ(b.state(), BreakerState::HalfOpen);
    for (int i = 0; i < kHalfOpenSuccesses - 1; ++i)
        EXPECT_FALSE(b.record(t2 + i, false));
    EXPECT_TRUE(b.record(t2 + kHalfOpenSuccesses - 1, false));
    EXPECT_EQ(b.state(), BreakerState::Closed);
    // And it admits traffic again.
    EXPECT_TRUE(b.allow(t2 + 10, 3));
}

} // namespace
