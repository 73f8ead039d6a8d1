/**
 * @file
 * Tests for the failover retry policy (capped exponential backoff).
 */

#include <gtest/gtest.h>

#include <limits>

#include "faults/retry_policy.hh"

namespace {

using infless::faults::kInitialBackoff;
using infless::faults::kMaxBackoff;
using infless::faults::RetryPolicy;
using infless::sim::kTicksPerMs;
using infless::sim::kTicksPerSec;

TEST(RetryPolicyTest, DefaultsEnableRetries)
{
    RetryPolicy p;
    EXPECT_TRUE(p.retriesEnabled());
    EXPECT_EQ(p.maxAttempts, 3);
}

TEST(RetryPolicyTest, NoneDisablesRetries)
{
    RetryPolicy p = RetryPolicy::none();
    EXPECT_FALSE(p.retriesEnabled());
    EXPECT_EQ(p.maxAttempts, 1);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyUntilCap)
{
    EXPECT_EQ(RetryPolicy::backoff(1), kInitialBackoff);
    EXPECT_EQ(RetryPolicy::backoff(2), 20 * kTicksPerMs);
    EXPECT_EQ(RetryPolicy::backoff(3), 40 * kTicksPerMs);
    EXPECT_EQ(RetryPolicy::backoff(8), 1280 * kTicksPerMs);
    // 10ms * 2^8 = 2.56s: past the cap.
    EXPECT_EQ(RetryPolicy::backoff(9), kMaxBackoff);
    EXPECT_EQ(kMaxBackoff, 2 * kTicksPerSec);
    // Monotone non-decreasing throughout.
    for (int k = 1; k < 20; ++k)
        EXPECT_LE(RetryPolicy::backoff(k), RetryPolicy::backoff(k + 1));
}

TEST(RetryPolicyTest, BackoffNeverBelowOneTick)
{
    for (int k = 1; k < 64; ++k)
        EXPECT_GE(RetryPolicy::backoff(k), 1);
}

TEST(RetryPolicyTest, BackoffSaturatesInsteadOfOverflowing)
{
    // Doubling stops at the cap, so even a retry count whose raw
    // exponential would exceed Tick range returns the cap.
    EXPECT_EQ(RetryPolicy::backoff(200), kMaxBackoff);
    EXPECT_EQ(RetryPolicy::backoff(std::numeric_limits<int>::max()),
              kMaxBackoff);
}

} // namespace
