/**
 * @file
 * Memory bound of the idle-time histogram's shared sample log.
 */

#include <gtest/gtest.h>

#include "coldstart/histogram.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace {

using infless::coldstart::IdleTimeHistogram;
using infless::sim::kTicksPerHour;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

TEST(HistogramMemoryTest, PoissonSamplesCostAtMostFourBytes)
{
    // LSTH's windows under 300 rps Poisson invocations: the 24 h window
    // keeps every sample of a 90-minute run; the 1 h one trims.
    IdleTimeHistogram h({kTicksPerHour, 24 * kTicksPerHour});
    infless::sim::Rng rng(300);
    Tick now = 0;
    while (now < 90 * 60 * kTicksPerSec) {
        now += static_cast<Tick>(rng.exponential(300.0) * kTicksPerSec);
        h.recordInvocation(now);
    }
    ASSERT_GT(h.logSize(), 1'500'000u);
    EXPECT_EQ(h.logSize(), h.count(1));
    EXPECT_LE(h.heldBytes(), 4 * h.logSize());

    // Once both windows have passed every sample the log holds nothing.
    h.evict(now + 25 * kTicksPerHour);
    EXPECT_EQ(h.logSize(), 0u);
    EXPECT_EQ(h.heldBytes(), 0u);
}

} // namespace
