/**
 * @file
 * Unit tests for the sliding-window idle-time histogram.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "coldstart/histogram.hh"

namespace {

using infless::coldstart::IdleTimeHistogram;
using infless::sim::kTicksPerHour;
using infless::sim::kTicksPerMin;
using infless::sim::Tick;

TEST(HistogramTest, EmptyHistogramReportsZero)
{
    IdleTimeHistogram h({kTicksPerHour});
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0);
}

TEST(HistogramTest, RecordInvocationDerivesGaps)
{
    IdleTimeHistogram h({kTicksPerHour});
    h.recordInvocation(0);
    EXPECT_EQ(h.count(), 0u); // first invocation has no gap
    h.recordInvocation(5 * kTicksPerMin);
    EXPECT_EQ(h.count(), 1u);
    h.recordInvocation(7 * kTicksPerMin);
    EXPECT_EQ(h.count(), 2u);
}

TEST(HistogramTest, PercentilesUseBinUpperEdges)
{
    IdleTimeHistogram h({kTicksPerHour});
    // Gaps of 0.5, 1.5, 2.5 ... 9.5 minutes.
    Tick now = 0;
    h.recordInvocation(now);
    for (int i = 0; i < 10; ++i) {
        now += i * kTicksPerMin + kTicksPerMin / 2;
        h.recordInvocation(now);
    }
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.percentile(10), 1 * kTicksPerMin);
    EXPECT_EQ(h.percentile(50), 5 * kTicksPerMin);
    EXPECT_EQ(h.percentile(100), 10 * kTicksPerMin);
}

TEST(HistogramTest, PercentileMonotoneInP)
{
    // Gaps of 20 s, 40 s ... 2000 s, all inside the window.
    IdleTimeHistogram h({48 * kTicksPerHour});
    Tick now = 0;
    h.recordInvocation(now);
    for (int i = 1; i <= 100; ++i) {
        now += i * kTicksPerMin / 3;
        h.recordInvocation(now);
    }
    EXPECT_EQ(h.count(), 100u);
    Tick prev = 0;
    for (double p : {5.0, 25.0, 50.0, 75.0, 95.0, 99.0}) {
        Tick v = h.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(HistogramTest, WindowEvictsOldSamples)
{
    IdleTimeHistogram h({kTicksPerHour});
    h.recordInvocation(0);
    h.recordInvocation(kTicksPerMin);      // a 1-minute gap
    h.recordInvocation(31 * kTicksPerMin); // a 30-minute gap
    EXPECT_EQ(h.count(), 2u);
    // Observing at 62 min evicts the 1 min sample (outside 60-min window).
    h.evict(62 * kTicksPerMin);
    EXPECT_EQ(h.count(), 1u);
    // The remaining sample is the 30-minute gap (bin upper edge: 31 min).
    EXPECT_EQ(h.percentile(100), 31 * kTicksPerMin);
    EXPECT_EQ(h.percentileLower(0), 30 * kTicksPerMin);
}

TEST(HistogramTest, OverflowSamplesLandInOverflowBin)
{
    IdleTimeHistogram h({24 * kTicksPerHour});
    h.recordInvocation(0);
    h.recordInvocation(10 * kTicksPerHour); // beyond the 4h range
    h.recordInvocation(10 * kTicksPerHour + kTicksPerMin);
    // Half the samples fit the range; the overflow half reports as the
    // range cap.
    EXPECT_EQ(h.percentile(50), 2 * kTicksPerMin);
    EXPECT_EQ(h.percentile(51), 4 * kTicksPerHour);
    EXPECT_EQ(h.percentile(100), 4 * kTicksPerHour);
}

TEST(HistogramTest, BadPercentilePanics)
{
    IdleTimeHistogram h({kTicksPerHour});
    EXPECT_THROW(h.percentile(-1), infless::sim::PanicError);
    EXPECT_THROW(h.percentile(101), infless::sim::PanicError);
}

TEST(HistogramTest, EvictionKeepsBinCountsConsistent)
{
    IdleTimeHistogram h({10 * kTicksPerMin});
    for (int i = 0; i <= 50; ++i)
        h.recordInvocation(i * kTicksPerMin);
    // Window is 10 minutes: at observation time 50 min, only samples
    // observed in [40, 50] survive.
    EXPECT_EQ(h.count(), 11u);
    // All surviving samples are 1-minute gaps (bin upper edge: 2 min).
    EXPECT_EQ(h.percentile(100), 2 * kTicksPerMin);
}

TEST(HistogramTest, WindowsEvictIndependently)
{
    // Windows listed out of order: the log must trim behind the slowest
    // (24 h) whatever its position.
    IdleTimeHistogram h({24 * kTicksPerHour, kTicksPerHour});
    h.recordInvocation(0);
    h.recordInvocation(kTicksPerMin);      // a 1-minute gap
    h.recordInvocation(31 * kTicksPerMin); // a 30-minute gap
    h.evict(90 * kTicksPerMin);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.percentile(100, 0), 31 * kTicksPerMin);
    EXPECT_EQ(h.percentileLower(0, 0), kTicksPerMin);
    EXPECT_EQ(h.percentileLower(0, 1), 30 * kTicksPerMin);
    EXPECT_EQ(h.logSize(), 2u);
    h.evict(24 * kTicksPerHour + 30 * kTicksPerMin);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 0u);
    EXPECT_EQ(h.percentileLower(0, 0), 30 * kTicksPerMin);
    EXPECT_EQ(h.logSize(), 1u);
    h.evict(48 * kTicksPerHour);
    EXPECT_EQ(h.count(0), 0u);
    EXPECT_EQ(h.logSize(), 0u);
    EXPECT_EQ(h.percentile(50, 0), 0);
}

TEST(HistogramTest, LogHoldsOnlyWhatTheSlowestWindowKeeps)
{
    IdleTimeHistogram h({kTicksPerHour, 4 * kTicksPerHour});
    for (int i = 0; i <= 24 * 60; ++i)
        h.recordInvocation(i * kTicksPerMin);
    // The 4 h window keeps 241 one-minute samples; nothing older stays.
    EXPECT_EQ(h.count(1), 241u);
    EXPECT_EQ(h.count(0), 61u);
    EXPECT_EQ(h.logSize(), h.count(1));
}

TEST(HistogramTest, QueriesAcrossFirstSampleAndFullEviction)
{
    // A window's bins appear on its first sample. Every query reads the
    // same before that, after it, and once eviction empties the windows.
    IdleTimeHistogram h({kTicksPerHour, 4 * kTicksPerHour});
    auto expect_empty = [&h](std::size_t w) {
        EXPECT_EQ(h.count(w), 0u);
        for (double p : {0.0, 50.0, 100.0}) {
            EXPECT_EQ(h.percentile(p, w), 0);
            EXPECT_EQ(h.percentileLower(p, w), 0);
        }
    };
    expect_empty(0);
    expect_empty(1);
    h.evict(10 * kTicksPerHour);
    expect_empty(0);
    expect_empty(1);
    EXPECT_EQ(h.logSize(), 0u);
    EXPECT_EQ(h.heldBytes(), 0u);
    EXPECT_THROW(h.percentile(101), infless::sim::PanicError);

    // The first invocation holds no sample.
    h.recordInvocation(11 * kTicksPerHour - 5 * kTicksPerMin / 2);
    expect_empty(0);
    expect_empty(1);
    // A 2.5-minute gap lands in the [2, 3) minute bin of both windows.
    h.recordInvocation(11 * kTicksPerHour);
    for (std::size_t w : {0u, 1u}) {
        EXPECT_EQ(h.count(w), 1u);
        for (double p : {0.0, 50.0, 100.0}) {
            EXPECT_EQ(h.percentile(p, w), 3 * kTicksPerMin);
            EXPECT_EQ(h.percentileLower(p, w), 2 * kTicksPerMin);
        }
    }
    // A 5 h gap overflows the 4 h range. Both windows drop the first
    // sample when it arrives.
    const Tick later = 16 * kTicksPerHour;
    h.recordInvocation(later);
    for (std::size_t w : {0u, 1u}) {
        EXPECT_EQ(h.count(w), 1u);
        EXPECT_EQ(h.percentile(0, w), 4 * kTicksPerHour);
        EXPECT_EQ(h.percentileLower(0, w), 4 * kTicksPerHour);
    }
    const Tick last = later + 5 * kTicksPerMin / 2;
    h.recordInvocation(last);
    EXPECT_EQ(h.percentile(50, 1), 3 * kTicksPerMin);
    EXPECT_EQ(h.percentile(100, 1), 4 * kTicksPerHour);
    EXPECT_EQ(h.percentileLower(100, 1), 4 * kTicksPerHour);
    EXPECT_EQ(h.percentileLower(50, 0), 2 * kTicksPerMin);
    EXPECT_EQ(h.logSize(), 2u);

    // The 1 h window drops the overflow gap, then empties; the 4 h one
    // empties last.
    h.evict(last + kTicksPerHour - 1);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.percentile(100, 0), 3 * kTicksPerMin);
    h.evict(last + kTicksPerHour + 1);
    expect_empty(0);
    EXPECT_EQ(h.count(1), 2u);
    h.evict(last + 4 * kTicksPerHour + 1);
    expect_empty(0);
    expect_empty(1);
    EXPECT_EQ(h.logSize(), 0u);
    EXPECT_EQ(h.heldBytes(), 0u);

    // After the full eviction the next gap still runs from the last
    // invocation, which no window holds any more: 4 h 55 min overflows.
    const Tick again = last + 5 * kTicksPerHour - 5 * kTicksPerMin;
    h.recordInvocation(again);
    h.recordInvocation(again + 5 * kTicksPerMin / 2);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.percentile(50, 1), 3 * kTicksPerMin);
    EXPECT_EQ(h.percentile(100, 1), 4 * kTicksPerHour);
    EXPECT_EQ(h.percentileLower(50, 0), 2 * kTicksPerMin);
    h.evict(again + 5 * kTicksPerHour);
    expect_empty(0);
    expect_empty(1);
    EXPECT_EQ(h.heldBytes(), 0u);
}

TEST(HistogramTest, BackwardInvocationPanics)
{
    IdleTimeHistogram h({kTicksPerHour});
    h.recordInvocation(10 * kTicksPerMin);
    h.recordInvocation(10 * kTicksPerMin); // a same-tick burst is fine
    EXPECT_EQ(h.count(), 1u);
    EXPECT_THROW(h.recordInvocation(9 * kTicksPerMin),
                 infless::sim::PanicError);
    EXPECT_THROW(IdleTimeHistogram({kTicksPerHour}).recordInvocation(-1),
                 infless::sim::PanicError);
}

TEST(HistogramTest, BadWindowsPanic)
{
    EXPECT_THROW(IdleTimeHistogram({}), infless::sim::PanicError);
    EXPECT_THROW(IdleTimeHistogram({kTicksPerHour, 0}),
                 infless::sim::PanicError);
    IdleTimeHistogram h({kTicksPerHour});
    EXPECT_THROW(h.count(1), infless::sim::PanicError);
}

} // namespace
