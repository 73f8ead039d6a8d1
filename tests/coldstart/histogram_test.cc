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
    for (int i = 0; i < 10; ++i) {
        h.addSample(i * kTicksPerMin + kTicksPerMin / 2,
                    static_cast<Tick>(i));
    }
    EXPECT_EQ(h.percentile(10), 1 * kTicksPerMin);
    EXPECT_EQ(h.percentile(50), 5 * kTicksPerMin);
    EXPECT_EQ(h.percentile(100), 10 * kTicksPerMin);
}

TEST(HistogramTest, PercentileMonotoneInP)
{
    IdleTimeHistogram h({kTicksPerHour});
    for (int i = 1; i <= 100; ++i)
        h.addSample(i * kTicksPerMin / 3, i);
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
    h.addSample(kTicksPerMin, 0);
    h.addSample(2 * kTicksPerMin, 30 * kTicksPerMin);
    EXPECT_EQ(h.count(), 2u);
    // Observing at 70 min evicts the t=0 sample (outside 60-min window).
    h.evict(70 * kTicksPerMin);
    EXPECT_EQ(h.count(), 1u);
    // The remaining sample is the 2-minute gap (bin upper edge: 3 min).
    EXPECT_EQ(h.percentile(100), 3 * kTicksPerMin);
}

TEST(HistogramTest, OverflowSamplesLandInOverflowBin)
{
    IdleTimeHistogram h({24 * kTicksPerHour}, kTicksPerMin,
                        4 * kTicksPerHour);
    h.addSample(10 * kTicksPerHour, 0); // beyond the 4h range
    h.addSample(kTicksPerMin, 1);
    // Half the samples fit the range; the overflow half reports as the
    // range cap.
    EXPECT_EQ(h.percentile(50), 2 * kTicksPerMin);
    EXPECT_EQ(h.percentile(51), 4 * kTicksPerHour);
    EXPECT_EQ(h.percentile(100), 4 * kTicksPerHour);
}

TEST(HistogramTest, NegativeGapClampsToZeroBin)
{
    IdleTimeHistogram h({kTicksPerHour});
    h.addSample(-5, 0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.percentile(100), kTicksPerMin); // first bin upper edge
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
    for (int i = 0; i < 50; ++i)
        h.addSample(kTicksPerMin, i * kTicksPerMin);
    // Window is 10 minutes: at observation time 49 min, only samples
    // observed in (39, 49] survive.
    EXPECT_LE(h.count(), 11u);
    // All surviving samples are 1-minute gaps (bin upper edge: 2 min).
    EXPECT_EQ(h.percentile(100), 2 * kTicksPerMin);
}

TEST(HistogramTest, WindowsEvictIndependently)
{
    // Windows listed out of order: the log must trim behind the slowest
    // (24 h) whatever its position.
    IdleTimeHistogram h({24 * kTicksPerHour, kTicksPerHour});
    h.addSample(kTicksPerMin, 0);
    h.addSample(30 * kTicksPerMin, 90 * kTicksPerMin);
    h.evict(2 * kTicksPerHour);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.percentile(100, 0), 31 * kTicksPerMin);
    EXPECT_EQ(h.percentileLower(0, 1), 30 * kTicksPerMin);
    EXPECT_EQ(h.logSize(), 2u);
    h.evict(25 * kTicksPerHour);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 0u);
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

    // A 2.5-minute gap lands in the [2, 3) minute bin of both windows.
    h.addSample(5 * kTicksPerMin / 2, 11 * kTicksPerHour);
    for (std::size_t w : {0u, 1u}) {
        EXPECT_EQ(h.count(w), 1u);
        for (double p : {0.0, 50.0, 100.0}) {
            EXPECT_EQ(h.percentile(p, w), 3 * kTicksPerMin);
            EXPECT_EQ(h.percentileLower(p, w), 2 * kTicksPerMin);
        }
    }
    h.addSample(5 * kTicksPerHour, 11 * kTicksPerHour + 1); // overflow
    EXPECT_EQ(h.percentile(50, 1), 3 * kTicksPerMin);
    EXPECT_EQ(h.percentile(100, 1), 4 * kTicksPerHour);
    EXPECT_EQ(h.percentileLower(100, 1), 4 * kTicksPerHour);
    EXPECT_EQ(h.logSize(), 2u);

    // The 1 h window empties first, then the 4 h one.
    h.evict(12 * kTicksPerHour + 2);
    expect_empty(0);
    EXPECT_EQ(h.count(1), 2u);
    h.evict(16 * kTicksPerHour);
    expect_empty(0);
    expect_empty(1);
    EXPECT_EQ(h.logSize(), 0u);
    EXPECT_EQ(h.heldBytes(), 0u);

    // A sample after the full eviction reads as the first one did.
    h.addSample(5 * kTicksPerMin / 2, 16 * kTicksPerHour);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.percentile(50, 1), 3 * kTicksPerMin);
    EXPECT_EQ(h.percentileLower(50, 0), 2 * kTicksPerMin);
}

TEST(HistogramTest, BinCountMustFitUint16)
{
    // Bins 0..65535 (the last is the overflow bin) still fit.
    EXPECT_NO_THROW(IdleTimeHistogram({kTicksPerHour}, 1, 65534));
    EXPECT_THROW(IdleTimeHistogram({kTicksPerHour}, 1, 65535),
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
