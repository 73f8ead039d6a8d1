/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

#include "metrics/stats.hh"

namespace {

using infless::metrics::LatencyHistogram;
using infless::metrics::TimeWeightedMean;
using infless::sim::kTicksPerMs;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

TEST(LatencyHistogramTest, EmptyReportsZeroes)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_EQ(h.percentile(50), 0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);
}

TEST(LatencyHistogramTest, MeanMinMaxExact)
{
    LatencyHistogram h;
    h.record(10 * kTicksPerMs);
    h.record(20 * kTicksPerMs);
    h.record(30 * kTicksPerMs);
    EXPECT_EQ(h.count(), 3);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0 * kTicksPerMs);
    EXPECT_EQ(h.min(), 10 * kTicksPerMs);
    EXPECT_EQ(h.max(), 30 * kTicksPerMs);
}

TEST(LatencyHistogramTest, PercentileWithinRelativeError)
{
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(i * kTicksPerMs);
    // p50 should be near 500ms with ~10% bucket error.
    auto p50 = static_cast<double>(h.percentile(50));
    EXPECT_NEAR(p50 / (500.0 * kTicksPerMs), 1.0, 0.12);
    auto p99 = static_cast<double>(h.percentile(99));
    EXPECT_NEAR(p99 / (990.0 * kTicksPerMs), 1.0, 0.12);
}

TEST(LatencyHistogramTest, PercentileBoundedByObservedMax)
{
    LatencyHistogram h;
    h.record(123);
    EXPECT_LE(h.percentile(100), 123);
}

TEST(LatencyHistogramTest, NegativeSamplesClampToZero)
{
    LatencyHistogram h;
    h.record(-50);
    EXPECT_EQ(h.count(), 1);
    EXPECT_EQ(h.min(), 0);
}

TEST(LatencyHistogramTest, OversizedSamplesClampToMax)
{
    LatencyHistogram h(1.1, kTicksPerSec);
    h.record(100 * kTicksPerSec);
    EXPECT_LE(h.max(), kTicksPerSec);
}

TEST(LatencyHistogramTest, MergeCombinesCounts)
{
    LatencyHistogram a, b;
    a.record(10 * kTicksPerMs);
    b.record(30 * kTicksPerMs);
    b.record(50 * kTicksPerMs);
    a.merge(b);
    EXPECT_EQ(a.count(), 3);
    EXPECT_EQ(a.min(), 10 * kTicksPerMs);
    EXPECT_EQ(a.max(), 50 * kTicksPerMs);
    EXPECT_DOUBLE_EQ(a.mean(), 30.0 * kTicksPerMs);
}

TEST(LatencyHistogramTest, BadGrowthRejected)
{
    EXPECT_THROW(LatencyHistogram(1.0), infless::sim::PanicError);
}

TEST(LatencyHistogramTest, MergeRejectsMismatchedParameters)
{
    // Equal bucket counts are not enough: (growth, max) must match or
    // the bins mean different things.
    LatencyHistogram a(1.1, kTicksPerSec);
    LatencyHistogram other_growth(1.2, kTicksPerSec);
    EXPECT_THROW(a.merge(other_growth), infless::sim::PanicError);
    LatencyHistogram other_max(1.1, 2 * kTicksPerSec);
    EXPECT_THROW(a.merge(other_max), infless::sim::PanicError);
}

TEST(LatencyHistogramTest, MergeRejectsMismatchedParametersWhenBothEmpty)
{
    // Neither side holds bucket storage yet; the parameters still decide.
    LatencyHistogram a(1.1, kTicksPerSec);
    LatencyHistogram other_growth(1.2, kTicksPerSec);
    EXPECT_THROW(a.merge(other_growth), infless::sim::PanicError);
    LatencyHistogram other_max(1.1, 2 * kTicksPerSec);
    EXPECT_THROW(a.merge(other_max), infless::sim::PanicError);
    EXPECT_EQ(a.count(), 0);
}

TEST(LatencyHistogramTest, NeverRecordedKeepsBucketLayout)
{
    // Bucket storage appears on the first sample, but the layout an
    // exporter iterates is there from construction.
    LatencyHistogram empty;
    LatencyHistogram recorded;
    recorded.record(7 * kTicksPerMs);
    ASSERT_EQ(empty.bucketCount(), recorded.bucketCount());
    EXPECT_EQ(empty.bucketCount(), 233u);
    for (std::size_t b = 0; b < empty.bucketCount(); ++b) {
        EXPECT_EQ(empty.bucketUpperBound(b), recorded.bucketUpperBound(b));
        EXPECT_EQ(empty.bucketSamples(b), 0);
    }
    for (double p : {0.0, 50.0, 99.0, 100.0})
        EXPECT_EQ(empty.percentile(p), 0);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    EXPECT_DOUBLE_EQ(empty.sum(), 0.0);
}

TEST(LatencyHistogramTest, MergeMatchesOneHistogramForEveryEmptyPairing)
{
    // Merging equals recording both sides' samples into one histogram,
    // whichever side has never seen a sample.
    const std::vector<Tick> some = {0, 3 * kTicksPerMs, 40 * kTicksPerMs,
                                    2 * infless::sim::kTicksPerHour};
    const std::vector<Tick> others = {kTicksPerMs, 40 * kTicksPerMs,
                                      900 * kTicksPerMs};
    const std::vector<Tick> none;
    for (const auto *left : {&none, &some}) {
        for (const auto *right : {&none, &others}) {
            LatencyHistogram a, b, expected;
            for (Tick v : *left) {
                a.record(v);
                expected.record(v);
            }
            for (Tick v : *right) {
                b.record(v);
                expected.record(v);
            }
            a.merge(b);
            SCOPED_TRACE(testing::Message()
                         << left->size() << " into " << right->size());
            EXPECT_EQ(a.count(), expected.count());
            EXPECT_DOUBLE_EQ(a.sum(), expected.sum());
            EXPECT_EQ(a.min(), expected.min());
            EXPECT_EQ(a.max(), expected.max());
            ASSERT_EQ(a.bucketCount(), expected.bucketCount());
            for (std::size_t k = 0; k < a.bucketCount(); ++k)
                EXPECT_EQ(a.bucketSamples(k), expected.bucketSamples(k))
                    << "bucket " << k;
        }
    }
}

TEST(LatencyHistogramTest, BucketAccessorsAreConsistent)
{
    LatencyHistogram h;
    h.record(10 * kTicksPerMs);
    h.record(20 * kTicksPerMs);
    h.record(20 * kTicksPerMs);

    std::int64_t total = 0;
    Tick prev_edge = 0;
    for (std::size_t b = 0; b < h.bucketCount(); ++b) {
        total += h.bucketSamples(b);
        EXPECT_GE(h.bucketUpperBound(b), prev_edge);
        prev_edge = h.bucketUpperBound(b);
    }
    EXPECT_EQ(total, h.count());
    EXPECT_DOUBLE_EQ(h.sum(), 50.0 * kTicksPerMs);
    // Every sample sits in a bucket whose upper edge covers it.
    EXPECT_GE(h.bucketUpperBound(h.bucketCount() - 1), h.max());
}

TEST(LatencyHistogramTest, QuantilesStayWithinRelativeBucketError)
{
    // Property pin of the class doc: geometric buckets bound the relative
    // quantile error. Growth 1.05 keeps estimates within ~5% of the exact
    // empirical quantile on a deterministic pseudo-random sample.
    LatencyHistogram h(1.05);
    std::vector<Tick> values;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        Tick v = 1 + static_cast<Tick>((x >> 33) % 1'000'000);
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
        auto target = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(values.size())));
        double exact = static_cast<double>(values[target - 1]);
        double approx = static_cast<double>(h.percentile(p));
        EXPECT_NEAR(approx / exact, 1.0, 0.06) << "p" << p;
    }
}

TEST(TimeWeightedMeanTest, ConstantSignal)
{
    TimeWeightedMean m;
    m.update(0, 5.0);
    EXPECT_DOUBLE_EQ(m.meanUntil(100), 5.0);
}

TEST(TimeWeightedMeanTest, StepSignal)
{
    TimeWeightedMean m;
    m.update(0, 0.0);
    m.update(50, 10.0);
    // 50 ticks at 0, 50 ticks at 10 -> mean 5.
    EXPECT_DOUBLE_EQ(m.meanUntil(100), 5.0);
}

TEST(TimeWeightedMeanTest, IntegralIncludesRunningSegment)
{
    TimeWeightedMean m;
    m.update(0, 2.0);
    m.update(10, 4.0);
    EXPECT_DOUBLE_EQ(m.integralUntil(10), 20.0);
    EXPECT_DOUBLE_EQ(m.integralUntil(20), 20.0 + 40.0);
}

TEST(TimeWeightedMeanTest, BeforeFirstUpdateIsZero)
{
    TimeWeightedMean m;
    EXPECT_DOUBLE_EQ(m.meanUntil(100), 0.0);
    EXPECT_DOUBLE_EQ(m.integralUntil(100), 0.0);
}

TEST(TimeWeightedMeanTest, LateStartExcludesEarlyWindow)
{
    TimeWeightedMean m;
    m.update(100, 10.0);
    // Mean is over [100, 200], not [0, 200].
    EXPECT_DOUBLE_EQ(m.meanUntil(200), 10.0);
}

TEST(TimeWeightedMeanTest, TimeGoingBackwardsPanics)
{
    TimeWeightedMean m;
    m.update(100, 1.0);
    EXPECT_THROW(m.update(50, 2.0), infless::sim::PanicError);
}

TEST(TimeWeightedMeanTest, CurrentReflectsLastValue)
{
    TimeWeightedMean m;
    m.update(0, 1.0);
    m.update(10, 7.5);
    EXPECT_DOUBLE_EQ(m.current(), 7.5);
}

TEST(TimeWeightedMeanTest, MergeSumsSignals)
{
    // Two shards tracking disjoint fleet slices: the merged signal is
    // their sum, integral and current value alike.
    TimeWeightedMean a;
    a.update(0, 2.0);
    a.update(50, 4.0); // integral 100 by t=50
    TimeWeightedMean b;
    b.update(0, 1.0); // integral 100 by t=100

    a.merge(b, 100);
    // a alone: 100 + 4*50 = 300; b alone: 100. Sum 400 over [0, 100].
    EXPECT_DOUBLE_EQ(a.integralUntil(100), 400.0);
    EXPECT_DOUBLE_EQ(a.meanUntil(100), 4.0);
    EXPECT_DOUBLE_EQ(a.current(), 5.0);
    // The merged signal keeps integrating the summed rate.
    EXPECT_DOUBLE_EQ(a.integralUntil(110), 450.0);
}

TEST(TimeWeightedMeanTest, MergeWithUnstartedShardIsIdentity)
{
    TimeWeightedMean a;
    a.update(0, 3.0);
    TimeWeightedMean empty;
    a.merge(empty, 100);
    EXPECT_DOUBLE_EQ(a.meanUntil(100), 3.0);

    // And merging INTO an unstarted shard adopts the other signal.
    TimeWeightedMean fresh;
    fresh.merge(a, 100);
    EXPECT_DOUBLE_EQ(fresh.integralUntil(100), a.integralUntil(100));
    EXPECT_DOUBLE_EQ(fresh.current(), 3.0);
}

TEST(TimeWeightedMeanTest, MergeOfLateStarterKeepsEarliestWindow)
{
    TimeWeightedMean a;
    a.update(100, 10.0);
    TimeWeightedMean b;
    b.update(0, 2.0);
    a.merge(b, 200);
    // Window opens at b's start: (10*100 + 2*200) / 200.
    EXPECT_DOUBLE_EQ(a.meanUntil(200), 7.0);
}

} // namespace
