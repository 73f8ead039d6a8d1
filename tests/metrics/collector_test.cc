/**
 * @file
 * Unit tests for the run-metrics collector.
 */

#include <gtest/gtest.h>

#include "cluster/resources.hh"
#include "metrics/collector.hh"

namespace {

using infless::cluster::Resources;
using infless::metrics::Counter;
using infless::metrics::LatencyBreakdown;
using infless::metrics::RunMetrics;
using infless::sim::kTicksPerMs;
using infless::sim::kTicksPerSec;

TEST(RunMetricsTest, CompletionAndViolationCounting)
{
    RunMetrics m;
    m.add(Counter::Arrivals, 2);
    LatencyBreakdown ok{0, 10 * kTicksPerMs, 20 * kTicksPerMs};
    LatencyBreakdown late{0, 150 * kTicksPerMs, 100 * kTicksPerMs};
    m.recordCompletion(1, ok, 200 * kTicksPerMs);
    m.recordCompletion(2, late, 200 * kTicksPerMs);
    EXPECT_EQ(m.completions(), 2);
    EXPECT_EQ(m.sloViolations(), 1);
    EXPECT_DOUBLE_EQ(m.sloViolationRate(), 0.5);
}

TEST(RunMetricsTest, DropsCountAsViolations)
{
    RunMetrics m;
    LatencyBreakdown ok{0, 1, 1};
    m.recordCompletion(1, ok, kTicksPerSec);
    m.add(Counter::Drops);
    EXPECT_DOUBLE_EQ(m.sloViolationRate(), 0.5);
}

TEST(RunMetricsTest, ZeroSloDisablesViolationAccounting)
{
    RunMetrics m;
    LatencyBreakdown slow{0, kTicksPerSec, kTicksPerSec};
    m.recordCompletion(1, slow, 0);
    EXPECT_EQ(m.sloViolations(), 0);
}

TEST(RunMetricsTest, ColdLaunchRate)
{
    RunMetrics m;
    m.add(Counter::ColdLaunches);
    m.add(Counter::WarmLaunches, 3);
    EXPECT_EQ(m.launches(), 4);
    EXPECT_DOUBLE_EQ(m.coldLaunchRate(), 0.25);
}

TEST(RunMetricsTest, BatchFillAveraging)
{
    RunMetrics m;
    m.recordBatch(8);
    m.recordBatch(4);
    m.recordBatch(6);
    EXPECT_EQ(m.batches(), 3);
    EXPECT_DOUBLE_EQ(m.meanBatchFill(), 6.0);
}

TEST(RunMetricsTest, ThroughputRps)
{
    RunMetrics m;
    LatencyBreakdown parts{0, 1, 1};
    for (int i = 0; i < 500; ++i)
        m.recordCompletion(i, parts, 0);
    EXPECT_DOUBLE_EQ(m.throughputRps(10 * kTicksPerSec), 50.0);
    EXPECT_DOUBLE_EQ(m.throughputRps(0), 0.0);
}

TEST(RunMetricsTest, ResourceIntegrals)
{
    RunMetrics m;
    m.recordAllocation(0, Resources{2000, 50, 2048});
    m.recordAllocation(5 * kTicksPerSec, Resources{4000, 100, 4096});
    // 5s at 2 cores + 5s at 4 cores = 30 core-seconds.
    EXPECT_DOUBLE_EQ(m.cpuCoreSeconds(10 * kTicksPerSec), 30.0);
    // 5s at 0.5 GPU + 5s at 1.0 GPU = 7.5 device-seconds.
    EXPECT_DOUBLE_EQ(m.gpuDeviceSeconds(10 * kTicksPerSec), 7.5);
    EXPECT_DOUBLE_EQ(m.meanCpuCores(10 * kTicksPerSec), 3.0);
    // Memory: 5s at 2 GB + 5s at 4 GB = 30 GB-seconds.
    EXPECT_DOUBLE_EQ(m.memoryGbSeconds(10 * kTicksPerSec), 30.0);
}

TEST(RunMetricsTest, ThroughputPerResource)
{
    RunMetrics m;
    LatencyBreakdown parts{0, 1, 1};
    for (int i = 0; i < 100; ++i)
        m.recordCompletion(i, parts, 0);
    m.recordAllocation(0, Resources{0, 100, 0}); // one full GPU
    // 100 completions over 10 GPU-seconds -> 10 per weighted-second.
    double tpr = m.throughputPerResource(10 * kTicksPerSec, 0.003);
    EXPECT_NEAR(tpr, 10.0, 1e-9);
}

TEST(RunMetricsTest, MergeCountersAggregates)
{
    RunMetrics a, b;
    a.add(Counter::Arrivals);
    a.recordCompletion(1, LatencyBreakdown{0, 1, 1}, 0);
    b.add(Counter::Arrivals);
    b.add(Counter::Drops);
    b.add(Counter::ColdLaunches);
    b.recordBatch(4);
    a.mergeShard(b, 1);
    EXPECT_EQ(a.arrivals(), 2);
    EXPECT_EQ(a.completions(), 1);
    EXPECT_EQ(a.drops(), 1);
    EXPECT_EQ(a.coldLaunches(), 1);
    EXPECT_EQ(a.batches(), 1);
}

TEST(RunMetricsTest, LatencyBreakdownHistogramsFill)
{
    RunMetrics m;
    LatencyBreakdown parts{5 * kTicksPerMs, 10 * kTicksPerMs,
                           20 * kTicksPerMs};
    m.recordCompletion(1, parts, 0);
    EXPECT_EQ(m.coldTime().count(), 1);
    EXPECT_EQ(m.queueTime().count(), 1);
    EXPECT_EQ(m.execTime().count(), 1);
    EXPECT_DOUBLE_EQ(m.latency().mean(), 35.0 * kTicksPerMs);
}

TEST(LatencyBreakdownTest, TotalSumsParts)
{
    LatencyBreakdown parts{1, 2, 3};
    EXPECT_EQ(parts.total(), 6);
}

} // namespace
