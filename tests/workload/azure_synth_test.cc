/**
 * @file
 * Tests for the Azure-style trace synthesizer: the three patterns must
 * exhibit the statistical structure the paper's Fig. 9/10 describe.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "workload/azure_synth.hh"

namespace {

using infless::sim::kTicksPerHour;
using infless::sim::kTicksPerMin;
using infless::workload::RateSeries;
using infless::workload::synthesizeTrace;
using infless::workload::TracePattern;
using infless::workload::tracePatternName;

TEST(AzureSynthTest, PatternNames)
{
    EXPECT_STREQ(tracePatternName(TracePattern::Sporadic), "sporadic");
    EXPECT_STREQ(tracePatternName(TracePattern::Periodic), "periodic");
    EXPECT_STREQ(tracePatternName(TracePattern::Bursty), "bursty");
}

TEST(AzureSynthTest, MeanRateIsNormalizedAcrossPatterns)
{
    for (auto pattern : infless::workload::kAllPatterns) {
        RateSeries s = synthesizeTrace(pattern, 10.0, 2.0, 7);
        EXPECT_NEAR(s.meanRps(), 10.0, 1e-6) << tracePatternName(pattern);
    }
}

TEST(AzureSynthTest, DurationMatchesDays)
{
    RateSeries s = synthesizeTrace(TracePattern::Periodic, 5.0, 3.0, 1);
    EXPECT_EQ(s.duration(), 3 * 24 * kTicksPerHour);
}

TEST(AzureSynthTest, RatesAreNonNegative)
{
    for (auto pattern : infless::workload::kAllPatterns) {
        RateSeries s = synthesizeTrace(pattern, 20.0, 1.0, 3);
        for (double r : s.rps)
            EXPECT_GE(r, 0.0);
    }
}

TEST(AzureSynthTest, PeriodicShowsDiurnalSwing)
{
    RateSeries s = synthesizeTrace(TracePattern::Periodic, 10.0, 2.0, 5);
    // Peak-to-trough ratio reflects the default 0.6 amplitude.
    double peak = s.peakRps();
    double trough = *std::min_element(s.rps.begin(), s.rps.end());
    EXPECT_GT(peak / std::max(trough, 0.1), 2.0);
}

TEST(AzureSynthTest, PeriodicRepeatsAcrossDays)
{
    RateSeries s = synthesizeTrace(TracePattern::Periodic, 10.0, 2.0, 5);
    // Same minute on consecutive days should be within noise of each
    // other: correlation of day 1 and day 2 is high.
    std::size_t day = 24 * 60;
    ASSERT_GE(s.rps.size(), 2 * day);
    double num = 0.0, d1 = 0.0, d2 = 0.0;
    double m1 = 0.0, m2 = 0.0;
    for (std::size_t i = 0; i < day; ++i) {
        m1 += s.rps[i];
        m2 += s.rps[day + i];
    }
    m1 /= static_cast<double>(day);
    m2 /= static_cast<double>(day);
    for (std::size_t i = 0; i < day; ++i) {
        double a = s.rps[i] - m1;
        double b = s.rps[day + i] - m2;
        num += a * b;
        d1 += a * a;
        d2 += b * b;
    }
    double corr = num / std::sqrt(d1 * d2);
    EXPECT_GT(corr, 0.9);
}

TEST(AzureSynthTest, BurstyHasHigherPeakToMeanThanPeriodic)
{
    RateSeries periodic =
        synthesizeTrace(TracePattern::Periodic, 10.0, 3.0, 11);
    RateSeries bursty = synthesizeTrace(TracePattern::Bursty, 10.0, 3.0, 11);
    EXPECT_GT(bursty.peakRps() / bursty.meanRps(),
              periodic.peakRps() / periodic.meanRps());
}

TEST(AzureSynthTest, SporadicIsMostlyIdle)
{
    RateSeries s = synthesizeTrace(TracePattern::Sporadic, 2.0, 3.0, 13);
    std::size_t idle_bins = 0;
    for (double r : s.rps)
        idle_bins += r == 0.0 ? 1 : 0;
    double idle_fraction =
        static_cast<double>(idle_bins) / static_cast<double>(s.rps.size());
    EXPECT_GT(idle_fraction, 0.6);
}

TEST(AzureSynthTest, SporadicHasLongIdleGaps)
{
    RateSeries s = synthesizeTrace(TracePattern::Sporadic, 2.0, 3.0, 17);
    // Find the longest run of zero bins; should exceed half an hour.
    std::size_t best = 0, current = 0;
    for (double r : s.rps) {
        current = r == 0.0 ? current + 1 : 0;
        best = std::max(best, current);
    }
    EXPECT_GT(best * kTicksPerMin, kTicksPerHour / 2);
}

TEST(AzureSynthTest, DeterministicPerSeed)
{
    RateSeries a = synthesizeTrace(TracePattern::Bursty, 10.0, 1.0, 99);
    RateSeries b = synthesizeTrace(TracePattern::Bursty, 10.0, 1.0, 99);
    EXPECT_EQ(a.rps, b.rps);
    RateSeries c = synthesizeTrace(TracePattern::Bursty, 10.0, 1.0, 100);
    EXPECT_NE(a.rps, c.rps);
}

} // namespace
