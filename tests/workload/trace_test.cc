/**
 * @file
 * Unit tests for trace representations.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "sim/logging.hh"

#include "sim/rng.hh"
#include "workload/trace.hh"

namespace {

using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::Rng;
using infless::sim::Tick;
using infless::workload::ArrivalTrace;
using infless::workload::RateSeries;

/** FNV-1a over the little-endian bytes of every tick. */
std::uint64_t
tickDigest(const std::vector<Tick> &ticks)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (Tick t : ticks) {
        auto v = static_cast<std::uint64_t>(t);
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

RateSeries
series(Tick bin_width, std::vector<double> rps)
{
    RateSeries s;
    s.binWidth = bin_width;
    s.rps = std::move(rps);
    return s;
}

TEST(RateSeriesTest, RpsAtIndexesBins)
{
    RateSeries s;
    s.binWidth = kTicksPerMin;
    s.rps = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(s.rpsAt(0), 1.0);
    EXPECT_DOUBLE_EQ(s.rpsAt(kTicksPerMin), 2.0);
    EXPECT_DOUBLE_EQ(s.rpsAt(3 * kTicksPerMin), 0.0); // past the end
    EXPECT_DOUBLE_EQ(s.rpsAt(-5), 0.0);
}

TEST(RateSeriesTest, MeanAndPeak)
{
    RateSeries s;
    s.rps = {1.0, 3.0, 5.0};
    EXPECT_DOUBLE_EQ(s.meanRps(), 3.0);
    EXPECT_DOUBLE_EQ(s.peakRps(), 5.0);
}

TEST(RateSeriesTest, ScaledMultipliesEveryBin)
{
    RateSeries s;
    s.rps = {1.0, 2.0};
    RateSeries doubled = s.scaled(2.0);
    EXPECT_DOUBLE_EQ(doubled.rps[0], 2.0);
    EXPECT_DOUBLE_EQ(doubled.rps[1], 4.0);
    EXPECT_DOUBLE_EQ(s.rps[0], 1.0); // original untouched
}

TEST(RateSeriesTest, TruncatedKeepsPrefix)
{
    RateSeries s;
    s.binWidth = kTicksPerMin;
    s.rps = {1, 2, 3, 4, 5};
    RateSeries cut = s.truncated(2 * kTicksPerMin);
    EXPECT_EQ(cut.rps.size(), 2u);
    RateSeries over = s.truncated(100 * kTicksPerMin);
    EXPECT_EQ(over.rps.size(), 5u);
}

TEST(ArrivalTraceTest, FromRateSeriesMatchesExpectedCount)
{
    RateSeries s;
    s.binWidth = kTicksPerSec;
    s.rps.assign(600, 50.0); // 50 RPS for 10 minutes -> ~30,000 arrivals
    Rng rng(7);
    ArrivalTrace trace = ArrivalTrace::fromRateSeries(s, rng);
    EXPECT_NEAR(static_cast<double>(trace.size()), 30'000.0, 1000.0);
}

TEST(ArrivalTraceTest, ArrivalsAreSortedAndInRange)
{
    RateSeries s;
    s.binWidth = kTicksPerSec;
    s.rps.assign(10, 100.0);
    Rng rng(9);
    ArrivalTrace trace = ArrivalTrace::fromRateSeries(s, rng);
    Tick prev = 0;
    for (Tick t : trace.arrivals()) {
        EXPECT_GE(t, prev);
        EXPECT_LT(t, 10 * kTicksPerSec);
        prev = t;
    }
}

TEST(ArrivalTraceTest, ZeroRateBinsProduceNothing)
{
    RateSeries s;
    s.binWidth = kTicksPerSec;
    s.rps = {0.0, 0.0, 0.0};
    Rng rng(1);
    EXPECT_TRUE(ArrivalTrace::fromRateSeries(s, rng).empty());
    // A negative rate means no arrivals, as zero does.
    s.rps = {-1.0, -50.0};
    EXPECT_TRUE(ArrivalTrace::fromRateSeries(s, rng).empty());
}

TEST(ArrivalTraceTest, NonPositiveBinWidthPanics)
{
    for (Tick width : {Tick{0}, Tick{-5}}) {
        RateSeries s = series(width, {10.0, 20.0});
        Rng rng(1);
        EXPECT_THROW(ArrivalTrace::fromRateSeries(s, rng),
                     infless::sim::PanicError);
        EXPECT_THROW(s.rpsAt(kTicksPerSec), infless::sim::PanicError);
    }
}

TEST(ArrivalTraceTest, NonFiniteRatePanics)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (double bad : {std::nan(""), kInf, -kInf}) {
        Rng rng(1);
        EXPECT_THROW(ArrivalTrace::fromRateSeries(
                         series(kTicksPerSec, {10.0, bad, 10.0}), rng),
                     infless::sim::PanicError);
    }
}

TEST(ArrivalTraceTest, UnsortedConstructionPanics)
{
    EXPECT_THROW(ArrivalTrace(std::vector<Tick>{5, 3, 8}),
                 infless::sim::PanicError);
}

TEST(ArrivalTraceTest, DeterministicUnderSameSeed)
{
    RateSeries s;
    s.binWidth = kTicksPerSec;
    s.rps.assign(30, 20.0);
    Rng a(42), b(42);
    auto ta = ArrivalTrace::fromRateSeries(s, a);
    auto tb = ArrivalTrace::fromRateSeries(s, b);
    EXPECT_EQ(ta.arrivals(), tb.arrivals());
}

/**
 * Pins the exact ticks fromRateSeries draws: one Poisson count per bin,
 * then that many uniforms, in sorted order. The series cover the bin
 * widths the benches use (1 s, azure-2k's 6 s, RateSeries' default
 * minute), bins of a few and of hundreds of arrivals, zero and negative
 * rates, a power-of-two width, width 1 with sparse and with dense bins
 * (every arrival of a bin on one tick) and a single bin of more than
 * 65,536 arrivals.
 */
TEST(ArrivalTraceTest, FromRateSeriesGoldenDigest)
{
    struct Case
    {
        const char *name;
        RateSeries series;
        std::uint64_t seed;
        std::size_t count;
        std::uint64_t digest;
    };
    std::vector<double> mixed(40);
    for (std::size_t i = 0; i < mixed.size(); ++i)
        mixed[i] = i % 2 == 0 ? 150.0 : 600.0;
    const Case cases[] = {
        {"1s-150", series(kTicksPerSec, std::vector<double>(30, 150.0)), 1,
         4494, 0xa9fbac0a6d2e3eb1ULL},
        {"1s-600", series(kTicksPerSec, std::vector<double>(30, 600.0)), 2,
         17989, 0xd74109f61b90329cULL},
        {"1s-mixed", series(kTicksPerSec, mixed), 3, 15159,
         0x1171ae2718b6e42aULL},
        {"6s",
         series(6 * kTicksPerSec,
                {20.0, 75.5, 0.0, 120.0, 3.25, 48.0, 0.4, 99.9}),
         4, 2148, 0x35694d8c6e9717aeULL},
        {"60s-default",
         series(RateSeries{}.binWidth, {2.5, 40.0, 0.0, 17.75}), 5, 3701,
         0x591509f3b012f5d1ULL},
        {"zero-and-negative",
         series(kTicksPerSec, {0.0, 40.0, 0.0, 0.0, -3.0, 25.0, 0.0}), 6,
         62, 0x602c1c10bc03a246ULL},
        {"pow2-width", series(Tick{1} << 20, std::vector<double>(12, 310.0)),
         7, 3870, 0xd261676a1cd594efULL},
        {"width-1", series(1, std::vector<double>(2000, 2.5e6)), 8, 5055,
         0x7ddf72f40cd02f8aULL},
        {"width-1-dense", series(1, std::vector<double>(200, 6e7)), 10,
         11939, 0xe7b122c1ab0233ceULL},
        {"one-big-bin", series(kTicksPerMin, {1500.0}), 9, 89732,
         0x39474c6f9c4b4954ULL},
    };
    for (const Case &c : cases) {
        Rng rng(c.seed);
        ArrivalTrace trace = ArrivalTrace::fromRateSeries(c.series, rng);
        EXPECT_EQ(trace.size(), c.count) << c.name;
        EXPECT_EQ(tickDigest(trace.arrivals()), c.digest) << c.name;
    }
}

/** Sweeps synthesize workloads on worker threads; each call must keep its
 *  own sort scratch and give the serial result. */
TEST(ArrivalTraceTest, ConcurrentSynthesisMatchesSerial)
{
    constexpr std::size_t kSeries = 8;
    std::vector<RateSeries> inputs;
    for (std::size_t i = 0; i < kSeries; ++i) {
        Tick width = i % 2 == 0 ? kTicksPerSec : 6 * kTicksPerSec;
        std::vector<double> rps(20);
        for (std::size_t b = 0; b < rps.size(); ++b)
            rps[b] = 50.0 * static_cast<double>((i + b) % 5);
        inputs.push_back(series(width, rps));
    }
    std::vector<std::vector<Tick>> serial(kSeries);
    for (std::size_t i = 0; i < kSeries; ++i) {
        Rng rng(100 + i);
        serial[i] = ArrivalTrace::fromRateSeries(inputs[i], rng).arrivals();
    }
    std::vector<std::vector<Tick>> parallel(kSeries);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSeries; ++i) {
        threads.emplace_back([&, i] {
            Rng rng(100 + i);
            parallel[i] =
                ArrivalTrace::fromRateSeries(inputs[i], rng).arrivals();
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (std::size_t i = 0; i < kSeries; ++i) {
        EXPECT_FALSE(serial[i].empty()) << i;
        EXPECT_EQ(parallel[i], serial[i]) << i;
    }
}

} // namespace
