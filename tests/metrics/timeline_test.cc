/**
 * @file
 * Tests for the timeline sampler.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/logging.hh"

#include "metrics/timeline.hh"

namespace {

using infless::metrics::TimelineSampler;
using infless::sim::kTicksPerSec;
using infless::sim::Simulation;

TEST(TimelineTest, SamplesOnThePeriod)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    int counter = 0;
    sampler.track("counter", [&] { return static_cast<double>(counter); });
    sim.every(kTicksPerSec / 2, [&] { ++counter; }, 10 * kTicksPerSec);
    sim.runUntil(5 * kTicksPerSec);

    ASSERT_EQ(sampler.sampleCount(), 5u);
    EXPECT_EQ(sampler.times().front(), kTicksPerSec);
    // Same-tick ordering is insertion order: the sampler's t=1s event was
    // scheduled before the incrementer's, so it sees only the 0.5s tick.
    EXPECT_DOUBLE_EQ(sampler.series("counter")[0], 1.0);
    EXPECT_DOUBLE_EQ(sampler.series("counter")[4], 9.0);
}

TEST(TimelineTest, MultipleSeriesShareTimestamps)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    sampler.track("a", [] { return 1.0; });
    sampler.track("b", [] { return 2.0; });
    sim.runUntil(3 * kTicksPerSec);
    EXPECT_EQ(sampler.series("a").size(), sampler.times().size());
    EXPECT_EQ(sampler.series("b").size(), sampler.times().size());
    EXPECT_EQ(sampler.names(),
              (std::vector<std::string>{"a", "b"}));
}

TEST(TimelineTest, StopEndsSampling)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    sampler.track("x", [] { return 0.0; });
    sim.runUntil(2 * kTicksPerSec);
    sampler.stop();
    sim.runUntil(10 * kTicksPerSec);
    EXPECT_EQ(sampler.sampleCount(), 2u);
}

TEST(TimelineTest, CsvOutput)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    double v = 0.0;
    sampler.track("value", [&] { return v += 0.5; });
    sim.runUntil(2 * kTicksPerSec);
    std::ostringstream os;
    sampler.writeCsv(os);
    EXPECT_EQ(os.str(), "time_sec,value\n1,0.5\n2,1\n");
}

TEST(TimelineTest, CounterSeriesStoresDeltas)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    // A cumulative counter with a burst between samples 2 and 3: the
    // stored series must show the per-interval deltas (the burst as a
    // spike), not the monotone ramp.
    double cumulative = 0.0;
    sampler.trackCounter("drops", [&] { return cumulative; });
    sampler.track("raw", [&] { return cumulative; });
    sim.at(sim.now() + kTicksPerSec / 2, [&] { cumulative = 3.0; });
    sim.at(sim.now() + 2 * kTicksPerSec + kTicksPerSec / 2,
           [&] { cumulative = 10.0; });
    sim.runUntil(4 * kTicksPerSec);

    ASSERT_EQ(sampler.sampleCount(), 4u);
    EXPECT_EQ(sampler.series("drops"),
              (std::vector<double>{3.0, 0.0, 7.0, 0.0}));
    EXPECT_EQ(sampler.series("raw"),
              (std::vector<double>{3.0, 3.0, 10.0, 10.0}));
}

TEST(TimelineTest, CounterFirstIntervalIsDeltaFromZero)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    // A counter already past zero before the first sample: the first
    // interval reports the full cumulative value (delta from zero).
    double cumulative = 5.0;
    sampler.trackCounter("events", [&] { return cumulative; });
    sim.runUntil(kTicksPerSec);

    ASSERT_EQ(sampler.sampleCount(), 1u);
    EXPECT_EQ(sampler.series("events"), (std::vector<double>{5.0}));
}

TEST(TimelineTest, CounterResetRestartsTheRamp)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    // A counter that moves backwards (source reset): the sampler must
    // not record a negative delta; the new cumulative value restarts
    // the ramp.
    double cumulative = 5.0;
    sampler.trackCounter("resets", [&] { return cumulative; });
    sim.at(sim.now() + kTicksPerSec + kTicksPerSec / 2,
           [&] { cumulative = 2.0; });
    sim.runUntil(2 * kTicksPerSec);

    ASSERT_EQ(sampler.sampleCount(), 2u);
    EXPECT_EQ(sampler.series("resets"), (std::vector<double>{5.0, 2.0}));
}

TEST(TimelineTest, DuplicateCounterNamePanics)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    sampler.trackCounter("x", [] { return 0.0; });
    EXPECT_THROW(sampler.trackCounter("x", [] { return 0.0; }),
                 infless::sim::PanicError);
    // Mixed kinds collide on the same name too.
    EXPECT_THROW(sampler.track("x", [] { return 0.0; }),
                 infless::sim::PanicError);
}

TEST(TimelineTest, UnknownSeriesPanics)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    EXPECT_THROW(sampler.series("nope"), infless::sim::PanicError);
}

TEST(TimelineTest, DuplicateSeriesPanics)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    sampler.track("x", [] { return 0.0; });
    EXPECT_THROW(sampler.track("x", [] { return 0.0; }),
                 infless::sim::PanicError);
}

TEST(TimelineTest, TrackAfterSamplingPanics)
{
    Simulation sim;
    TimelineSampler sampler(sim, kTicksPerSec);
    sampler.track("x", [] { return 0.0; });
    sim.runUntil(kTicksPerSec);
    EXPECT_THROW(sampler.track("late", [] { return 0.0; }),
                 infless::sim::PanicError);
}

} // namespace
