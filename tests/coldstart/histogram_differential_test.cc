/**
 * @file
 * Differential test: the multi-window shared-log IdleTimeHistogram
 * against one independent per-sample deque histogram per window (the
 * single-window design it replaced, kept here as the reference).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "coldstart/histogram.hh"

namespace {

using infless::coldstart::IdleTimeHistogram;
using infless::sim::kTicksPerHour;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerMs;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

/** One window, one deque entry per sample. */
class ReferenceHistogram
{
  public:
    ReferenceHistogram(Tick window, Tick bin_width, Tick range)
        : window_(window), binWidth_(bin_width), range_(range),
          bins_(static_cast<std::size_t>(range / bin_width) + 2, 0)
    {
    }

    void recordInvocation(Tick now)
    {
        if (lastInvocation_ >= 0 && now >= lastInvocation_)
            addSample(now - lastInvocation_, now);
        lastInvocation_ = now;
    }

    void addSample(Tick gap, Tick now)
    {
        evict(now);
        std::size_t bin = binOf(gap);
        samples_.push_back(Sample{now, bin});
        ++bins_[bin];
        ++total_;
    }

    void evict(Tick now)
    {
        Tick cutoff = now - window_;
        while (!samples_.empty() && samples_.front().observedAt < cutoff) {
            --bins_[samples_.front().bin];
            --total_;
            samples_.pop_front();
        }
    }

    std::size_t count() const { return samples_.size(); }

    Tick percentile(double p) const
    {
        if (total_ == 0)
            return 0;
        std::size_t bin = percentileBin(p);
        if (bin == bins_.size() - 1)
            return range_;
        return static_cast<Tick>(bin + 1) * binWidth_;
    }

    Tick percentileLower(double p) const
    {
        if (total_ == 0)
            return 0;
        std::size_t bin = percentileBin(p);
        if (bin == bins_.size() - 1)
            return range_;
        return static_cast<Tick>(bin) * binWidth_;
    }

  private:
    struct Sample
    {
        Tick observedAt;
        std::size_t bin;
    };

    std::size_t binOf(Tick gap) const
    {
        if (gap < 0)
            gap = 0;
        auto bin = static_cast<std::size_t>(gap / binWidth_);
        return std::min(bin, bins_.size() - 1);
    }

    std::size_t percentileBin(double p) const
    {
        auto target = static_cast<std::int64_t>(
            std::ceil(p / 100.0 * static_cast<double>(total_)));
        target = std::max<std::int64_t>(1, target);
        std::int64_t seen = 0;
        for (std::size_t bin = 0; bin < bins_.size(); ++bin) {
            seen += bins_[bin];
            if (seen >= target)
                return bin;
        }
        return bins_.size() - 1;
    }

    Tick window_;
    Tick binWidth_;
    Tick range_;
    Tick lastInvocation_ = -1;
    std::deque<Sample> samples_;
    std::vector<std::int64_t> bins_;
    std::int64_t total_ = 0;
};

/** The shared-log histogram next to one reference per window. */
struct Pair
{
    IdleTimeHistogram multi;
    std::vector<ReferenceHistogram> refs;

    Pair(const std::vector<Tick> &windows, Tick bin_width, Tick range)
        : multi(windows, bin_width, range)
    {
        for (Tick w : windows)
            refs.emplace_back(w, bin_width, range);
    }

    void recordInvocation(Tick now)
    {
        multi.recordInvocation(now);
        for (auto &r : refs)
            r.recordInvocation(now);
    }

    void addSample(Tick gap, Tick now)
    {
        multi.addSample(gap, now);
        for (auto &r : refs)
            r.addSample(gap, now);
    }

    /** Evict at @p now, then compare every query on every window. */
    void query(Tick now)
    {
        multi.evict(now);
        std::size_t largest = 0;
        for (std::size_t w = 0; w < refs.size(); ++w) {
            ReferenceHistogram &ref = refs[w];
            ref.evict(now);
            ASSERT_EQ(multi.count(w), ref.count()) << "window " << w;
            for (double p : {0.0, 1.0, 5.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
                ASSERT_EQ(multi.percentile(p, w), ref.percentile(p))
                    << "window " << w << " p" << p;
                ASSERT_EQ(multi.percentileLower(p, w),
                          ref.percentileLower(p))
                    << "window " << w << " p" << p;
            }
            largest = std::max(largest, ref.count());
        }
        // Memory bound: the log holds exactly the slowest window.
        ASSERT_EQ(multi.logSize(), largest);
    }
};

/** Next inter-invocation gap: bursts, zero gaps, and idle stretches
 *  longer than every window. */
Tick
nextGap(std::mt19937_64 &rng)
{
    std::uniform_int_distribution<int> kind(0, 99);
    int k = kind(rng);
    if (k < 10)
        return 0; // same-tick invocations
    if (k < 45) {
        std::uniform_int_distribution<Tick> burst(1, 200 * kTicksPerMs);
        return burst(rng);
    }
    if (k < 85) {
        std::uniform_int_distribution<Tick> normal(kTicksPerSec,
                                                   20 * kTicksPerMin);
        return normal(rng);
    }
    if (k < 98) {
        std::uniform_int_distribution<Tick> idle(kTicksPerHour,
                                                 6 * kTicksPerHour);
        return idle(rng);
    }
    std::uniform_int_distribution<Tick> gone(25 * kTicksPerHour,
                                             80 * kTicksPerHour);
    return gone(rng);
}

void
runStream(std::uint64_t seed, const std::vector<Tick> &windows,
          Tick bin_width, Tick range, int steps)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> op(0, 99);
    Pair pair(windows, bin_width, range);
    Tick now = 0;
    for (int i = 0; i < steps; ++i) {
        int o = op(rng);
        if (o < 67) {
            now += nextGap(rng);
            pair.recordInvocation(now);
        } else if (o < 70) {
            // On a window's edge: now - window == the newest sample's
            // stamp, which that window must still keep.
            std::uniform_int_distribution<std::size_t> pick(
                0, windows.size() - 1);
            Tick edge = now + windows[pick(rng)];
            pair.query(edge);
            pair.query(edge + 1);
        } else if (o < 80) {
            // Explicit samples: negative gaps, overflow gaps, in range.
            std::uniform_int_distribution<Tick> gap(-2 * kTicksPerHour,
                                                    3 * range);
            pair.addSample(gap(rng), now);
        } else if (o < 83) {
            // An explicit sample stamped in the past keeps FIFO order.
            std::uniform_int_distribution<Tick> back(0, 2 * kTicksPerHour);
            pair.addSample(kTicksPerMin, std::max<Tick>(0, now - back(rng)));
        } else if (o < 97) {
            pair.query(now);
        } else {
            // A query long after the last invocation.
            std::uniform_int_distribution<Tick> later(kTicksPerHour,
                                                      72 * kTicksPerHour);
            pair.query(now + later(rng));
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    pair.query(now + 100 * kTicksPerHour);
}

TEST(HistogramDifferential, LsthWindowsMatchReference)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        runStream(seed, {kTicksPerHour, 24 * kTicksPerHour}, kTicksPerMin,
                  4 * kTicksPerHour, 6000);
        if (HasFatalFailure())
            return;
    }
}

TEST(HistogramDifferential, SingleWindowMatchesReference)
{
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        runStream(seed, {4 * kTicksPerHour}, kTicksPerMin,
                  4 * kTicksPerHour, 6000);
        if (HasFatalFailure())
            return;
    }
}

TEST(HistogramDifferential, UnorderedWindowsAndFineBinsMatchReference)
{
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        runStream(seed,
                  {6 * kTicksPerHour, 10 * kTicksPerMin, 30 * kTicksPerHour},
                  10 * kTicksPerSec, 2 * kTicksPerHour, 6000);
        if (HasFatalFailure())
            return;
    }
}

TEST(HistogramDifferential, BackwardsStepsAndExactCutoffsMatchReference)
{
    // A sample stamped exactly now - window stays in that window; one
    // tick later it goes. Samples pushed with an earlier stamp than the
    // last, into a drained window and into one still holding samples,
    // leave in push order.
    const Tick hour = kTicksPerHour;
    const Tick minute = kTicksPerMin;
    Pair pair({hour, 2 * hour}, minute, 4 * hour);
    pair.recordInvocation(10 * minute);
    pair.recordInvocation(20 * minute);
    pair.query(20 * minute + hour);
    pair.query(20 * minute + hour + 1); // the 1 h window drains
    pair.addSample(minute, 15 * minute); // back, into the drained window
    pair.query(15 * minute + hour);
    pair.addSample(3 * minute, 5 * minute); // back, behind a held sample
    pair.addSample(2 * hour, 30 * minute);
    pair.query(5 * minute + hour);
    pair.query(10 * minute); // the query clock itself steps back
    pair.query(15 * minute + hour + 1);
    pair.query(20 * minute + 2 * hour);
    pair.query(20 * minute + 2 * hour + 1);
    pair.query(30 * minute + hour);
    pair.query(30 * minute + hour + 1);
    pair.recordInvocation(15 * minute); // before the last one: no sample
    pair.recordInvocation(40 * minute);
    pair.query(40 * minute + hour);
    pair.query(30 * minute + 2 * hour + 1);
    pair.query(40 * minute + 2 * hour + 1);
}

} // namespace
