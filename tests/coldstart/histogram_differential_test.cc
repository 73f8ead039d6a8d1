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
using infless::coldstart::kHistogramBinWidth;
using infless::coldstart::kHistogramRange;
using infless::sim::kTicksPerHour;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerMs;
using infless::sim::kTicksPerSec;
using infless::sim::Tick;

/** One window, one deque entry per (observedAt, bin) sample. */
class ReferenceHistogram
{
  public:
    explicit ReferenceHistogram(Tick window)
        : window_(window),
          bins_(static_cast<std::size_t>(kHistogramRange /
                                         kHistogramBinWidth) +
                    2,
                0)
    {
    }

    void recordInvocation(Tick now)
    {
        if (lastInvocation_ >= 0) {
            evict(now);
            std::size_t bin = binOf(now - lastInvocation_);
            samples_.push_back(Sample{now, bin});
            ++bins_[bin];
            ++total_;
        }
        lastInvocation_ = now;
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
            return kHistogramRange;
        return static_cast<Tick>(bin + 1) * kHistogramBinWidth;
    }

    Tick percentileLower(double p) const
    {
        if (total_ == 0)
            return 0;
        std::size_t bin = percentileBin(p);
        if (bin == bins_.size() - 1)
            return kHistogramRange;
        return static_cast<Tick>(bin) * kHistogramBinWidth;
    }

  private:
    struct Sample
    {
        Tick observedAt;
        std::size_t bin;
    };

    std::size_t binOf(Tick gap) const
    {
        auto bin = static_cast<std::size_t>(gap / kHistogramBinWidth);
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

    explicit Pair(const std::vector<Tick> &windows) : multi(windows)
    {
        for (Tick w : windows)
            refs.emplace_back(w);
    }

    void recordInvocation(Tick now)
    {
        multi.recordInvocation(now);
        for (auto &r : refs)
            r.recordInvocation(now);
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
runStream(std::uint64_t seed, const std::vector<Tick> &windows, int steps)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> op(0, 99);
    Pair pair(windows);
    Tick now = 0;
    for (int i = 0; i < steps; ++i) {
        int o = op(rng);
        if (o < 80) {
            now += nextGap(rng);
            pair.recordInvocation(now);
        } else if (o < 83) {
            // On a window's edge: now - window == the newest sample's
            // stamp, which that window must still keep.
            std::uniform_int_distribution<std::size_t> pick(
                0, windows.size() - 1);
            Tick edge = now + windows[pick(rng)];
            pair.query(edge);
            pair.query(edge + 1);
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
        runStream(seed, {kTicksPerHour, 24 * kTicksPerHour}, 6000);
        if (HasFatalFailure())
            return;
    }
    // Windows listed out of order, one shorter and one longer than
    // LSTH's: the log must trim behind the slowest whatever its position.
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        runStream(seed,
                  {6 * kTicksPerHour, 10 * kTicksPerMin, 30 * kTicksPerHour},
                  6000);
        if (HasFatalFailure())
            return;
    }
}

TEST(HistogramDifferential, SingleWindowMatchesReference)
{
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
        runStream(seed, {4 * kTicksPerHour}, 6000);
        if (HasFatalFailure())
            return;
    }
}

TEST(HistogramDifferential, BackwardsStepsAndExactCutoffsMatchReference)
{
    // A sample stamped exactly now - window stays in that window; one
    // tick later it goes. The query clock may step back. A window that
    // has drained bins its next sample from the last invocation, which
    // it no longer holds.
    const Tick hour = kTicksPerHour;
    const Tick minute = kTicksPerMin;
    Pair pair({hour, 2 * hour});
    pair.recordInvocation(10 * minute);
    pair.recordInvocation(20 * minute);
    pair.query(20 * minute + hour);
    pair.query(20 * minute + hour + 1); // the 1 h window drains
    // Into the drained 1 h window, behind a sample the 2 h one holds.
    pair.recordInvocation(90 * minute);
    pair.query(90 * minute + hour);
    pair.recordInvocation(90 * minute); // a same-tick burst
    pair.recordInvocation(93 * minute);
    pair.query(20 * minute + 2 * hour);
    pair.query(20 * minute + 2 * hour + 1);
    pair.query(10 * minute); // the query clock itself steps back
    pair.query(90 * minute + hour);
    pair.query(90 * minute + hour + 1);
    pair.query(93 * minute + hour);
    pair.query(93 * minute + hour + 1); // the 1 h window drains again
    // The 2 h window keeps the sample stamped exactly 2 h earlier.
    pair.recordInvocation(93 * minute + 2 * hour);
    pair.query(93 * minute + 2 * hour + 1);
    pair.query(93 * minute + 4 * hour);
    pair.query(93 * minute + 4 * hour + 1); // both windows drain
    pair.recordInvocation(100 * hour);      // an overflow gap into both
    pair.query(101 * hour);
    pair.query(101 * hour + 1);
    pair.query(102 * hour + 1);
}

} // namespace
