/**
 * @file
 * Streaming statistics primitives: counters and latency histograms with
 * percentile queries.
 */

#ifndef INFLESS_METRICS_STATS_HH
#define INFLESS_METRICS_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/time.hh"

namespace infless::metrics {

/**
 * Log-bucketed histogram for latency-like quantities.
 *
 * Buckets grow geometrically, giving a bounded relative quantile error
 * (~5%) over a microsecond-to-hour range with a few hundred buckets.
 * Bucket storage is allocated by the first record() or non-empty
 * merge(), so a histogram that never sees a sample holds no heap.
 */
class LatencyHistogram
{
  public:
    /**
     * @param growth Bucket width growth factor.
     * @param max_value Largest representable value; larger samples clamp.
     */
    explicit LatencyHistogram(double growth = 1.1,
                              sim::Tick max_value = sim::kTicksPerHour);

    /** Record one sample (negative samples clamp to zero). */
    void record(sim::Tick value);

    std::int64_t count() const { return count_; }
    sim::Tick min() const { return count_ ? min_ : 0; }
    sim::Tick max() const { return count_ ? max_ : 0; }
    double mean() const;

    /**
     * Approximate percentile (p in [0, 100]); 0 when empty.
     */
    sim::Tick percentile(double p) const;

    /** Merge another histogram with identical parameters. */
    void merge(const LatencyHistogram &other);

    // Raw bucket access (Prometheus-native histogram export) --------------

    /** Sum of all recorded samples (after clamping). */
    double sum() const { return sum_; }

    /** Number of buckets (the last one is the overflow bucket). */
    std::size_t bucketCount() const { return bucketCount_; }

    /** Samples recorded into bucket @p bucket. */
    std::int64_t bucketSamples(std::size_t bucket) const
    {
        return buckets_.empty() ? 0 : buckets_[bucket];
    }

    /** Inclusive upper bound of bucket @p bucket (its `le` edge). */
    sim::Tick bucketUpperBound(std::size_t bucket) const
    {
        return bucketUpperEdge(bucket);
    }

  private:
    std::size_t bucketOf(sim::Tick value) const;
    sim::Tick bucketUpperEdge(std::size_t bucket) const;

    double growth_;
    double logGrowth_;
    sim::Tick maxValue_;
    std::size_t bucketCount_;
    /** Empty until the first sample; then bucketCount_ entries. */
    std::vector<std::int64_t> buckets_;
    std::int64_t count_ = 0;
    double sum_ = 0.0;
    sim::Tick min_ = 0;
    sim::Tick max_ = 0;
};

/**
 * Time-weighted average of a piecewise-constant signal (e.g. instance
 * count or allocated resources over time).
 */
class TimeWeightedMean
{
  public:
    /** Observe the signal changing to @p value at time @p now. */
    void update(sim::Tick now, double value);

    /** Close the window at @p now and return the time-weighted mean. */
    double meanUntil(sim::Tick now) const;

    /** Last recorded value. */
    double current() const { return value_; }

    /** Integral up to @p now including the running segment. */
    double integralUntil(sim::Tick now) const;

    /**
     * Absorb a sibling shard's signal: afterwards this mean tracks the
     * SUM of the two signals (cells partition the fleet, so cluster-wide
     * instance counts and allocations are the sum over cells). Both
     * shards are closed at @p now; the merged window starts at the
     * earlier of the two starts.
     */
    void merge(const TimeWeightedMean &other, sim::Tick now);

  private:
    sim::Tick start_ = 0;
    sim::Tick last_ = 0;
    double value_ = 0.0;
    double integral_ = 0.0;
    bool started_ = false;
};

} // namespace infless::metrics

#endif // INFLESS_METRICS_STATS_HH
