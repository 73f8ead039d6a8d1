#include "metrics/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace infless::metrics {

LatencyHistogram::LatencyHistogram(double growth, sim::Tick max_value)
    : growth_(growth), logGrowth_(std::log(growth)), maxValue_(max_value)
{
    sim::simAssert(growth > 1.0, "growth factor must exceed 1");
    sim::simAssert(max_value > 0, "max value must be positive");
    bucketCount_ = bucketOf(max_value) + 2; // +1 index headroom, +1 overflow
}

std::size_t
LatencyHistogram::bucketOf(sim::Tick value) const
{
    if (value <= 1)
        return 0;
    double idx = std::log(static_cast<double>(value)) / logGrowth_;
    return static_cast<std::size_t>(idx) + 1;
}

sim::Tick
LatencyHistogram::bucketUpperEdge(std::size_t bucket) const
{
    if (bucket == 0)
        return 1;
    return static_cast<sim::Tick>(
        std::ceil(std::pow(growth_, static_cast<double>(bucket))));
}

void
LatencyHistogram::record(sim::Tick value)
{
    value = std::clamp<sim::Tick>(value, 0, maxValue_);
    std::size_t bucket = std::min(bucketOf(value), bucketCount_ - 1);
    if (buckets_.empty())
        buckets_.assign(bucketCount_, 0);
    ++buckets_[bucket];
    ++count_;
    sum_ += static_cast<double>(value);
    if (count_ == 1) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
}

double
LatencyHistogram::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

sim::Tick
LatencyHistogram::percentile(double p) const
{
    sim::simAssert(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    if (count_ == 0)
        return 0;
    auto target = static_cast<std::int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    target = std::max<std::int64_t>(1, target);
    std::int64_t seen = 0;
    for (std::size_t bucket = 0; bucket < bucketCount_; ++bucket) {
        seen += buckets_[bucket];
        if (seen >= target)
            return std::min(bucketUpperEdge(bucket), max_);
    }
    return max_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    // Equal bucket counts alone are not enough: different (growth, max)
    // pairs can coincidentally size identically yet bin differently.
    sim::simAssert(growth_ == other.growth_,
                   "merging histograms with mismatched growth factors");
    sim::simAssert(maxValue_ == other.maxValue_,
                   "merging histograms with mismatched max values");
    sim::simAssert(bucketCount_ == other.bucketCount_,
                   "merging incompatible histograms");
    if (buckets_.empty()) {
        buckets_ = other.buckets_;
    } else if (!other.buckets_.empty()) {
        for (std::size_t bucket = 0; bucket < bucketCount_; ++bucket)
            buckets_[bucket] += other.buckets_[bucket];
    }
    if (other.count_ > 0) {
        if (count_ == 0) {
            min_ = other.min_;
            max_ = other.max_;
        } else {
            min_ = std::min(min_, other.min_);
            max_ = std::max(max_, other.max_);
        }
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

void
TimeWeightedMean::update(sim::Tick now, double value)
{
    if (!started_) {
        started_ = true;
        start_ = last_ = now;
        value_ = value;
        return;
    }
    sim::simAssert(now >= last_, "time went backwards in stats");
    integral_ += value_ * static_cast<double>(now - last_);
    last_ = now;
    value_ = value;
}

double
TimeWeightedMean::meanUntil(sim::Tick now) const
{
    if (!started_ || now <= start_)
        return 0.0;
    double integral = integralUntil(now);
    return integral / static_cast<double>(now - start_);
}

double
TimeWeightedMean::integralUntil(sim::Tick now) const
{
    if (!started_)
        return 0.0;
    double integral = integral_;
    if (now > last_)
        integral += value_ * static_cast<double>(now - last_);
    return integral;
}

void
TimeWeightedMean::merge(const TimeWeightedMean &other, sim::Tick now)
{
    if (!other.started_)
        return;
    if (!started_) {
        *this = other;
        // Close the adopted window at the merge point so later merges
        // into this shard integrate from a consistent last_.
        update(now, value_);
        return;
    }
    sim::simAssert(now >= last_ && now >= other.last_,
                   "merge point precedes a shard's last update");
    integral_ = integralUntil(now) + other.integralUntil(now);
    value_ += other.value_;
    start_ = std::min(start_, other.start_);
    last_ = now;
}

} // namespace infless::metrics
