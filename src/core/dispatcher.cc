#include "core/dispatcher.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace infless::core {

RateEstimator::RateEstimator(sim::Tick window) : window_(window)
{
    sim::simAssert(window > 0, "rate window must be positive");
}

void
RateEstimator::record(sim::Tick now)
{
    if (firstArrival_ < 0)
        firstArrival_ = now;
    arrivals_.push_back(now);
}

double
RateEstimator::rps(sim::Tick now) const
{
    sim::Tick cutoff = now - window_;
    while (!arrivals_.empty() && arrivals_.front() <= cutoff)
        arrivals_.pop_front();
    // Before a full window has elapsed since the first arrival, divide by
    // the observed span instead, so ramp-up estimates are not halved.
    sim::Tick effective = window_;
    if (firstArrival_ >= 0 && now - firstArrival_ < window_) {
        effective = std::max<sim::Tick>(now - firstArrival_,
                                        window_ / 8);
    }
    return static_cast<double>(arrivals_.size()) /
           sim::ticksToSec(effective);
}

ScalingAssessment
assessScaling(double measured_rps, double r_max, double r_min, double alpha)
{
    sim::simAssert(alpha >= 0.0 && alpha <= 1.0, "alpha out of [0,1]");
    ScalingAssessment result;
    if (measured_rps > r_max) {
        result.action = ScalingAssessment::Action::ScaleOut;
        result.residualRps = measured_rps - r_max;
    } else if (measured_rps < alpha * r_min + (1.0 - alpha) * r_max) {
        result.action = ScalingAssessment::Action::ScaleIn;
    } else {
        result.action = ScalingAssessment::Action::Hold;
    }
    return result;
}

std::vector<double>
targetRates(const std::vector<InstanceRateInfo> &infos, double measured_rps)
{
    double r_max = 0.0;
    double r_min = 0.0;
    for (const auto &info : infos) {
        r_max += info.rUp;
        r_min += info.rLow;
    }

    double fraction = 0.0; // 0 -> everyone at r_up
    if (r_max > r_min) {
        fraction = (r_max - measured_rps) / (r_max - r_min);
        fraction = std::clamp(fraction, 0.0, 1.0);
    } else if (measured_rps < r_max) {
        fraction = 1.0;
    }

    std::vector<double> rates;
    rates.reserve(infos.size());
    for (const auto &info : infos)
        rates.push_back(info.rUp - fraction * (info.rUp - info.rLow));
    return rates;
}

} // namespace infless::core
