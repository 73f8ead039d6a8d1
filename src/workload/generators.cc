#include "workload/generators.hh"

#include <cmath>
#include <vector>

#include "sim/logging.hh"

namespace infless::workload {

RateSeries
constantRate(double rps, sim::Tick duration, sim::Tick bin_width)
{
    sim::simAssert(rps >= 0.0, "rate must be non-negative");
    sim::simAssert(duration > 0 && bin_width > 0, "bad duration/bin");
    RateSeries series;
    series.binWidth = bin_width;
    auto bins = static_cast<std::size_t>(
        (duration + bin_width - 1) / bin_width);
    series.rps.assign(bins, rps);
    return series;
}

ArrivalTrace
uniformArrivals(double rps, sim::Tick duration)
{
    std::vector<sim::Tick> arrivals;
    if (rps > 0.0) {
        auto gap = static_cast<sim::Tick>(
            std::llround(sim::kTicksPerSec / rps));
        gap = std::max<sim::Tick>(1, gap);
        for (sim::Tick t = gap; t < duration; t += gap)
            arrivals.push_back(t);
    }
    return ArrivalTrace(std::move(arrivals));
}

} // namespace infless::workload
