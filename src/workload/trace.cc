#include "workload/trace.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "sim/logging.hh"

namespace infless::workload {

namespace {

/** Below this many arrivals a bin's radix histograms (256 counters per
 *  pass) cost more than a comparison sort; sparse Azure-style minute bins
 *  (bench_fig16_coldstart) sit there. */
constexpr std::size_t kRadixMinBin = 48;

/**
 * Sort one bin's ticks, all in [start, start + width). A bin of at least
 * kRadixMinBin ticks takes an LSD radix sort on the offset from @p start:
 * 8-bit digits, one pass per byte of width - 1. @p scratch grows to the
 * bin's size and is reused across bins.
 */
void
sortBin(std::span<sim::Tick> bin, sim::Tick start, sim::Tick width,
        std::vector<sim::Tick> &scratch)
{
    if (bin.size() < kRadixMinBin) {
        std::sort(bin.begin(), bin.end());
        return;
    }
    int passes = 0;
    for (auto top = static_cast<std::uint64_t>(width - 1); top != 0;
         top >>= 8)
        ++passes;
    if (scratch.size() < bin.size())
        scratch.resize(bin.size());
    std::array<std::array<std::size_t, 256>, 8> counts;
    for (int p = 0; p < passes; ++p)
        counts[p].fill(0);
    for (sim::Tick t : bin) {
        auto key = static_cast<std::uint64_t>(t - start);
        for (int p = 0; p < passes; ++p)
            ++counts[p][(key >> (8 * p)) & 0xFF];
    }
    sim::Tick *src = bin.data();
    sim::Tick *dst = scratch.data();
    for (int p = 0; p < passes; ++p) {
        std::size_t next = 0;
        for (std::size_t &c : counts[p])
            next += std::exchange(c, next);
        for (std::size_t i = 0; i < bin.size(); ++i) {
            auto key = static_cast<std::uint64_t>(src[i] - start);
            dst[counts[p][(key >> (8 * p)) & 0xFF]++] = src[i];
        }
        std::swap(src, dst);
    }
    if (src != bin.data())
        std::copy(src, src + bin.size(), bin.data());
}

} // namespace

double
RateSeries::rpsAt(sim::Tick t) const
{
    sim::simAssert(binWidth > 0, "rate series bin width must be positive");
    if (t < 0 || rps.empty())
        return 0.0;
    auto bin = static_cast<std::size_t>(t / binWidth);
    if (bin >= rps.size())
        return 0.0;
    return rps[bin];
}

double
RateSeries::meanRps() const
{
    if (rps.empty())
        return 0.0;
    double sum = 0.0;
    for (double r : rps)
        sum += r;
    return sum / static_cast<double>(rps.size());
}

double
RateSeries::peakRps() const
{
    double peak = 0.0;
    for (double r : rps)
        peak = std::max(peak, r);
    return peak;
}

RateSeries
RateSeries::scaled(double factor) const
{
    RateSeries out = *this;
    for (double &r : out.rps)
        r *= factor;
    return out;
}

RateSeries
RateSeries::truncated(sim::Tick duration) const
{
    RateSeries out;
    out.binWidth = binWidth;
    auto bins = static_cast<std::size_t>(
        (duration + binWidth - 1) / binWidth);
    bins = std::min(bins, rps.size());
    out.rps.assign(rps.begin(), rps.begin() + static_cast<long>(bins));
    return out;
}

ArrivalTrace::ArrivalTrace(std::vector<sim::Tick> arrivals)
    : arrivals_(std::move(arrivals))
{
    sim::simAssert(std::is_sorted(arrivals_.begin(), arrivals_.end()),
                   "arrival trace must be sorted");
}

ArrivalTrace
ArrivalTrace::fromRateSeries(const RateSeries &series, sim::Rng &rng)
{
    sim::simAssert(series.binWidth > 0,
                   "rate series bin width must be positive");
    // Bins are disjoint and ascending, so sorting each bin's arrivals as
    // it is drawn sorts the whole trace.
    std::vector<sim::Tick> arrivals;
    std::vector<sim::Tick> scratch;
    double bin_seconds = sim::ticksToSec(series.binWidth);
    for (std::size_t bin = 0; bin < series.rps.size(); ++bin) {
        sim::simAssert(std::isfinite(series.rps[bin]), "rate of bin ", bin,
                       " is not finite");
        double mean = series.rps[bin] * bin_seconds;
        std::int64_t count = rng.poisson(mean);
        sim::Tick start =
            static_cast<sim::Tick>(bin) * series.binWidth;
        std::size_t first = arrivals.size();
        for (std::int64_t i = 0; i < count; ++i) {
            arrivals.push_back(
                start + static_cast<sim::Tick>(
                            rng.uniform() *
                            static_cast<double>(series.binWidth)));
        }
        sortBin(std::span(arrivals).subspan(first), start, series.binWidth,
                scratch);
    }
    return ArrivalTrace(std::move(arrivals));
}

} // namespace infless::workload
