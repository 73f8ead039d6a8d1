#include "workload/azure_synth.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace infless::workload {

namespace {

/** Diurnal swing of the periodic component, as a fraction of mean. */
constexpr double kDiurnalAmplitude = 0.6;
/** Mean bursts per day (bursty pattern). */
constexpr double kBurstsPerDay = 10.0;
/** Mean burst amplitude as a multiple of the base rate. */
constexpr double kBurstAmplitude = 4.0;
/** Mean burst duration in minutes. */
constexpr double kBurstMinutes = 6.0;
/** Mean idle gap between sporadic activity episodes, minutes. */
constexpr double kSporadicOffMinutes = 45.0;
/** Mean length of a sporadic activity episode, minutes. */
constexpr double kSporadicOnMinutes = 6.0;

/** One-minute bins over @p days days. */
std::size_t
minuteBins(double days)
{
    return static_cast<std::size_t>(days * 24.0 * 60.0);
}

/** Diurnal long-term-periodicity base shape: daytime peak, night trough. */
double
diurnalFactor(double minutes_into_day)
{
    // Peak mid-afternoon (minute 870 ~= 14:30), trough before dawn.
    double phase = 2.0 * std::numbers::pi *
                   (minutes_into_day - 870.0) / (24.0 * 60.0);
    return 1.0 + kDiurnalAmplitude * std::cos(phase);
}

RateSeries
synthPeriodic(double mean_rps, double days, sim::Rng &rng,
              double noise_sigma)
{
    RateSeries series;
    series.binWidth = sim::kTicksPerMin;
    std::size_t bins = minuteBins(days);
    series.rps.reserve(bins);
    for (std::size_t bin = 0; bin < bins; ++bin) {
        double minutes_into_day =
            std::fmod(static_cast<double>(bin), 24.0 * 60.0);
        double rate = mean_rps * diurnalFactor(minutes_into_day);
        rate *= std::exp(rng.normal(0.0, noise_sigma));
        series.rps.push_back(std::max(0.0, rate));
    }
    return series;
}

void
addBursts(RateSeries &series, sim::Rng &rng)
{
    double total_minutes = static_cast<double>(series.rps.size());
    double expected_bursts = kBurstsPerDay * total_minutes / (24.0 * 60.0);
    auto count = rng.poisson(expected_bursts);
    for (std::int64_t burst = 0; burst < count; ++burst) {
        auto start_bin = static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(series.rps.size()));
        double duration_min =
            std::max(1.0, rng.exponential(1.0 / kBurstMinutes));
        auto dur_bins = static_cast<std::size_t>(duration_min);
        // Bursts spike upward most of the time; occasionally the rate
        // collapses instead (the paper notes sudden decreases too).
        bool spike = rng.uniform() < 0.8;
        double magnitude =
            spike ? 1.0 + rng.exponential(1.0 / kBurstAmplitude)
                  : rng.uniform(0.0, 0.3);
        for (std::size_t i = 0;
             i < dur_bins && start_bin + i < series.rps.size(); ++i) {
            series.rps[start_bin + i] *= magnitude;
        }
    }
}

RateSeries
synthSporadic(double mean_rps, double days, sim::Rng &rng)
{
    RateSeries series;
    series.binWidth = sim::kTicksPerMin;
    std::size_t bins = minuteBins(days);
    series.rps.assign(bins, 0.0);

    // Alternate off/on episodes; on-episodes carry the whole load, so the
    // on-rate is mean * (on+off)/on to preserve the time average.
    double duty = kSporadicOnMinutes /
                  (kSporadicOnMinutes + kSporadicOffMinutes);
    double on_rate = mean_rps / duty;
    double minute = rng.exponential(1.0 / kSporadicOffMinutes);
    while (minute < static_cast<double>(bins)) {
        double on_len =
            std::max(0.5, rng.exponential(1.0 / kSporadicOnMinutes));
        double episode_rate =
            on_rate * std::exp(rng.normal(0.0, 0.4));
        auto first = static_cast<std::size_t>(minute);
        auto last = static_cast<std::size_t>(minute + on_len);
        for (std::size_t bin = first; bin <= last && bin < bins; ++bin)
            series.rps[bin] = episode_rate;
        minute += on_len + rng.exponential(1.0 / kSporadicOffMinutes);
    }
    return series;
}

/** Rescale so the time-average rate equals the target exactly. */
void
normalizeMean(RateSeries &series, double target)
{
    double mean = series.meanRps();
    if (mean <= 0.0)
        return;
    double factor = target / mean;
    for (double &r : series.rps)
        r *= factor;
}

} // namespace

const char *
tracePatternName(TracePattern p)
{
    switch (p) {
      case TracePattern::Sporadic:
        return "sporadic";
      case TracePattern::Periodic:
        return "periodic";
      case TracePattern::Bursty:
        return "bursty";
    }
    return "?";
}

RateSeries
synthesizeTrace(TracePattern pattern, double mean_rps, double days,
                std::uint64_t seed)
{
    sim::simAssert(mean_rps >= 0.0, "meanRps must be >= 0");
    sim::simAssert(days > 0.0, "days must be > 0");
    sim::Rng rng(seed);

    RateSeries series;
    switch (pattern) {
      case TracePattern::Periodic:
        series = synthPeriodic(mean_rps, days, rng, 0.05);
        break;
      case TracePattern::Bursty:
        series = synthPeriodic(mean_rps, days, rng, 0.10);
        addBursts(series, rng);
        break;
      case TracePattern::Sporadic:
        series = synthSporadic(mean_rps, days, rng);
        break;
    }
    normalizeMean(series, mean_rps);
    return series;
}

} // namespace infless::workload
