/**
 * @file
 * Workload traces.
 *
 * Two representations: a RateSeries gives the average request rate per
 * time bin (the form the Azure Functions trace is published in), and an
 * ArrivalTrace gives individual request timestamps (the form the
 * simulator consumes). Materializing a RateSeries draws a
 * piecewise-constant-rate Poisson process.
 */

#ifndef INFLESS_WORKLOAD_TRACE_HH
#define INFLESS_WORKLOAD_TRACE_HH

#include <cstddef>
#include <vector>

#include "sim/rng.hh"
#include "sim/time.hh"

namespace infless::workload {

/**
 * Request rate (RPS) per fixed-width time bin.
 */
struct RateSeries
{
    sim::Tick binWidth = sim::kTicksPerMin;
    std::vector<double> rps;

    /** Total covered duration. */
    sim::Tick duration() const
    {
        return binWidth * static_cast<sim::Tick>(rps.size());
    }

    /** Rate at an absolute time (0 outside the series). Panics unless
     *  binWidth > 0. */
    double rpsAt(sim::Tick t) const;

    /** Time-average rate. */
    double meanRps() const;

    /** Peak bin rate. */
    double peakRps() const;

    /** Multiply every bin by @p factor. */
    RateSeries scaled(double factor) const;

    /** Keep only bins within [0, duration). */
    RateSeries truncated(sim::Tick duration) const;
};

/**
 * Individual request arrival timestamps, sorted ascending.
 */
class ArrivalTrace
{
  public:
    ArrivalTrace() = default;
    explicit ArrivalTrace(std::vector<sim::Tick> arrivals);

    /**
     * Materialize a rate series as a Poisson arrival process. Panics
     * unless binWidth > 0 and every rate is finite; a negative rate draws
     * no arrivals.
     */
    static ArrivalTrace fromRateSeries(const RateSeries &series,
                                       sim::Rng &rng);

    const std::vector<sim::Tick> &arrivals() const { return arrivals_; }
    std::size_t size() const { return arrivals_.size(); }
    bool empty() const { return arrivals_.empty(); }

    /** Time of the last arrival (0 when empty). */
    sim::Tick duration() const
    {
        return arrivals_.empty() ? 0 : arrivals_.back();
    }

  private:
    std::vector<sim::Tick> arrivals_;
};

} // namespace infless::workload

#endif // INFLESS_WORKLOAD_TRACE_HH
