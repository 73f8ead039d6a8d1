/**
 * @file
 * Basic workload generators: constant rates and evenly spaced arrivals.
 */

#ifndef INFLESS_WORKLOAD_GENERATORS_HH
#define INFLESS_WORKLOAD_GENERATORS_HH

#include "sim/time.hh"
#include "workload/trace.hh"

namespace infless::workload {

/**
 * Constant-rate series of @p rps over @p duration.
 */
RateSeries constantRate(double rps, sim::Tick duration,
                        sim::Tick bin_width = sim::kTicksPerMin);

/**
 * Deterministic evenly spaced arrivals (useful in unit tests).
 */
ArrivalTrace uniformArrivals(double rps, sim::Tick duration);

} // namespace infless::workload

#endif // INFLESS_WORKLOAD_GENERATORS_HH
