/**
 * @file
 * Trace file input.
 *
 * The Azure Functions dataset the paper uses ships as CSV files of
 * per-function, per-minute invocation counts. This module reads that
 * format so real traces can drive the platform.
 *
 * Format: one header row, then one row per function:
 *
 *   function,1,2,3,...,N
 *   fn-name,count_minute_1,count_minute_2,...
 */

#ifndef INFLESS_WORKLOAD_TRACE_IO_HH
#define INFLESS_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <map>
#include <string>

#include "workload/trace.hh"

namespace infless::workload {

/** Named per-function rate series, as loaded from one trace file. */
using TraceSet = std::map<std::string, RateSeries>;

/**
 * Parse Azure-style per-minute invocation counts into rate series
 * (1-minute bins, counts/minute converted to RPS).
 *
 * Raises FatalError on malformed input (ragged rows, non-numeric,
 * non-finite or negative counts, a function named in two rows).
 */
TraceSet readAzureCsv(std::istream &is);

/** Convenience overload reading a file; fatal if it cannot be opened. */
TraceSet readAzureCsv(const std::string &path);

} // namespace infless::workload

#endif // INFLESS_WORKLOAD_TRACE_IO_HH
