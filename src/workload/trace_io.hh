/**
 * @file
 * Trace file I/O.
 *
 * The Azure Functions dataset the paper uses ships as CSV files of
 * per-function, per-minute invocation counts. This module reads and
 * writes that format so real traces can drive the platform and synthetic
 * ones can be exported for inspection.
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
 * Write a trace set as Azure-style per-minute invocation counts.
 *
 * Rates are converted to counts per minute (rounded); all series must
 * share the 1-minute bin width.
 */
void writeAzureCsv(std::ostream &os, const TraceSet &traces);

/** Convenience overload writing to a file; fatal on I/O failure. */
void writeAzureCsv(const std::string &path, const TraceSet &traces);

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
