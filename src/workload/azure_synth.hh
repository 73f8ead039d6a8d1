/**
 * @file
 * Azure-Functions-style trace synthesizer.
 *
 * The paper drives its dynamic experiments with the production trace of
 * Shahrad et al. (ATC'20), singling out three invocation patterns
 * (Fig. 10): *sporadic* (long idle gaps, rare activity), *periodic*
 * (diurnal long-term periodicity, LTP) and *bursty* (diurnal base plus
 * short-term bursts, STB). That trace is not redistributable, so this
 * synthesizer emits rate series with the same statistical structure; the
 * shape constants are in azure_synth.cc.
 */

#ifndef INFLESS_WORKLOAD_AZURE_SYNTH_HH
#define INFLESS_WORKLOAD_AZURE_SYNTH_HH

#include <cstdint>
#include <string>

#include "workload/trace.hh"

namespace infless::workload {

/** The three production invocation patterns of Fig. 10. */
enum class TracePattern
{
    Sporadic,
    Periodic,
    Bursty
};

/** Human-readable pattern name. */
const char *tracePatternName(TracePattern p);

/** All three patterns, for sweep loops. */
inline constexpr TracePattern kAllPatterns[] = {
    TracePattern::Sporadic, TracePattern::Periodic, TracePattern::Bursty};

/**
 * Synthesize one trace of @p days days at one-minute bins.
 *
 * The output's time-average rate matches @p mean_rps to within
 * stochastic noise, so different patterns compare at equal offered load.
 */
RateSeries synthesizeTrace(TracePattern pattern, double mean_rps,
                           double days, std::uint64_t seed);

} // namespace infless::workload

#endif // INFLESS_WORKLOAD_AZURE_SYNTH_HH
