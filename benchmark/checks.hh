/**
 * @file
 * Per-run correctness checks of the benchmark.
 *
 * A timed run only counts when the simulation it timed is whole: not
 * truncated by the event engine, every injected arrival accounted for,
 * and every arrival settled or verifiably in flight. The checker is a
 * pure function of the facts the driver collects after a run, so a unit
 * test can feed it fabricated facts.
 */

#ifndef INFLESS_BENCHMARK_CHECKS_HH
#define INFLESS_BENCHMARK_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace infless::benchmark {

/** What one finished run reports about its requests. */
struct RunFacts
{
    /** Whether any cell's event engine stopped at its safety cap. */
    bool truncated = false;
    /** Arrivals injected with a timestamp at or before the horizon. */
    std::int64_t injected = 0;
    std::int64_t arrivals = 0;
    std::int64_t completions = 0;
    std::int64_t drops = 0;
    /** Platform::inFlightRequests() summed over cells. */
    std::int64_t inFlight = 0;
    /** Platform::auditConservation() held in every cell. */
    bool cellsBalanced = true;
};

/** One message per violated check; empty when the run is correct. */
inline std::vector<std::string>
checkRun(const RunFacts &f)
{
    std::vector<std::string> errors;
    if (f.truncated)
        errors.push_back("event engine truncated the run");
    if (f.arrivals != f.injected)
        errors.push_back("arrivals " + std::to_string(f.arrivals) +
                         " != injected " + std::to_string(f.injected));
    std::int64_t settled = f.completions + f.drops + f.inFlight;
    if (f.arrivals != settled)
        errors.push_back("conservation: arrivals " +
                         std::to_string(f.arrivals) +
                         " != completions + drops + in-flight " +
                         std::to_string(settled));
    if (!f.cellsBalanced)
        errors.push_back("a cell failed Platform::auditConservation()");
    return errors;
}

} // namespace infless::benchmark

#endif // INFLESS_BENCHMARK_CHECKS_HH
