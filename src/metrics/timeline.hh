/**
 * @file
 * Periodic time-series sampling of platform state.
 *
 * Figures like Fig. 14 (provisioning over time) need per-interval
 * snapshots of running quantities. A TimelineSampler attaches a sampling
 * callback to a simulation's periodic scheduler and collects named
 * series, which can then be printed or exported as CSV.
 */

#ifndef INFLESS_METRICS_TIMELINE_HH
#define INFLESS_METRICS_TIMELINE_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/time.hh"

namespace infless::metrics {

/**
 * Collects named time series by sampling callbacks on a fixed period.
 */
class TimelineSampler
{
  public:
    /** A sampling callback returning the series' current value. */
    using Probe = std::function<double()>;

    /**
     * @param sim Simulation whose clock drives the sampling.
     * @param period Sampling interval.
     */
    TimelineSampler(sim::Simulation &sim, sim::Tick period);

    ~TimelineSampler();

    TimelineSampler(const TimelineSampler &) = delete;
    TimelineSampler &operator=(const TimelineSampler &) = delete;

    /**
     * Register a series; @p probe is invoked at every sampling tick.
     * Must be called before the first sample fires.
     */
    void track(const std::string &name, Probe probe);

    /**
     * Register a counter series: @p probe returns a cumulative count and
     * the stored sample is the *delta* since the previous sample (the
     * first sample stores the counter as-is, i.e. the delta from zero).
     * A counter observed moving backwards (subsystem reset) restarts the
     * ramp: that interval stores the new cumulative value, never a
     * negative delta. This is how drop or retry bursts become visible in
     * the timeline — a cumulative counter plotted directly just ramps
     * monotonically. Must be called before the first sample fires; a
     * name already registered (by track() or trackCounter()) panics.
     */
    void trackCounter(const std::string &name, Probe probe);

    /** Sampling timestamps so far. */
    const std::vector<sim::Tick> &times() const { return times_; }

    /** Values of one series; panics on unknown names. */
    const std::vector<double> &series(const std::string &name) const;

    /** Registered series names, in registration order. */
    const std::vector<std::string> &names() const { return names_; }

    /** Number of samples taken. */
    std::size_t sampleCount() const { return times_.size(); }

    /**
     * Write all series as CSV: a time_sec column followed by one column
     * per series.
     */
    void writeCsv(std::ostream &os) const;

    /** Stop sampling (also happens on destruction). */
    void stop();

  private:
    void sample();

    sim::Simulation &sim_;
    std::vector<std::string> names_;
    std::map<std::string, Probe> probes_;
    /** Series registered via trackCounter: previous cumulative value. */
    std::map<std::string, double> counterLast_;
    std::map<std::string, std::vector<double>> values_;
    std::vector<sim::Tick> times_;
    std::shared_ptr<sim::Simulation::Periodic> handle_;
};

} // namespace infless::metrics

#endif // INFLESS_METRICS_TIMELINE_HH
