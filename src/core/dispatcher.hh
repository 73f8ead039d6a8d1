/**
 * @file
 * Batch-aware dispatching logic (§3.2).
 *
 * The dispatcher keeps each instance's assigned rate inside its
 * [r_low, r_up] window. Given the measured function rate R and the
 * instances' aggregate R_min/R_max, the three-case rule decides between
 * scaling out (R > R_max), holding with interpolated per-instance
 * targets, and scaling in (R below the alpha-blend threshold).
 */

#ifndef INFLESS_CORE_DISPATCHER_HH
#define INFLESS_CORE_DISPATCHER_HH

#include <cstddef>
#include <deque>
#include <limits>
#include <vector>

#include "sim/time.hh"

namespace infless::core {

/**
 * Sliding-window arrival-rate estimator.
 */
class RateEstimator
{
  public:
    /** Trailing window the rate is measured over. */
    static constexpr sim::Tick kWindow = 2 * sim::kTicksPerSec;

    /** Observe one arrival. */
    void record(sim::Tick now);

    /** Arrivals per second over the trailing window. */
    double rps(sim::Tick now) const;

  private:
    sim::Tick firstArrival_ = -1;
    mutable std::deque<sim::Tick> arrivals_;
};

/** The rate window of one live instance. */
struct InstanceRateInfo
{
    double rUp = 0.0;
    double rLow = 0.0;
};

/** Outcome of the three-case rule. */
struct ScalingAssessment
{
    enum class Action
    {
        ScaleOut, ///< case (i): R > R_max
        Hold,     ///< case (ii)
        ScaleIn   ///< case (iii): R < alpha*R_min + (1-alpha)*R_max
    };

    Action action = Action::Hold;
    /** Rate the existing instances cannot absorb (case i only). */
    double residualRps = 0.0;
};

/** Apply the three-case rule of §3.2. */
ScalingAssessment assessScaling(double measured_rps, double r_max,
                                double r_min, double alpha);

/**
 * Case (ii) per-instance target rates: interpolate each instance between
 * its bounds by the global headroom fraction
 * (R_max - R) / (R_max - R_min).
 *
 * The paper's Eq. divides by R_min, which underflows r_low whenever
 * R_max - R > R_min; we use the (R_max - R_min) denominator that realizes
 * the stated intent (r_i in proportion to the instance's range size, sum
 * approximately R, each r_i within bounds).
 */
std::vector<double> targetRates(const std::vector<InstanceRateInfo> &infos,
                                double measured_rps);

/**
 * Weighted-round-robin pick over candidates offered one at a time: the
 * one minimizing (served + 1) / weight, i.e. the instance furthest behind
 * its target share. Candidates with weight <= 0 only take part in the
 * fallback: when no offered candidate has a positive weight (all target
 * rates zero), the least-served one wins instead of failing, so a
 * momentary all-zero rate plan cannot silently drop traffic. Ties go to
 * the candidate offered first.
 */
class WeightedPick
{
  public:
    static constexpr std::size_t kNone =
        std::numeric_limits<std::size_t>::max();

    void offer(std::size_t id, double weight, double served)
    {
        if (weight > 0.0) {
            double ratio = (served + 1.0) / weight;
            if (ratio < bestRatio_) {
                bestRatio_ = ratio;
                best_ = id;
            }
        }
        if (served < leastServed_) {
            leastServed_ = served;
            least_ = id;
        }
    }

    /** The winning candidate's id, or kNone when none was offered. */
    std::size_t pick() const { return best_ != kNone ? best_ : least_; }

  private:
    std::size_t best_ = kNone;
    double bestRatio_ = std::numeric_limits<double>::max();
    std::size_t least_ = kNone;
    double leastServed_ = std::numeric_limits<double>::max();
};

} // namespace infless::core

#endif // INFLESS_CORE_DISPATCHER_HH
