/**
 * @file
 * Brownout controller: under sustained overload, trade latency for
 * throughput within a degraded-SLO envelope and prioritize scale-out.
 */

#ifndef INFLESS_OVERLOAD_BROWNOUT_HH
#define INFLESS_OVERLOAD_BROWNOUT_HH

#include "overload/rolling_rate.hh"
#include "sim/time.hh"

namespace infless::overload {

/** Pressure fraction at/below which brownout may disengage. */
inline constexpr double kBrownoutExitThreshold = 0.05;

struct BrownoutConfig
{
    bool enabled = false;
    /** Sliding window over which overload pressure is measured. */
    sim::Tick window = 5 * sim::kTicksPerSec;
    int windowBuckets = 10;
    /** Pressure fraction (drops + sheds + violations over all
     *  outcomes) at/above which brownout engages. */
    double enterThreshold = 0.15;
    /** Minimum outcomes in the window before entering. */
    int minSamples = 50;
    /** Minimum time browned-out before the exit test applies
     *  (hysteresis against flapping). */
    sim::Tick minHold = 10 * sim::kTicksPerSec;
    /** Admitted requests may run this multiple of the nominal SLO
     *  while browned out (relaxed batching slack). */
    double degradedSloMultiplier = 2.0;
};

/**
 * Deterministic enter/exit hysteresis over a rolling overload signal.
 *
 * Entry is evaluated on every recorded outcome; exit needs a periodic
 * update() as well (the autoscaler tick) so a function whose traffic
 * vanished entirely still recovers once the hold expires.
 */
class BrownoutController
{
  public:
    BrownoutController() : BrownoutController(BrownoutConfig{}) {}

    explicit BrownoutController(const BrownoutConfig &config)
        : config_(config), window_(config.window, config.windowBuckets)
    {
    }

    /** Feed one outcome; true = drop, shed, or SLO violation. Returns
     *  true when it entered or left brownout. */
    bool record(sim::Tick now, bool overloaded)
    {
        if (!config_.enabled)
            return false;
        window_.record(now, overloaded);
        return update(now);
    }

    /** Re-evaluate enter/exit at @p now (call from the scaler tick);
     *  true when it entered or left brownout. */
    bool update(sim::Tick now)
    {
        if (!config_.enabled)
            return false;
        if (!active_) {
            if (window_.samples(now) >= config_.minSamples &&
                window_.failureRate(now) >= config_.enterThreshold) {
                active_ = true;
                enteredAt_ = now;
                return true;
            }
            return false;
        }
        if (now - enteredAt_ >= config_.minHold &&
            window_.failureRate(now) <= kBrownoutExitThreshold) {
            active_ = false;
            return true;
        }
        return false;
    }

    bool active() const { return active_; }

    /** Whether the deadline stretch applies right now: browned out AND
     *  the pressure window is still hot. During the tail of the hold
     *  (pressure gone, hold not yet expired) batching reverts to the
     *  nominal deadline, otherwise every timeout-driven batch in the
     *  lull would violate the nominal SLO for no throughput gain. */
    bool relaxing(sim::Tick now) const
    {
        return active_ &&
               window_.failureRate(now) > kBrownoutExitThreshold;
    }

    /** Current SLO stretch: degraded multiplier while active, else 1. */
    double sloMultiplier() const
    {
        return active_ ? config_.degradedSloMultiplier : 1.0;
    }

  private:
    BrownoutConfig config_;
    RollingRate window_;
    bool active_ = false;
    sim::Tick enteredAt_ = 0;
};

} // namespace infless::overload

#endif // INFLESS_OVERLOAD_BROWNOUT_HH
