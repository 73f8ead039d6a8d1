/**
 * @file
 * Brownout controller: under sustained overload, prioritize scale-out
 * (full-residual claims) until the pressure clears.
 */

#ifndef INFLESS_OVERLOAD_BROWNOUT_HH
#define INFLESS_OVERLOAD_BROWNOUT_HH

#include "overload/rolling_rate.hh"
#include "sim/time.hh"

namespace infless::overload {

/** Sliding window over which overload pressure is measured. */
inline constexpr sim::Tick kBrownoutWindow = 5 * sim::kTicksPerSec;
inline constexpr int kBrownoutWindowBuckets = 10;
/** Pressure fraction (drops + sheds + violations over all outcomes)
 *  at/above which brownout engages. */
inline constexpr double kBrownoutEnterThreshold = 0.15;
/** Pressure fraction at/below which brownout may disengage. */
inline constexpr double kBrownoutExitThreshold = 0.05;
/** Minimum outcomes in the window before entering. */
inline constexpr int kBrownoutMinSamples = 50;
/** Minimum time browned-out before the exit test applies (hysteresis
 *  against flapping). */
inline constexpr sim::Tick kBrownoutMinHold = 10 * sim::kTicksPerSec;

struct BrownoutConfig
{
    bool enabled = false;
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
        : enabled_(config.enabled),
          window_(kBrownoutWindow, kBrownoutWindowBuckets)
    {
    }

    /** Feed one outcome; true = drop, shed, or SLO violation. Returns
     *  true when it entered or left brownout. */
    bool record(sim::Tick now, bool overloaded)
    {
        if (!enabled_)
            return false;
        window_.record(now, overloaded);
        return update(now);
    }

    /** Re-evaluate enter/exit at @p now (call from the scaler tick);
     *  true when it entered or left brownout. */
    bool update(sim::Tick now)
    {
        if (!enabled_)
            return false;
        if (!active_) {
            if (window_.samples(now) >= kBrownoutMinSamples &&
                window_.failureRate(now) >= kBrownoutEnterThreshold) {
                active_ = true;
                enteredAt_ = now;
                return true;
            }
            return false;
        }
        if (now - enteredAt_ >= kBrownoutMinHold &&
            window_.failureRate(now) <= kBrownoutExitThreshold) {
            active_ = false;
            return true;
        }
        return false;
    }

    bool active() const { return active_; }

  private:
    bool enabled_;
    RollingRate window_;
    bool active_ = false;
    sim::Tick enteredAt_ = 0;
};

} // namespace infless::overload

#endif // INFLESS_OVERLOAD_BROWNOUT_HH
