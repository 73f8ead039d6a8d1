/**
 * @file
 * Long-Short Term Histogram (LSTH) policy — the paper's contribution
 * (§3.5).
 *
 * Inference request loads show long-term periodicity (diurnal patterns)
 * *and* short-term bursts. A single tracked duration must pick between
 * them: long durations react slowly to bursts and waste resources when
 * the rate collapses; short durations miss the periodicity and raise the
 * cold-start rate. LSTH keeps two histograms — short (1 h) and long
 * (24 h), two windows over one shared sample log — and blends their
 * heads and tails with a weight gamma:
 *
 *   pre-warm   = gamma * L_prewarm   + (1 - gamma) * S_prewarm
 *   keep-alive = gamma * L_keepalive + (1 - gamma) * S_keepalive
 */

#ifndef INFLESS_COLDSTART_LSTH_HH
#define INFLESS_COLDSTART_LSTH_HH

#include "coldstart/hhp.hh"
#include "coldstart/histogram.hh"
#include "coldstart/policy.hh"

namespace infless::coldstart {

/**
 * The gamma-weighted two-horizon policy.
 */
class LsthPolicy : public KeepAlivePolicy
{
  public:
    /** The blend weight the paper finds the best waste tradeoff. */
    static constexpr double kDefaultGamma = 0.5;

    /** @param gamma Blend weight toward the long-term histogram. */
    explicit LsthPolicy(double gamma = kDefaultGamma);

    void recordInvocation(sim::Tick now) override;
    KeepAliveDecision decide(sim::Tick now) const override;
    std::string name() const override;

    /** Window indices into histogram(). */
    static constexpr std::size_t kShort = 0;
    static constexpr std::size_t kLong = 1;

    /** Short-term tracked duration (STB horizon). */
    static constexpr sim::Tick kShortDuration = sim::kTicksPerHour;
    /** Long-term tracked duration (LTP horizon). */
    static constexpr sim::Tick kLongDuration = 24 * sim::kTicksPerHour;
    static_assert(kShortDuration < kLongDuration,
                  "short duration must be below long duration");

    /** Both horizons over one shared sample log (kShort, kLong). */
    const IdleTimeHistogram &histogram() const { return hist_; }

    static PolicyFactory factory(double gamma = kDefaultGamma);

  private:
    double gamma_;
    /** Mutable: decide() lazily evicts samples older than each window. */
    mutable IdleTimeHistogram hist_;
};

} // namespace infless::coldstart

#endif // INFLESS_COLDSTART_LSTH_HH
