/**
 * @file
 * Hybrid Histogram Policy (HHP) — Shahrad et al., USENIX ATC'20.
 *
 * Tracks idle times over one fixed duration (4 h), and derives the
 * pre-warming window from the head (5th percentile) and the keep-alive
 * window from the tail (99th percentile) of the distribution, each with
 * a safety margin. Falls back to a conservative always-keep-alive while
 * the histogram holds too few samples to be representative.
 */

#ifndef INFLESS_COLDSTART_HHP_HH
#define INFLESS_COLDSTART_HHP_HH

#include <cstddef>

#include "coldstart/histogram.hh"
#include "coldstart/policy.hh"

namespace infless::coldstart {

// Decision rule shared by HHP and LSTH --------------------------------------

/** Minimum samples before a window's histogram is trusted. */
inline constexpr std::size_t kMinSamples = 10;
/** Head percentile driving the pre-warming window. */
inline constexpr double kHeadPercentile = 5.0;
/** Tail percentile driving the keep-alive window. */
inline constexpr double kTailPercentile = 99.0;
/** Fractional margin shrinking the head / extending the tail. */
inline constexpr double kWindowMargin = 0.15;
/** Conservative keep-alive used while the histograms are unrepresentative. */
inline constexpr sim::Tick kFallbackKeepAlive = 4 * sim::kTicksPerHour;

/**
 * The state-of-the-art policy INFless's LSTH improves upon.
 */
class HybridHistogramPolicy : public KeepAlivePolicy
{
  public:
    /** Tracked duration of the single histogram. */
    static constexpr sim::Tick kTrackedDuration = 4 * sim::kTicksPerHour;
    // A window no longer than the range holds at most one overflowing
    // gap, so the sample floor alone decides when the histogram is
    // representative.
    static_assert(kTrackedDuration <= kHistogramRange,
                  "tracked duration must not exceed the histogram range");

    HybridHistogramPolicy();

    void recordInvocation(sim::Tick now) override;
    KeepAliveDecision decide(sim::Tick now) const override;
    std::string name() const override { return "hhp"; }

    static PolicyFactory factory();

    /**
     * Shared window-derivation rule: shrink the head by the margin for the
     * pre-warming window and extend the tail for keep-alive coverage.
     */
    static KeepAliveDecision windowsFrom(sim::Tick head, sim::Tick tail,
                                         double margin);

  private:
    /** Mutable: decide() lazily evicts samples older than the window. */
    mutable IdleTimeHistogram hist_;
};

} // namespace infless::coldstart

#endif // INFLESS_COLDSTART_HHP_HH
