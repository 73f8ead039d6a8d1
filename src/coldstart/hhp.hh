/**
 * @file
 * Hybrid Histogram Policy (HHP) — Shahrad et al., USENIX ATC'20.
 *
 * Tracks idle times over one configurable duration (4 h by default), and
 * derives the pre-warming window from the head (5th percentile) and the
 * keep-alive window from the tail (99th percentile) of the distribution,
 * each with a safety margin. Falls back to a conservative
 * always-keep-alive when the histogram is unrepresentative (too few
 * samples or too much overflow).
 */

#ifndef INFLESS_COLDSTART_HHP_HH
#define INFLESS_COLDSTART_HHP_HH

#include "coldstart/histogram.hh"
#include "coldstart/policy.hh"

namespace infless::coldstart {

// Histogram shape shared by HHP and LSTH ------------------------------------

/** Histogram range; gaps beyond it overflow. */
inline constexpr sim::Tick kHistogramRange = 4 * sim::kTicksPerHour;
/** Head percentile driving the pre-warming window. */
inline constexpr double kHeadPercentile = 5.0;
/** Tail percentile driving the keep-alive window. */
inline constexpr double kTailPercentile = 99.0;
/** Fractional margin shrinking the head / extending the tail. */
inline constexpr double kWindowMargin = 0.15;
/** Conservative keep-alive used while the histograms are unrepresentative. */
inline constexpr sim::Tick kFallbackKeepAlive = 4 * sim::kTicksPerHour;

/** HHP tunables. */
struct HhpParams
{
    /** Tracked duration of the single histogram. */
    sim::Tick trackedDuration = 4 * sim::kTicksPerHour;
    /** Histogram bin width. */
    sim::Tick binWidth = sim::kTicksPerMin;
    /** Histogram range; gaps beyond it overflow. */
    sim::Tick range = kHistogramRange;
    /** Minimum samples before trusting the histogram. */
    std::size_t minSamples = 10;
};

/**
 * The state-of-the-art policy INFless's LSTH improves upon.
 */
class HybridHistogramPolicy : public KeepAlivePolicy
{
  public:
    explicit HybridHistogramPolicy(HhpParams params = {});

    void recordInvocation(sim::Tick now) override;
    KeepAliveDecision decide(sim::Tick now) const override;
    std::string name() const override { return "hhp"; }

    const IdleTimeHistogram &histogram() const { return hist_; }

    static PolicyFactory factory(HhpParams params = {});

    /**
     * Shared window-derivation rule: shrink the head by the margin for the
     * pre-warming window and extend the tail for keep-alive coverage.
     */
    static KeepAliveDecision windowsFrom(sim::Tick head, sim::Tick tail,
                                         double margin);

  private:
    HhpParams params_;
    /** Mutable: decide() lazily evicts samples older than the window. */
    mutable IdleTimeHistogram hist_;
};

} // namespace infless::coldstart

#endif // INFLESS_COLDSTART_HHP_HH
