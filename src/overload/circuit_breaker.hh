/**
 * @file
 * Per-function circuit breaker: closed -> open -> half-open state
 * machine driven by the rolling drop/violation rate of admitted
 * requests.
 */

#ifndef INFLESS_OVERLOAD_CIRCUIT_BREAKER_HH
#define INFLESS_OVERLOAD_CIRCUIT_BREAKER_HH

#include <cstdint>

#include "overload/rolling_rate.hh"
#include "sim/time.hh"

namespace infless::overload {

enum class BreakerState : std::uint8_t
{
    Closed,  ///< Normal operation; every request is admitted.
    Open,    ///< Shedding at ingress until the cool-down elapses.
    HalfOpen ///< Sampled probes admitted; the rest shed.
};

struct BreakerConfig
{
    bool enabled = false;
    /** Sliding window over which the failure rate is measured. */
    sim::Tick window = 5 * sim::kTicksPerSec;
    int windowBuckets = 10;
    /** Failure fraction at/above which the breaker trips. */
    double openThreshold = 0.5;
    /** Minimum outcomes in the window before the breaker may trip. */
    int minSamples = 20;
    /** Cool-down in the open state before probing resumes. */
    sim::Tick openDuration = 2 * sim::kTicksPerSec;
    /** Fraction of requests admitted as probes while half-open. */
    double probeFraction = 0.1;
};

/** Consecutive probe successes required to close a half-open breaker. */
inline constexpr int kHalfOpenSuccesses = 5;

/**
 * Deterministic circuit breaker. Outcomes of *admitted* requests
 * (completion within SLO = success, violation or drop = failure) feed
 * the rolling window; sheds themselves never do, so an open breaker
 * can recover once its probes succeed.
 *
 * Half-open probe selection reuses the trace-sampling discipline: a
 * salted hash of the request index against a fixed threshold, so probe
 * choice is a pure function of the request and never consumes RNG.
 */
class CircuitBreaker
{
  public:
    CircuitBreaker() : CircuitBreaker(BreakerConfig{}) {}

    explicit CircuitBreaker(const BreakerConfig &config);

    /**
     * Gate one ingress request. Advances open -> half-open when the
     * cool-down has elapsed. Returns true when the request may proceed.
     */
    bool allow(sim::Tick now, std::int64_t request);

    /** Feed the outcome of an admitted request; true when it changed
     *  the state. */
    bool record(sim::Tick now, bool failure);

    BreakerState state() const { return state_; }
    sim::Tick openedAt() const { return openedAt_; }

  private:
    void transitionTo(BreakerState next, sim::Tick now);
    bool probeSampled(std::int64_t request) const;

    BreakerConfig config_;
    RollingRate window_;
    BreakerState state_ = BreakerState::Closed;
    sim::Tick openedAt_ = 0;
    int halfOpenOk_ = 0;
};

} // namespace infless::overload

#endif // INFLESS_OVERLOAD_CIRCUIT_BREAKER_HH
