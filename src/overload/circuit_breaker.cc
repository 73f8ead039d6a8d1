#include "overload/circuit_breaker.hh"

#include <cmath>

#include "sim/rng.hh"

namespace infless::overload {

CircuitBreaker::CircuitBreaker(const BreakerConfig &config)
    : config_(config), window_(config.window, config.windowBuckets)
{
}

bool
CircuitBreaker::probeSampled(std::int64_t request) const
{
    // Same discipline as trace sampling: salted hash of the request
    // index, low 32 bits against a rate-scaled threshold. Deterministic
    // and RNG-free, so enabling the breaker perturbs no random stream.
    auto threshold = static_cast<std::uint64_t>(
        std::llround(config_.probeFraction * 4294967296.0));
    std::uint64_t h = sim::hashCombine(
        static_cast<std::uint64_t>(request), 0x0B5E'CAB1'E000'0002ULL);
    return (h & 0xffffffffULL) < threshold;
}

void
CircuitBreaker::transitionTo(BreakerState next, sim::Tick now)
{
    state_ = next;
    if (next == BreakerState::Open) {
        openedAt_ = now;
    } else if (next == BreakerState::HalfOpen) {
        halfOpenOk_ = 0;
        // Probe outcomes start from a clean slate: the failures that
        // tripped the breaker must not instantly re-trip it.
        window_.reset();
    } else {
        window_.reset();
    }
}

bool
CircuitBreaker::allow(sim::Tick now, std::int64_t request)
{
    if (!config_.enabled)
        return true;
    if (state_ == BreakerState::Open) {
        if (now - openedAt_ < config_.openDuration)
            return false;
        transitionTo(BreakerState::HalfOpen, now);
    }
    if (state_ == BreakerState::HalfOpen)
        return probeSampled(request);
    return true;
}

bool
CircuitBreaker::record(sim::Tick now, bool failure)
{
    if (!config_.enabled)
        return false;
    BreakerState from = state_;
    window_.record(now, failure);
    if (state_ == BreakerState::HalfOpen) {
        if (failure) {
            transitionTo(BreakerState::Open, now);
        } else if (++halfOpenOk_ >= kHalfOpenSuccesses) {
            transitionTo(BreakerState::Closed, now);
        }
    } else if (state_ == BreakerState::Closed &&
               window_.samples(now) >= config_.minSamples &&
               window_.failureRate(now) >= config_.openThreshold) {
        transitionTo(BreakerState::Open, now);
    }
    return state_ != from;
}

} // namespace infless::overload
