/**
 * @file
 * Failover retry policy: bounded attempts with capped exponential
 * backoff.
 *
 * When a server crash loses a request (in the batch queue or mid-batch),
 * the control plane may re-dispatch it instead of dropping it. The policy
 * bounds how often and how eagerly: each request gets at most
 * `maxAttempts` dispatch attempts in total, and the k-th retry waits
 * `kInitialBackoff * kBackoffMultiplier^(k-1)` ticks, capped at
 * `kMaxBackoff` — the standard gateway retry discipline (jitter is
 * unnecessary here: the simulator's determinism *is* the point).
 */

#ifndef INFLESS_FAULTS_RETRY_POLICY_HH
#define INFLESS_FAULTS_RETRY_POLICY_HH

#include <algorithm>

#include "sim/time.hh"

namespace infless::faults {

/** Backoff before the first retry. At least one tick, so a retry
 *  cannot race the crash handler that scheduled it. */
inline constexpr sim::Tick kInitialBackoff = 10 * sim::kTicksPerMs;
static_assert(kInitialBackoff >= 1, "a retry must wait at least a tick");
/** Upper bound on any single backoff. */
inline constexpr sim::Tick kMaxBackoff = 2 * sim::kTicksPerSec;
/** Growth factor between consecutive backoffs. */
inline constexpr sim::Tick kBackoffMultiplier = 2;

/** Re-dispatch discipline for requests lost to a failure. */
struct RetryPolicy
{
    /** Total dispatch attempts per request (1 = never retry). */
    int maxAttempts = 3;

    /** Whether lost requests are re-dispatched at all. */
    bool retriesEnabled() const { return maxAttempts > 1; }

    /** A policy that drops lost requests immediately (no failover). */
    static RetryPolicy
    none()
    {
        RetryPolicy p;
        p.maxAttempts = 1;
        return p;
    }

    /**
     * Backoff before retry number @p retry (1-based): capped exponential.
     * Growth stops at the cap, so no retry count can overflow a Tick.
     */
    static sim::Tick
    backoff(int retry)
    {
        sim::Tick delay = kInitialBackoff;
        for (int i = 1; i < retry && delay < kMaxBackoff; ++i)
            delay *= kBackoffMultiplier;
        return std::min(delay, kMaxBackoff);
    }
};

} // namespace infless::faults

#endif // INFLESS_FAULTS_RETRY_POLICY_HH
