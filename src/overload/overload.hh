/**
 * @file
 * Overload control plane configuration: deadline-aware admission,
 * oldest-first eviction from full queues, circuit breakers, and
 * brownout.
 *
 * Everything here is off by default; a default-constructed
 * OverloadConfig leaves the platform bit-identical to a build without
 * the subsystem (pinned by ZeroOverloadConfigIsBitIdentical).
 */

#ifndef INFLESS_OVERLOAD_OVERLOAD_HH
#define INFLESS_OVERLOAD_OVERLOAD_HH

#include "overload/brownout.hh"
#include "overload/circuit_breaker.hh"

namespace infless::overload {

/**
 * Deadline-aware admission control at platform ingress: a feedforward
 * gate that sheds when the *predicted* queue+exec sojourn (from the
 * profiled latency surface) exceeds the SLO slack. Exact when the
 * profile is faithful; inherits every profiler error.
 */
struct AdmissionConfig
{
    /** Admit while the predicted sojourn fits the SLO. */
    bool enabled = false;
};

/** What to do when every per-instance queue is full (each holds at
 *  most one batch, §3.2). */
struct QueueConfig
{
    /** When the whole fleet is full, evict the oldest queued request
     *  (it has burned the most slack) to make room for the newcomer. */
    bool evictOldest = false;
};

/** Aggregate switchboard carried by PlatformOptions. */
struct OverloadConfig
{
    AdmissionConfig admission;
    QueueConfig queue;
    BreakerConfig breaker;
    BrownoutConfig brownout;

    /** The full defense stack with default tuning (bench/tests).
     *  Brownout prioritizes scale-out (full-residual claims) while
     *  engaged. */
    static OverloadConfig fullStack()
    {
        OverloadConfig cfg;
        cfg.admission.enabled = true;
        cfg.queue.evictOldest = true;
        cfg.breaker.enabled = true;
        cfg.brownout.enabled = true;
        return cfg;
    }
};

} // namespace infless::overload

#endif // INFLESS_OVERLOAD_OVERLOAD_HH
