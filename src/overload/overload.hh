/**
 * @file
 * Overload control plane configuration: deadline-aware admission,
 * bounded queues, circuit breakers, and brownout.
 *
 * Everything here is off by default; a default-constructed
 * OverloadConfig leaves the platform bit-identical to a build without
 * the subsystem (pinned by ZeroOverloadConfigIsBitIdentical).
 */

#ifndef INFLESS_OVERLOAD_OVERLOAD_HH
#define INFLESS_OVERLOAD_OVERLOAD_HH

#include <cstddef>

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
    /** Admit while the predicted sojourn fits the effective SLO. */
    bool enabled = false;
};

/** Bounded per-instance queues. */
struct QueueConfig
{
    /** Queue depth cap in requests; 0 = legacy bound (one full batch). */
    std::size_t depthCap = 0;
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

    /** The full defense stack with default tuning (bench/tests). The
     *  depth cap stays at the legacy one-batch bound and brownout keeps
     *  the nominal deadline: deeper queues and stretched deadlines trade
     *  SLO-compatible sojourns for buffering, which only pays off when
     *  the operator accepts a degraded envelope (see the bench demo
     *  config). Brownout still prioritizes scale-out (full-residual
     *  claims) while engaged. */
    static OverloadConfig fullStack()
    {
        OverloadConfig cfg;
        cfg.admission.enabled = true;
        cfg.queue.evictOldest = true;
        cfg.breaker.enabled = true;
        cfg.brownout.enabled = true;
        cfg.brownout.degradedSloMultiplier = 1.0;
        return cfg;
    }
};

} // namespace infless::overload

#endif // INFLESS_OVERLOAD_OVERLOAD_HH
