/**
 * @file
 * Request-lifecycle tracing (observability pillar 1).
 *
 * A TraceRecorder keeps a ring buffer of fixed-size span records emitted
 * by the platform on each traced request's arrival -> queue -> cold-start
 * -> batch-exec -> complete/drop/retry path, plus cluster-level instant
 * events (server crash/recovery). The store is allocation-light: one
 * vector reserved up-front, 48-byte POD records, no per-span heap
 * traffic, and no interaction with simulated time — recording never
 * schedules events or draws randomness, so a traced run is bit-identical
 * to an untraced one in every simulation output.
 *
 * Sampling is deterministic: a request is traced iff a hash of its index
 * falls under the configured rate threshold, so the same run traces the
 * same requests at any capacity and the decision costs one multiply-free
 * hash, not an RNG draw.
 *
 * Export is Chrome trace-event JSON (writeChromeTrace), loadable in
 * Perfetto / chrome://tracing: servers become process rows, instances
 * become thread rows, lifecycle stages are complete ("ph":"X") spans and
 * faults are instant ("ph":"i") events.
 */

#ifndef INFLESS_OBS_TRACE_RECORDER_HH
#define INFLESS_OBS_TRACE_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/time.hh"

namespace infless::obs {

/** Lifecycle stage (or cluster event) a span record describes. */
enum class SpanKind : std::uint8_t
{
    Arrival,        ///< request entered the gateway (instant)
    ColdStart,      ///< startup latency the request waited through (span)
    Queue,          ///< waiting in an instance's batch queue (span)
    Exec,           ///< batch execution (span)
    Complete,       ///< request finished (instant)
    Drop,           ///< request dropped (instant)
    Retry,          ///< crash-lost request re-dispatched (instant)
    ServerCrash,    ///< injected server failure (cluster instant)
    ServerRecovery, ///< crashed server rejoined (cluster instant)
    Shed,            ///< overload control shed the request (instant)
    BreakerOpen,     ///< circuit breaker tripped open (function instant)
    BreakerHalfOpen, ///< breaker started probing (function instant)
    BreakerClose,    ///< breaker closed after probes (function instant)
    BrownoutEnter,   ///< function entered degraded mode (instant)
    BrownoutExit,    ///< function left degraded mode (instant)
    BatchWait,       ///< waiting for the running batch to drain (span)
    FlightDump,      ///< flight recorder dumped at this instant (marker)
    HealthEjection,  ///< outlier ejector quarantined a server (instant)
    HealthReadmission, ///< probation expired, server re-admitted (instant)
    DomainOutage,    ///< a failure domain died at once (cluster instant)
    DomainRepair,    ///< the failure domain repaired (cluster instant)
};

/** Display name of a span kind (trace-event "name" field). */
const char *spanKindName(SpanKind kind);

/** One ring-buffer entry; POD, 48 bytes. */
struct SpanRecord
{
    sim::Tick start = 0;        ///< span start (ticks = microseconds)
    sim::Tick duration = 0;     ///< 0 for instant events
    std::int64_t request = -1;  ///< request index (-1 for cluster events)
    std::int64_t instance = -1; ///< instance id (-1 = gateway/none)
    std::int32_t function = -1; ///< function id (-1 for cluster events)
    std::int32_t server = -1;   ///< server id (-1 = gateway/none)
    SpanKind kind = SpanKind::Arrival;
};

/** Tracing knobs (part of PlatformOptions). */
struct TraceConfig
{
    /**
     * Fraction of requests traced, [0, 1]. 0 disables tracing entirely
     * (the default: no storage is reserved and every emit call is a
     * single branch).
     */
    double sampleRate = 0.0;
    /** Ring capacity in span records; oldest records are overwritten. */
    std::size_t capacity = 1 << 16;
};

/**
 * Ring-buffered span store with deterministic hash-based sampling.
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /** (Re)configure; clears any recorded spans. */
    void configure(const TraceConfig &config);

    /** Whether any recording can happen (sample rate > 0). */
    bool enabled() const { return threshold_ != 0; }

    /**
     * Deterministic sampling decision for a request index. Stable across
     * runs and platforms: depends only on the index and the rate.
     */
    bool sampled(std::int64_t request) const;

    /** enabled() && sampled(): the emit-site guard. */
    bool
    wants(std::int64_t request) const
    {
        return threshold_ != 0 && sampled(request);
    }

    /** Record one request-lifecycle span (caller checks wants()). */
    void record(SpanKind kind, std::int64_t request, std::int32_t function,
                std::int32_t server, std::int64_t instance, sim::Tick start,
                sim::Tick duration);

    /** Record a cluster-level instant event (crash/recovery). */
    void clusterEvent(SpanKind kind, std::int32_t server, sim::Tick at);

    /** Spans currently held (<= capacity). */
    std::size_t size() const { return ring_.size(); }

    /** Spans overwritten after the ring filled. */
    std::uint64_t overwritten() const { return overwritten_; }

    /** Spans recorded over the recorder's lifetime. */
    std::uint64_t recorded() const { return recorded_; }

    /** Held spans in recording order (oldest first). */
    std::vector<SpanRecord> snapshot() const;

    /**
     * Write the held spans as Chrome trace-event JSON. Servers map to
     * pids (server + 2; pid 1 is the gateway), instances to tids, and
     * each pid gets a process_name metadata record.
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    void append(const SpanRecord &rec);

    std::vector<SpanRecord> ring_;
    /** Next overwrite position once the ring is full. */
    std::size_t head_ = 0;
    std::size_t capacity_ = 0;
    /** sampled() cutoff: hash32(request) < threshold_. 0 = disabled,
     *  2^32 = trace everything. */
    std::uint64_t threshold_ = 0;
    std::uint64_t overwritten_ = 0;
    std::uint64_t recorded_ = 0;
};

/** Write arbitrary spans as Chrome trace-event JSON (the exporter behind
 *  TraceRecorder::writeChromeTrace and the flight recorder's dumps). */
void writeChromeTrace(std::ostream &os, const std::vector<SpanRecord> &spans);

/** What tripped a flight dump. */
enum class FlightTrigger : std::uint8_t
{
    None,        ///< no dump yet
    SloFastBurn, ///< fast burn-rate alert fired
    SloSlowBurn, ///< slow burn-rate alert fired
    BreakerOpen,  ///< a circuit breaker opened
    ServerCrash,  ///< a server crash was injected
    Manual,       ///< explicit trigger (tests / operators)
    DomainOutage  ///< a correlated failure-domain outage hit
};

/** Flight-recorder ring capacity in span records — the "last N seconds"
 *  of evidence. At 48 B/record it holds 16k spans in ~768 KiB. */
inline constexpr std::size_t kFlightCapacity = 1 << 14;

/** Flight-recorder switch (part of ObsOptions; disabled by default). */
struct FlightConfig
{
    bool enabled = false;
};

/**
 * Always-on bounded span ring that freezes a snapshot at the first
 * anomaly (observability pillar 5).
 *
 * Unlike the sampling TraceRecorder, a flight recorder keeps EVERY span
 * in a small ring: steady-state cost is one ring write per span and zero
 * allocation, and no up-front sampling guess is needed. When an anomaly
 * trigger arrives (SLO burn alert, breaker open, server crash) the
 * current ring is copied into a frozen dump — the seconds leading up to
 * the incident — and later triggers and spans only bump counters, so
 * the dump always shows the FIRST incident, not the last. Like its host
 * recorder it never touches simulated time: enabling it is bit-identical
 * in every simulation output.
 */
class FlightRecorder
{
  public:
    void configure(const FlightConfig &config);
    bool enabled() const { return ring_.enabled(); }

    /** Record one span (caller checks enabled()). Once the dump is
     *  frozen nothing reads the ring again, so the span is only
     *  counted. */
    void
    record(SpanKind kind, std::int64_t request, std::int32_t function,
           std::int32_t server, std::int64_t instance, sim::Tick start,
           sim::Tick duration)
    {
        if (triggered()) {
            ++afterFreeze_;
            return;
        }
        ring_.record(kind, request, function, server, instance, start,
                     duration);
    }

    /** Record a cluster-level instant event (counted only, once
     *  frozen). */
    void
    clusterEvent(SpanKind kind, std::int32_t server, sim::Tick at)
    {
        if (triggered()) {
            ++afterFreeze_;
            return;
        }
        ring_.clusterEvent(kind, server, at);
    }

    /** Note an anomaly at @p at; the first call freezes the dump. */
    void trigger(FlightTrigger why, sim::Tick at);

    /** Whether a dump has been frozen. */
    bool triggered() const { return trigger_ != FlightTrigger::None; }

    /** First trigger cause (None until triggered). */
    FlightTrigger triggerCause() const { return trigger_; }

    /** Tick of the first trigger (meaningful once triggered). */
    sim::Tick triggerAt() const { return triggerAt_; }

    /** Triggers observed in total (including post-freeze ones). */
    std::uint64_t triggerCount() const { return triggerCount_; }

    /** The frozen dump (empty until triggered), oldest span first; ends
     *  with a FlightDump marker at the trigger instant. */
    const std::vector<SpanRecord> &dump() const { return dump_; }

    /** Spans recorded over the recorder's lifetime. */
    std::uint64_t
    recorded() const
    {
        return ring_.recorded() + afterFreeze_;
    }

    /** Write the frozen dump (or, untriggered, the live ring) as Chrome
     *  trace-event JSON. */
    void writeChromeTrace(std::ostream &os) const;

  private:
    /** Sampling recorder pinned to rate 1.0: reuses the ring mechanics,
     *  every span passes the threshold. */
    TraceRecorder ring_;
    FlightTrigger trigger_ = FlightTrigger::None;
    sim::Tick triggerAt_ = 0;
    std::uint64_t triggerCount_ = 0;
    /** Spans recorded after the freeze (counted, not stored). */
    std::uint64_t afterFreeze_ = 0;
    std::vector<SpanRecord> dump_;
};

} // namespace infless::obs

#endif // INFLESS_OBS_TRACE_RECORDER_HH
