#include "obs/trace_recorder.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace infless::obs {

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Arrival:
        return "arrival";
      case SpanKind::ColdStart:
        return "cold_start";
      case SpanKind::Queue:
        return "queue";
      case SpanKind::Exec:
        return "exec";
      case SpanKind::Complete:
        return "complete";
      case SpanKind::Drop:
        return "drop";
      case SpanKind::Retry:
        return "retry";
      case SpanKind::ServerCrash:
        return "server_crash";
      case SpanKind::ServerRecovery:
        return "server_recovery";
      case SpanKind::Shed:
        return "shed";
      case SpanKind::BreakerOpen:
        return "breaker_open";
      case SpanKind::BreakerHalfOpen:
        return "breaker_half_open";
      case SpanKind::BreakerClose:
        return "breaker_close";
      case SpanKind::BrownoutEnter:
        return "brownout_enter";
      case SpanKind::BrownoutExit:
        return "brownout_exit";
      case SpanKind::BatchWait:
        return "batch_wait";
      case SpanKind::FlightDump:
        return "flight_dump";
      case SpanKind::HealthEjection:
        return "health_ejection";
      case SpanKind::HealthReadmission:
        return "health_readmission";
      case SpanKind::DomainOutage:
        return "domain_outage";
      case SpanKind::DomainRepair:
        return "domain_repair";
    }
    return "?";
}

void
TraceRecorder::configure(const TraceConfig &config)
{
    sim::simAssert(config.sampleRate >= 0.0 && config.sampleRate <= 1.0,
                   "trace sample rate out of [0, 1]: ", config.sampleRate);
    ring_.clear();
    head_ = 0;
    overwritten_ = 0;
    recorded_ = 0;
    if (config.sampleRate <= 0.0) {
        threshold_ = 0;
        capacity_ = 0;
        ring_.shrink_to_fit();
        return;
    }
    sim::simAssert(config.capacity > 0, "trace ring capacity must be > 0");
    capacity_ = config.capacity;
    threshold_ = static_cast<std::uint64_t>(
        std::llround(config.sampleRate * 4294967296.0)); // rate * 2^32
    ring_.reserve(capacity_);
}

bool
TraceRecorder::sampled(std::int64_t request) const
{
    if (threshold_ == 0)
        return false;
    // Salted hash of the request index; the low 32 bits against the
    // rate-scaled threshold give a deterministic Bernoulli(rate).
    std::uint64_t h = sim::hashCombine(
        static_cast<std::uint64_t>(request), 0x0B5E'CAB1'E000'0001ULL);
    return (h & 0xffffffffULL) < threshold_;
}

void
TraceRecorder::append(const SpanRecord &rec)
{
    ++recorded_;
    if (ring_.size() < capacity_) {
        ring_.push_back(rec);
        return;
    }
    ring_[head_] = rec;
    if (++head_ == capacity_)
        head_ = 0;
    ++overwritten_;
}

void
TraceRecorder::record(SpanKind kind, std::int64_t request,
                      std::int32_t function, std::int32_t server,
                      std::int64_t instance, sim::Tick start,
                      sim::Tick duration)
{
    if (threshold_ == 0)
        return;
    SpanRecord rec;
    rec.kind = kind;
    rec.request = request;
    rec.function = function;
    rec.server = server;
    rec.instance = instance;
    rec.start = start;
    rec.duration = duration;
    append(rec);
}

void
TraceRecorder::clusterEvent(SpanKind kind, std::int32_t server,
                            sim::Tick at)
{
    if (threshold_ == 0)
        return;
    SpanRecord rec;
    rec.kind = kind;
    rec.server = server;
    rec.start = at;
    append(rec);
}

std::vector<SpanRecord>
TraceRecorder::snapshot() const
{
    std::vector<SpanRecord> out;
    out.reserve(ring_.size());
    // Once full, head_ points at the oldest record.
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

namespace {

/** Track row of a span: servers are pids, instances are tids. Pid 1 is
 *  the gateway (spans with no placement yet); server s maps to s + 2 so
 *  every pid stays positive, which some trace viewers require. */
int
pidOf(const SpanRecord &rec)
{
    return rec.server < 0 ? 1 : rec.server + 2;
}

int
tidOf(const SpanRecord &rec)
{
    return rec.instance < 0 ? 0 : static_cast<int>(rec.instance % 100000) + 1;
}

bool
isInstant(SpanKind kind)
{
    switch (kind) {
      case SpanKind::ColdStart:
      case SpanKind::Queue:
      case SpanKind::Exec:
      case SpanKind::BatchWait:
        return false;
      default:
        return true;
    }
}

bool
isClusterEvent(SpanKind kind)
{
    return kind == SpanKind::ServerCrash ||
           kind == SpanKind::ServerRecovery ||
           kind == SpanKind::HealthEjection ||
           kind == SpanKind::HealthReadmission ||
           kind == SpanKind::DomainOutage ||
           kind == SpanKind::DomainRepair;
}

/** Function-level overload control transitions: process-scoped markers
 *  (like faults) but categorized separately and tagged with the
 *  function id. */
bool
isOverloadEvent(SpanKind kind)
{
    switch (kind) {
      case SpanKind::BreakerOpen:
      case SpanKind::BreakerHalfOpen:
      case SpanKind::BreakerClose:
      case SpanKind::BrownoutEnter:
      case SpanKind::BrownoutExit:
        return true;
      default:
        return false;
    }
}

} // namespace

void
writeChromeTrace(std::ostream &os, const std::vector<SpanRecord> &spans)
{
    os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    // Process-name metadata rows: one per track (gateway + seen servers).
    std::set<int> pids;
    for (const SpanRecord &rec : spans)
        pids.insert(pidOf(rec));
    for (int pid : pids) {
        sep();
        os << "{\"ph\": \"M\", \"pid\": " << pid
           << ", \"name\": \"process_name\", \"args\": {\"name\": \"";
        if (pid == 1)
            os << "gateway";
        else
            os << "server " << pid - 2;
        os << "\"}}";
    }

    for (const SpanRecord &rec : spans) {
        sep();
        const char *name = spanKindName(rec.kind);
        if (rec.kind == SpanKind::FlightDump) {
            // Dump marker: a process-scoped instant on the gateway track
            // at the trigger instant, so the incident moment is findable
            // by name in Perfetto.
            os << "{\"ph\": \"i\", \"s\": \"p\", \"cat\": \"flight\", "
               << "\"name\": \"" << name << "\", \"pid\": 1, \"tid\": 0, "
               << "\"ts\": " << rec.start
               << ", \"args\": {\"trigger\": " << rec.request << "}}";
            continue;
        }
        if (isClusterEvent(rec.kind)) {
            // Process-scoped instant: draws a marker across the server's
            // whole track in Perfetto.
            os << "{\"ph\": \"i\", \"s\": \"p\", \"cat\": \"fault\", "
               << "\"name\": \"" << name << "\", \"pid\": " << pidOf(rec)
               << ", \"tid\": 0, \"ts\": " << rec.start << "}";
            continue;
        }
        if (isOverloadEvent(rec.kind)) {
            os << "{\"ph\": \"i\", \"s\": \"p\", \"cat\": \"overload\", "
               << "\"name\": \"" << name << "\", \"pid\": " << pidOf(rec)
               << ", \"tid\": 0, \"ts\": " << rec.start
               << ", \"args\": {\"function\": " << rec.function << "}}";
            continue;
        }
        if (isInstant(rec.kind)) {
            os << "{\"ph\": \"i\", \"s\": \"t\", \"cat\": \"request\", "
               << "\"name\": \"" << name << "\", \"pid\": " << pidOf(rec)
               << ", \"tid\": " << tidOf(rec) << ", \"ts\": " << rec.start
               << ", \"args\": {\"request\": " << rec.request
               << ", \"function\": " << rec.function << "}}";
            continue;
        }
        // Ticks are microseconds, the trace-event native unit: ts and
        // dur pass through unconverted.
        os << "{\"ph\": \"X\", \"cat\": \"request\", \"name\": \"" << name
           << "\", \"pid\": " << pidOf(rec) << ", \"tid\": " << tidOf(rec)
           << ", \"ts\": " << rec.start << ", \"dur\": " << rec.duration
           << ", \"args\": {\"request\": " << rec.request
           << ", \"function\": " << rec.function << "}}";
    }
    os << "\n]\n}\n";
}

void
TraceRecorder::writeChromeTrace(std::ostream &os) const
{
    obs::writeChromeTrace(os, snapshot());
}

void
FlightRecorder::configure(const FlightConfig &config)
{
    TraceConfig tc;
    tc.sampleRate = config.enabled ? 1.0 : 0.0;
    tc.capacity = kFlightCapacity;
    ring_.configure(tc);
    trigger_ = FlightTrigger::None;
    triggerAt_ = 0;
    triggerCount_ = 0;
    afterFreeze_ = 0;
    dump_.clear();
}

void
FlightRecorder::trigger(FlightTrigger why, sim::Tick at)
{
    if (!ring_.enabled() || why == FlightTrigger::None)
        return;
    ++triggerCount_;
    if (trigger_ != FlightTrigger::None)
        return; // dump already frozen at the first incident
    trigger_ = why;
    triggerAt_ = at;
    dump_ = ring_.snapshot();
    SpanRecord marker;
    marker.kind = SpanKind::FlightDump;
    marker.start = at;
    marker.request = static_cast<std::int64_t>(why);
    dump_.push_back(marker);
}

void
FlightRecorder::writeChromeTrace(std::ostream &os) const
{
    if (trigger_ != FlightTrigger::None) {
        obs::writeChromeTrace(os, dump_);
        return;
    }
    obs::writeChromeTrace(os, ring_.snapshot());
}

} // namespace infless::obs
