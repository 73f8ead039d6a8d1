#include "obs/telemetry.hh"

#include <cmath>
#include <ostream>

#include "sim/time.hh"

namespace infless::obs {

namespace {

/** JSON/Prometheus-safe number: NaN/inf are not valid JSON literals. */
double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

double
ticksToMsD(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::kTicksPerMs);
}

void
jsonEscape(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
}

} // namespace

void
TelemetryRegistry::setRun(const std::string &benchmark, std::uint64_t seed,
                          double duration_sec)
{
    benchmark_ = benchmark;
    seed_ = seed;
    durationSec_ = duration_sec;
}

void
TelemetryRegistry::counter(const std::string &name, double value,
                           const std::string &help)
{
    scalars_.push_back(Scalar{name, help, finite(value), true});
}

void
TelemetryRegistry::gauge(const std::string &name, double value,
                         const std::string &help)
{
    scalars_.push_back(Scalar{name, help, finite(value), false});
}

void
TelemetryRegistry::histogram(const std::string &name, std::uint64_t count,
                             double mean, double p50, double p99,
                             double min, double max,
                             const std::string &help)
{
    Histogram h;
    h.name = name;
    h.help = help;
    h.unit = "us";
    h.count = count;
    h.mean = finite(mean);
    h.p50 = finite(p50);
    h.p99 = finite(p99);
    h.min = finite(min);
    h.max = finite(max);
    histograms_.push_back(std::move(h));
}

void
TelemetryRegistry::latencyHistogram(const std::string &name,
                                    const metrics::LatencyHistogram &hist,
                                    const std::string &help)
{
    Histogram h;
    h.name = name;
    h.help = help;
    h.unit = "ms";
    h.count = static_cast<std::uint64_t>(hist.count());
    h.mean = finite(hist.mean() /
                    static_cast<double>(sim::kTicksPerMs));
    h.p50 = ticksToMsD(hist.percentile(50.0));
    h.p99 = ticksToMsD(hist.percentile(99.0));
    h.min = ticksToMsD(hist.min());
    h.max = ticksToMsD(hist.max());
    // Native bucket data: cumulative counts at the log-bucket upper
    // edges, skipping empty buckets to keep the exposition compact (the
    // cumulative counts are unaffected — Prometheus interpolates).
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < hist.bucketCount(); ++b) {
        std::int64_t samples = hist.bucketSamples(b);
        if (samples == 0)
            continue;
        cumulative += static_cast<std::uint64_t>(samples);
        h.bucketLe.push_back(ticksToMsD(hist.bucketUpperBound(b)));
        h.bucketCumulative.push_back(cumulative);
    }
    h.sum = finite(hist.sum() / static_cast<double>(sim::kTicksPerMs));
    histograms_.push_back(std::move(h));
}

void
TelemetryRegistry::addRunMetrics(const metrics::RunMetrics &m)
{
    for (const metrics::CounterRow &row : metrics::kCounterRows)
        counter(row.name, static_cast<double>(m.count(row.counter)),
                row.help);

    gauge("slo_violation_rate", m.sloViolationRate(),
          "Fraction of requests violating the SLO (drops included)");
    gauge("cold_launch_rate", m.coldLaunchRate(),
          "Fraction of launches that were cold");
    gauge("mean_batch_fill", m.meanBatchFill(),
          "Mean requests per executed batch");
    gauge("exec_cache_hit_rate", m.execCacheHitRate(),
          "Latency-cache hit fraction");
    if (durationSec_ > 0.0) {
        gauge("throughput_rps",
              static_cast<double>(m.completions()) / durationSec_,
              "Completions per second of simulated time");
    }

    latencyHistogram("latency_ms", m.latency(),
                     "End-to-end request latency");
    latencyHistogram("queue_ms", m.queueTime(),
                     "Batch-queue waiting time");
    latencyHistogram("exec_ms", m.execTime(), "Batch execution time");
    latencyHistogram("cold_ms", m.coldTime(),
                     "Cold-start time requests waited through");
    latencyHistogram("batch_ms", m.batchTime(),
                     "Batch-formation wait inside the queue time");
}

void
TelemetryRegistry::addOverheads(const OverheadProfiler &profiler)
{
    constexpr Phase kPhases[] = {Phase::Schedule, Phase::CopSolve,
                                 Phase::Autoscaler,
                                 Phase::ColdStartPolicy};
    for (Phase phase : kPhases) {
        PhaseStats s = profiler.stats(phase);
        histogram(std::string("overhead_") + phaseName(phase) + "_us",
                  s.count, s.meanUs, s.p50Us, s.p99Us, s.minUs, s.maxUs,
                  std::string("Wall-clock overhead of the ") +
                      phaseName(phase) + " controller phase");
    }
}

void
TelemetryRegistry::addTimeline(const metrics::TimelineSampler &timeline)
{
    for (const std::string &name : timeline.names()) {
        Series s;
        s.name = name;
        s.timesSec.reserve(timeline.times().size());
        for (sim::Tick t : timeline.times())
            s.timesSec.push_back(sim::ticksToSec(t));
        s.values = timeline.series(name);
        series_.push_back(std::move(s));
    }
}

void
TelemetryRegistry::writeJson(std::ostream &os) const
{
    os << "{\n"
       << "  \"schema_version\": " << kTelemetrySchemaVersion << ",\n"
       << "  \"benchmark\": \"";
    jsonEscape(os, benchmark_);
    os << "\",\n"
       << "  \"seed\": " << seed_ << ",\n"
       << "  \"duration_sec\": " << finite(durationSec_) << ",\n"
       << "  \"truncated\": " << (truncated_ ? "true" : "false") << ",\n";

    os << "  \"counters\": {";
    bool first = true;
    for (const Scalar &s : scalars_) {
        if (!s.isCounter)
            continue;
        os << (first ? "\n" : ",\n") << "    \"";
        jsonEscape(os, s.name);
        os << "\": " << s.value;
        first = false;
    }
    os << "\n  },\n";

    os << "  \"gauges\": {";
    first = true;
    for (const Scalar &s : scalars_) {
        if (s.isCounter)
            continue;
        os << (first ? "\n" : ",\n") << "    \"";
        jsonEscape(os, s.name);
        os << "\": " << s.value;
        first = false;
    }
    os << "\n  },\n";

    os << "  \"histograms\": {";
    first = true;
    for (const Histogram &h : histograms_) {
        os << (first ? "\n" : ",\n") << "    \"";
        jsonEscape(os, h.name);
        os << "\": {\"count\": " << h.count << ", \"unit\": \"" << h.unit
           << "\", \"mean\": " << h.mean << ", \"p50\": " << h.p50
           << ", \"p99\": " << h.p99 << ", \"min\": " << h.min
           << ", \"max\": " << h.max << "}";
        first = false;
    }
    os << "\n  },\n";

    os << "  \"timelines\": {";
    first = true;
    for (const Series &s : series_) {
        os << (first ? "\n" : ",\n") << "    \"";
        jsonEscape(os, s.name);
        os << "\": {\"time_sec\": [";
        for (std::size_t i = 0; i < s.timesSec.size(); ++i)
            os << (i ? ", " : "") << s.timesSec[i];
        os << "], \"values\": [";
        for (std::size_t i = 0; i < s.values.size(); ++i)
            os << (i ? ", " : "") << finite(s.values[i]);
        os << "]}";
        first = false;
    }
    os << "\n  }\n}\n";
}

namespace {

/** Prometheus metric names allow [a-zA-Z0-9_:] only. */
std::string
promName(const std::string &name)
{
    std::string out = "infless_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

void
promLine(std::ostream &os, const std::string &name,
         const std::string &help, const std::string &type, double value)
{
    if (!help.empty())
        os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
    os << name << " " << value << "\n";
}

} // namespace

void
TelemetryRegistry::writePrometheus(std::ostream &os) const
{
    os << "# INFless telemetry exposition (schema v"
       << kTelemetrySchemaVersion << ", benchmark " << benchmark_
       << ", seed " << seed_ << ")\n";
    promLine(os, "infless_run_duration_seconds", "Simulated run length",
             "gauge", finite(durationSec_));
    promLine(os, "infless_run_truncated",
             "1 when the event drain hit the safety valve", "gauge",
             truncated_ ? 1.0 : 0.0);
    for (const Scalar &s : scalars_) {
        promLine(os, promName(s.name), s.help,
                 s.isCounter ? "counter" : "gauge", s.value);
    }
    for (const Histogram &h : histograms_) {
        std::string base = promName(h.name);
        if (!h.help.empty())
            os << "# HELP " << base << " " << h.help << " (" << h.unit
               << ")\n";
        os << "# TYPE " << base << " summary\n";
        os << base << "_count " << h.count << "\n";
        os << base << "_mean " << h.mean << "\n";
        os << base << "_p50 " << h.p50 << "\n";
        os << base << "_p99 " << h.p99 << "\n";
        os << base << "_min " << h.min << "\n";
        os << base << "_max " << h.max << "\n";
        if (h.bucketLe.empty())
            continue;
        // Native histogram exposition alongside the summary: cumulative
        // `le` buckets (ms) Prometheus can histogram_quantile() over.
        std::string native = base + "_hist";
        if (!h.help.empty())
            os << "# HELP " << native << " " << h.help << " (" << h.unit
               << ", native buckets)\n";
        os << "# TYPE " << native << " histogram\n";
        for (std::size_t b = 0; b < h.bucketLe.size(); ++b)
            os << native << "_bucket{le=\"" << h.bucketLe[b] << "\"} "
               << h.bucketCumulative[b] << "\n";
        os << native << "_bucket{le=\"+Inf\"} " << h.count << "\n";
        os << native << "_sum " << h.sum << "\n";
        os << native << "_count " << h.count << "\n";
    }
}

} // namespace infless::obs
