/** TelemetryRegistry JSON / Prometheus export structure. */

#include "obs/telemetry.hh"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "metrics/collector.hh"
#include "mini_json.hh"
#include "obs/prof_scope.hh"
#include "sim/time.hh"

namespace {

using namespace infless;
using obs::OverheadProfiler;
using obs::Phase;
using obs::TelemetryRegistry;

metrics::RunMetrics
sampleMetrics()
{
    metrics::RunMetrics m;
    m.add(metrics::Counter::Arrivals, 10);
    for (int i = 0; i < 8; ++i) {
        metrics::LatencyBreakdown parts{0, 2 * sim::kTicksPerMs,
                                        30 * sim::kTicksPerMs};
        m.recordCompletion((i + 1) * sim::kTicksPerSec, parts,
                           200 * sim::kTicksPerMs);
    }
    m.add(metrics::Counter::Drops, 2);
    m.add(metrics::Counter::ColdLaunches);
    m.add(metrics::Counter::WarmLaunches);
    m.recordBatch(4);
    m.recordExecCache(90, 10);
    return m;
}

TelemetryRegistry
sampleRegistry()
{
    TelemetryRegistry telemetry;
    telemetry.setRun("unit_test", 42, 10.0);
    telemetry.addRunMetrics(sampleMetrics());

    OverheadProfiler prof;
    prof.setEnabled(true);
    prof.record(Phase::Schedule, 5'000);
    prof.record(Phase::Schedule, 7'000);
    telemetry.addOverheads(prof);

    telemetry.gauge("cluster_availability", 0.99, "uptime fraction");
    return telemetry;
}

std::string
jsonOf(const TelemetryRegistry &telemetry)
{
    std::ostringstream os;
    telemetry.writeJson(os);
    return os.str();
}

TEST(Telemetry, JsonIsValidAndSchemaVersioned)
{
    std::string json = jsonOf(sampleRegistry());
    EXPECT_TRUE(infless::testing::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\": \"unit_test\""),
              std::string::npos);
    EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"truncated\": false"), std::string::npos);
}

TEST(Telemetry, JsonCarriesKnownCounterValues)
{
    std::string json = jsonOf(sampleRegistry());
    EXPECT_NE(json.find("\"arrivals_total\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"completions_total\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"drops_total\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"exec_cache_hits_total\": 90"),
              std::string::npos);
    EXPECT_NE(json.find("\"exec_cache_misses_total\": 10"),
              std::string::npos);
    EXPECT_NE(json.find("\"cluster_availability\": 0.99"),
              std::string::npos);
}

TEST(Telemetry, JsonExportsAllOverheadPhases)
{
    std::string json = jsonOf(sampleRegistry());
    // All four phases must be present even when unrecorded, so CI greps
    // and downstream dashboards never miss keys.
    EXPECT_NE(json.find("\"overhead_scheduler_us\""), std::string::npos);
    EXPECT_NE(json.find("\"overhead_cop_us\""), std::string::npos);
    EXPECT_NE(json.find("\"overhead_autoscaler_us\""), std::string::npos);
    EXPECT_NE(json.find("\"overhead_coldstart_policy_us\""),
              std::string::npos);
}

TEST(Telemetry, EmptyRegistryStillWritesValidJson)
{
    TelemetryRegistry telemetry;
    std::string json = jsonOf(telemetry);
    EXPECT_TRUE(infless::testing::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"benchmark\": \"unnamed\""), std::string::npos);
}

TEST(Telemetry, TruncatedFlagPropagates)
{
    TelemetryRegistry telemetry;
    telemetry.setTruncated(true);
    std::string json = jsonOf(telemetry);
    EXPECT_NE(json.find("\"truncated\": true"), std::string::npos);

    std::ostringstream prom;
    telemetry.writePrometheus(prom);
    EXPECT_NE(prom.str().find("infless_run_truncated 1"),
              std::string::npos);
}

TEST(Telemetry, PrometheusExpositionParsesLineByLine)
{
    std::ostringstream os;
    sampleRegistry().writePrometheus(os);
    std::istringstream in(os.str());

    int samples = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // Comment lines must be HELP/TYPE or the banner.
            bool known = line.rfind("# HELP ", 0) == 0 ||
                         line.rfind("# TYPE ", 0) == 0 ||
                         line.rfind("# INFless", 0) == 0;
            EXPECT_TRUE(known) << line;
            continue;
        }
        // Sample line: <name>[{labels}] <value>, name restricted to
        // [a-zA-Z0-9_:], value parseable as double.
        auto space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << line;
        std::string name = line.substr(0, space);
        // Native histogram buckets carry an le label: strip a
        // well-formed {...} block before the charset check.
        auto brace = name.find('{');
        if (brace != std::string::npos) {
            ASSERT_EQ(name.back(), '}') << line;
            name = name.substr(0, brace);
        }
        EXPECT_EQ(name.rfind("infless_", 0), 0u) << line;
        for (char c : name) {
            bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
            EXPECT_TRUE(ok) << "bad char in metric name: " << line;
        }
        std::size_t consumed = 0;
        double value = std::stod(line.substr(space + 1), &consumed);
        (void)value;
        EXPECT_GT(consumed, 0u) << line;
        ++samples;
    }
    // Scalars + 6 summary lines per histogram: a substantial exposition.
    EXPECT_GT(samples, 40);
}

TEST(Telemetry, PrometheusNativeHistogramBuckets)
{
    std::ostringstream os;
    sampleRegistry().writePrometheus(os);
    std::string prom = os.str();
    // Native histogram exposition rides alongside the summary lines
    // under a `_hist` suffix so both representations can be scraped.
    EXPECT_NE(prom.find("# TYPE infless_latency_ms_hist histogram"),
              std::string::npos);
    EXPECT_NE(prom.find("infless_latency_ms_hist_count 8"),
              std::string::npos);
    EXPECT_NE(prom.find("infless_latency_ms_hist_sum"),
              std::string::npos);

    // Bucket lines: cumulative counts must be monotone and end with an
    // +Inf bucket equal to the count.
    std::istringstream in(prom);
    std::string line;
    const std::string prefix = "infless_latency_ms_hist_bucket{le=\"";
    long prev = -1;
    long inf_value = -1;
    int buckets = 0;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        ++buckets;
        auto close = line.find("\"} ");
        ASSERT_NE(close, std::string::npos) << line;
        long value = std::stol(line.substr(close + 3));
        EXPECT_GE(value, prev) << line;
        prev = value;
        if (line.compare(prefix.size(), 4, "+Inf") == 0)
            inf_value = value;
    }
    EXPECT_GE(buckets, 2);
    EXPECT_EQ(inf_value, 8);
}

TEST(Telemetry, BatchWaitHistogramExported)
{
    std::ostringstream os;
    sampleRegistry().writePrometheus(os);
    std::string prom = os.str();
    // The attribution split's batch-formation component is a first-class
    // histogram (zero-valued here: the sample breakdowns carry no batch
    // wait, but the keys must exist for scrapers).
    EXPECT_NE(prom.find("# TYPE infless_batch_ms summary"),
              std::string::npos);
    EXPECT_NE(prom.find("infless_batch_ms_count 8"), std::string::npos);
}

TEST(Telemetry, PrometheusCounterAndSummaryTypes)
{
    std::ostringstream os;
    sampleRegistry().writePrometheus(os);
    std::string prom = os.str();
    EXPECT_NE(prom.find("# TYPE infless_arrivals_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE infless_slo_violation_rate gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE infless_overhead_scheduler_us summary"),
              std::string::npos);
    EXPECT_NE(prom.find("infless_overhead_scheduler_us_count 2"),
              std::string::npos);
    EXPECT_NE(prom.find("infless_latency_ms_count 8"), std::string::npos);
}

} // namespace
