/**
 * @file
 * Shared experiment harness for the per-figure bench binaries.
 *
 * Provides system construction, the OSVT / Q&A application bundles of
 * §5.1, scenario runners returning the metrics the paper reports, and a
 * stress-test helper measuring maximum sustainable throughput.
 */

#ifndef INFLESS_BENCH_COMMON_HARNESS_HH
#define INFLESS_BENCH_COMMON_HARNESS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/platform.hh"
#include "obs/telemetry.hh"
#include "workload/azure_synth.hh"
#include "workload/trace.hh"

namespace infless::bench {

/** The comparison systems of Table 3 (plus BATCH+RS from Fig. 17b). */
enum class SystemKind
{
    Infless,
    OpenFaas,
    Batch,
    BatchRs
};

/** Display name. */
const char *systemName(SystemKind kind);

/** The three head-to-head systems. */
inline constexpr SystemKind kMainSystems[] = {
    SystemKind::OpenFaas, SystemKind::Batch, SystemKind::Infless};

/** Construct a platform of the given kind. */
std::unique_ptr<core::Platform> makeSystem(SystemKind kind,
                                           std::size_t servers,
                                           core::PlatformOptions opts = {});

/** One deployed function plus its request trace. */
struct WorkloadSpec
{
    std::string model;
    sim::Tick slo = 200 * sim::kTicksPerMs;
    workload::RateSeries series;
    int maxBatch = 32;
};

/** The OSVT application (SSD + MobileNet + ResNet-50, SLO 200 ms). */
std::vector<WorkloadSpec> osvtWorkload(double rps_per_fn,
                                       sim::Tick duration,
                                       sim::Tick slo = 200 *
                                                       sim::kTicksPerMs);

/** The Q&A robot (TextCNN-69 + LSTM-2365 + DSSM, SLO 50 ms). */
std::vector<WorkloadSpec> qaWorkload(double rps_per_fn,
                                     sim::Tick duration);

/** A bundle driven by one of the Fig. 10 production patterns. */
std::vector<WorkloadSpec>
patternWorkload(const std::vector<std::string> &models,
                workload::TracePattern pattern, double mean_rps_per_fn,
                sim::Tick duration, sim::Tick slo, std::uint64_t seed);

/** Aggregate results of one scenario run. */
struct ScenarioResult
{
    std::string system;
    double offeredRps = 0.0;
    double completedRps = 0.0;
    double throughputPerResource = 0.0;
    double sloViolationRate = 0.0;
    double meanFragmentRatio = 0.0;
    /** Fraction of aggregate server-uptime over the run. */
    double availability = 1.0;
    /** Mean crash-to-recovery time, seconds (0 if no recovery). */
    double meanRestoreSec = 0.0;
    /** Whether the event engine hit its safety cap (results suspect). */
    bool truncated = false;
    /** The run's aggregate metrics: every counter and distribution. */
    metrics::RunMetrics metrics;
};

/**
 * Deploy @p workloads on @p platform, run to the longest trace end plus
 * @p grace, and summarize.
 *
 * When telemetry export is active (INFLESS_TELEMETRY=1 in the
 * environment), a full telemetry snapshot of the platform is also
 * written to telemetry.json + metrics.prom in the working directory.
 */
ScenarioResult runScenario(core::Platform &platform,
                           const std::vector<WorkloadSpec> &workloads,
                           sim::Tick grace = 10 * sim::kTicksPerSec);

// Telemetry export ----------------------------------------------------------

/** Whether INFLESS_TELEMETRY=1 (or any non-"0" value) is set. */
bool telemetryEnabled();

/** Whether INFLESS_FLIGHT_RECORDER=1 (or any non-"0" value) is set;
 *  makeSystem then arms the always-on flight-recorder span ring. */
bool flightRecorderEnabled();

/**
 * Write a triggered flight recorder's frozen dump as Perfetto-loadable
 * chrome-trace JSON. Serialized across threads like writeTelemetryFiles.
 * No-op (and no file) when the recorder never triggered.
 */
void writeFlightDump(const obs::FlightRecorder &recorder,
                     const std::string &path = "flight_trace.json");

/**
 * Snapshot a finished platform run into a TelemetryRegistry: run
 * metadata, the RunMetrics counter/gauge/histogram set, controller
 * overhead histograms, and platform-level gauges (availability,
 * fragmentation).
 */
obs::TelemetryRegistry buildTelemetry(const core::Platform &platform,
                                      const std::string &benchmark);

/**
 * Write @p telemetry to @p json_path (schema-versioned JSON) and
 * @p prom_path (Prometheus text exposition). Serialized across threads
 * so concurrent ParallelSweep scenarios do not interleave writes.
 */
void writeTelemetryFiles(const obs::TelemetryRegistry &telemetry,
                         const std::string &json_path = "telemetry.json",
                         const std::string &prom_path = "metrics.prom");

/** Factory producing a fresh platform per stress probe. */
using SystemFactory = std::function<std::unique_ptr<core::Platform>()>;

/**
 * The geometric offered-load ladder of the stress sweep: 250, 500, ...
 * up to @p max_offered_per_fn inclusive.
 */
std::vector<double> stressLoadLadder(double max_offered_per_fn);

/**
 * Replay the serial knee search over per-level goodputs: track the best
 * value and stop after two consecutive non-improving levels. Kept
 * separate from the sweep so the levels can be evaluated in parallel
 * while the reported knee stays bit-identical to the serial loop.
 */
double kneeFromGoodputs(const std::vector<double> &goodputs);

/**
 * Stress test (Fig. 11): sweep offered load levels up to
 * @p max_offered_per_fn and report the peak in-SLO goodput (the knee of
 * the goodput curve).
 */
double measureMaxRps(SystemKind kind,
                     const std::vector<std::string> &models, sim::Tick slo,
                     std::size_t servers, core::PlatformOptions opts = {},
                     double max_offered_per_fn = 32'000.0,
                     sim::Tick duration = 30 * sim::kTicksPerSec);

/**
 * Knee-finding sweep with a custom platform factory (ablations). Ladder
 * levels run concurrently via ParallelSweep, so @p factory must be safe
 * to call from multiple threads (constructing independent platforms is).
 */
double measureMaxRps(const SystemFactory &factory,
                     const std::vector<std::string> &models, sim::Tick slo,
                     double max_offered_per_fn = 32'000.0,
                     sim::Tick duration = 30 * sim::kTicksPerSec,
                     int max_batch = 32);

/** Single-level probe on an explicit platform (goodput at one load). */
double measureMaxRps(core::Platform &platform,
                     const std::vector<std::string> &models, sim::Tick slo,
                     double offered_per_fn,
                     sim::Tick duration = 30 * sim::kTicksPerSec,
                     int max_batch = 32);

} // namespace infless::bench

#endif // INFLESS_BENCH_COMMON_HARNESS_HH
