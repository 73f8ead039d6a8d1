/**
 * @file
 * Chaos/availability bench: the fig11 OSVT workload under injected
 * server crashes, sweeping failure rate x retry policy for INFless and
 * the baselines.
 *
 * Not a paper figure: the paper's testbed never loses nodes mid-run, but
 * any production deployment does. The sweep quantifies (a) how much
 * goodput each system gives back when servers crash, and (b) how much of
 * it the failover retry policy recovers. Each row also self-checks the
 * request conservation law (completions + drops == arrivals): a crash
 * must never make a request vanish from the accounting.
 *
 * Emits BENCH_chaos.json plus a per-second drop/retry timeline
 * (chaos_timeline.csv) for one crashy INFless run. `--smoke` shrinks the
 * sweep for CI. `--trace` additionally records the full request
 * lifecycle of that run and writes a Perfetto/chrome-tracing-loadable
 * trace.json.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/harness.hh"
#include "common/parallel_sweep.hh"
#include "metrics/report.hh"
#include "metrics/timeline.hh"

namespace {

using namespace infless;
using namespace infless::bench;
using metrics::fmt;
using metrics::fmtPercent;
using metrics::printHeading;
using metrics::TextTable;

struct SweepPoint
{
    SystemKind kind = SystemKind::Infless;
    double mtbfSec = 0.0; ///< 0 = no faults
    bool retriesOn = false;
    ScenarioResult result;
    bool consistent = false;
    /** Burn-rate alert firing edges (the monitor runs observationally). */
    std::int64_t sloAlerts = 0;

    double sloAttainment() const
    {
        return 1.0 - result.sloViolationRate;
    }
};

struct SweepConfig
{
    std::size_t servers = 8;
    double rpsPerFn = 150.0;
    // 30 simulated minutes: at MTBF 1h x 8 servers the expected crash
    // count is 4, so even the mildest failure rate exercises failover.
    sim::Tick duration = 30 * 60 * sim::kTicksPerSec;
    sim::Tick grace = 30 * sim::kTicksPerSec;
    double mttrSec = 300.0;
    std::vector<double> mtbfs = {0.0, 3600.0, 600.0};
    std::vector<SystemKind> systems = {
        SystemKind::OpenFaas, SystemKind::Batch, SystemKind::Infless};
};

core::PlatformOptions
optionsFor(const SweepConfig &cfg, double mtbf_sec, bool retries)
{
    core::PlatformOptions opts;
    opts.faults.serverMtbfSec = mtbf_sec;
    opts.faults.serverMttrSec = cfg.mttrSec;
    // Stop new crashes at trace end so every retry chain can finish
    // inside the drain grace and the conservation check stays exact.
    opts.faults.crashHorizon = cfg.duration;
    opts.retry = retries ? faults::RetryPolicy{}
                         : faults::RetryPolicy::none();
    // Observational SLO health: burn-rate windows over every row (the
    // monitor schedules no events, so results are unchanged; crash storms
    // that bleed the budget surface as alert counts per row).
    opts.obs.slo.enabled = true;
    return opts;
}

SweepPoint
runPoint(const SweepConfig &cfg, SystemKind kind, double mtbf_sec,
         bool retries, bool with_timeline, bool with_trace)
{
    SweepPoint point;
    point.kind = kind;
    point.mtbfSec = mtbf_sec;
    point.retriesOn = retries;

    core::PlatformOptions opts = optionsFor(cfg, mtbf_sec, retries);
    if (with_trace) {
        // Full-rate tracing of the demo run; the ring keeps the last
        // 128Ki spans, plenty for the smoke config.
        opts.obs.trace.sampleRate = 1.0;
        opts.obs.trace.capacity = std::size_t{1} << 17;
    }
    auto platform = makeSystem(kind, cfg.servers, std::move(opts));
    auto workloads = osvtWorkload(cfg.rpsPerFn, cfg.duration);

    std::unique_ptr<metrics::TimelineSampler> sampler;
    if (with_timeline) {
        sampler = std::make_unique<metrics::TimelineSampler>(
            platform->simulation(), sim::kTicksPerSec);
        const auto &m = platform->totalMetrics();
        // Counter series: per-second deltas, so crash-induced drop and
        // retry bursts show up as spikes instead of a monotone ramp.
        sampler->trackCounter("drops", [&m] {
            return static_cast<double>(m.drops());
        });
        sampler->trackCounter("retries", [&m] {
            return static_cast<double>(m.retries());
        });
        sampler->track("down_servers", [&p = *platform] {
            return static_cast<double>(p.cluster().downServers());
        });
    }

    point.result = runScenario(*platform, workloads, cfg.grace);
    const metrics::RunMetrics &m = point.result.metrics;
    point.consistent = m.completions() + m.drops() == m.arrivals();
    point.sloAlerts = platform->sloMonitor().alertsFired();

    if (sampler) {
        sampler->stop();
        std::ofstream csv("chaos_timeline.csv");
        sampler->writeCsv(csv);
    }
    if (with_trace) {
        std::ofstream ofs("trace.json");
        platform->tracer().writeChromeTrace(ofs);
    }
    return point;
}

std::string
mtbfLabel(double mtbf_sec)
{
    if (mtbf_sec <= 0.0)
        return "none";
    std::ostringstream os;
    os << fmt(mtbf_sec, 0) << "s";
    return os.str();
}

void
writeBenchJson(const SweepConfig &cfg,
               const std::vector<SweepPoint> &points,
               double retry_gain, const std::string &path)
{
    std::ofstream out(path);
    out << "{\n"
        << "  \"benchmark\": \"chaos_availability\",\n"
        << "  \"workload\": \"OSVT\",\n"
        << "  \"servers\": " << cfg.servers << ",\n"
        << "  \"offered_rps_per_fn\": " << cfg.rpsPerFn << ",\n"
        << "  \"duration_sec\": " << sim::ticksToSec(cfg.duration) << ",\n"
        << "  \"mttr_sec\": " << cfg.mttrSec << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        const ScenarioResult &r = p.result;
        out << "    {\"system\": \"" << systemName(p.kind) << "\""
            << ", \"mtbf_sec\": " << p.mtbfSec
            << ", \"retries\": " << (p.retriesOn ? "true" : "false")
            << ", \"availability\": " << r.availability
            << ", \"slo_attainment\": " << p.sloAttainment()
            << ", \"completed_rps\": " << r.completedRps
            << ", \"arrivals\": " << r.metrics.arrivals()
            << ", \"completions\": " << r.metrics.completions()
            << ", \"drops\": " << r.metrics.drops()
            << ", \"crashes\": " << r.metrics.serverCrashes()
            << ", \"retry_count\": " << r.metrics.retries()
            << ", \"failovers\": " << r.metrics.failovers()
            << ", \"lost_batch_requests\": "
            << r.metrics.lostBatchRequests()
            << ", \"mean_restore_sec\": " << r.meanRestoreSec
            << ", \"slo_alerts\": " << p.sloAlerts
            << ", \"truncated\": " << (r.truncated ? "true" : "false")
            << ", \"consistent\": " << (p.consistent ? "true" : "false")
            << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"infless_retry_slo_gain\": " << retry_gain << "\n"
        << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        if (std::strcmp(argv[i], "--trace") == 0)
            trace = true;
    }

    SweepConfig cfg;
    if (smoke) {
        // CI-sized: one system, short run, aggressive failure rate so
        // the crash/recovery/retry paths all execute in seconds.
        cfg.duration = 30 * sim::kTicksPerSec;
        cfg.grace = 10 * sim::kTicksPerSec;
        cfg.mttrSec = 10.0;
        cfg.mtbfs = {0.0, 60.0};
        cfg.systems = {SystemKind::Infless};
    }

    printHeading(std::cout,
                 "Chaos sweep: OSVT on " + std::to_string(cfg.servers) +
                     " servers, " + fmt(3 * cfg.rpsPerFn, 0) +
                     " RPS offered, MTTR " + fmt(cfg.mttrSec, 0) +
                     "s; failure rate x retry policy");

    // Enumerate the grid cells in the historical serial order, then fan
    // them out: every cell runs an independent platform, and results come
    // back indexed by cell, so table and JSON rows are byte-identical to
    // the old nested loop at any thread count.
    struct Cell
    {
        SystemKind kind = SystemKind::Infless;
        double mtbf = 0.0;
        bool retries = false;
        bool withTimeline = false;
        bool withTrace = false;
    };
    std::vector<Cell> cells;
    for (double mtbf : cfg.mtbfs) {
        // Without faults the retry policy is dead code: one row suffices.
        std::vector<bool> retry_choices =
            mtbf > 0.0 ? std::vector<bool>{false, true}
                       : std::vector<bool>{true};
        for (bool retries : retry_choices) {
            for (SystemKind kind : cfg.systems) {
                // Timeline demo: the crashiest INFless run with retries.
                bool with_timeline = kind == SystemKind::Infless &&
                                     retries && mtbf > 0.0 &&
                                     mtbf == cfg.mtbfs.back();
                cells.push_back({kind, mtbf, retries, with_timeline,
                                 with_timeline && trace});
            }
        }
    }

    std::vector<SweepPoint> points =
        ParallelSweep::map(cells, [&cfg](const Cell &cell) {
            return runPoint(cfg, cell.kind, cell.mtbf, cell.retries,
                            cell.withTimeline, cell.withTrace);
        });

    TextTable table({"system", "MTBF", "retries", "availability",
                     "SLO attainment", "crashes", "retry", "failover",
                     "lost-batch", "drops", "consistent"});
    bool all_consistent = true;
    for (const SweepPoint &p : points) {
        all_consistent = all_consistent && p.consistent;
        const metrics::RunMetrics &m = p.result.metrics;
        table.addRow({systemName(p.kind), mtbfLabel(p.mtbfSec),
                      p.retriesOn ? "on" : "off",
                      fmtPercent(p.result.availability),
                      fmtPercent(p.sloAttainment()),
                      std::to_string(m.serverCrashes()),
                      std::to_string(m.retries()),
                      std::to_string(m.failovers()),
                      std::to_string(m.lostBatchRequests()),
                      std::to_string(m.drops()),
                      p.consistent ? "yes" : "NO"});
    }
    table.print(std::cout);

    // Retry-policy payoff: INFless SLO attainment with vs. without
    // failover at the mildest non-zero failure rate (the acceptance
    // scenario: MTBF 1h, MTTR 5min).
    double retry_gain = 0.0;
    for (const auto &on : points) {
        if (on.kind != SystemKind::Infless || !on.retriesOn ||
            on.mtbfSec <= 0.0)
            continue;
        for (const auto &off : points) {
            if (off.kind == SystemKind::Infless && !off.retriesOn &&
                off.mtbfSec == on.mtbfSec) {
                double gain = on.sloAttainment() - off.sloAttainment();
                if (retry_gain == 0.0 || on.mtbfSec > 0.0)
                    retry_gain = gain;
            }
        }
        break; // first non-zero-MTBF INFless row = mildest rate
    }

    writeBenchJson(cfg, points, retry_gain, "BENCH_chaos.json");
    std::cout << "  (rows written to BENCH_chaos.json; drop/retry "
                 "timeline of the crashiest INFless run in "
                 "chaos_timeline.csv)\n";
    std::cout << "  INFless retry-policy SLO-attainment gain at MTBF "
              << mtbfLabel(cfg.mtbfs.back() > 0 ? cfg.mtbfs[1] : 0.0)
              << ": " << fmt(100.0 * retry_gain, 4) << " pp\n";

    if (!all_consistent) {
        std::cerr << "ERROR: request conservation violated "
                     "(completions + drops != arrivals)\n";
        return 1;
    }
    return 0;
}
