/**
 * @file
 * Chaos-domains bench: correlated zone outages plus persistent gray
 * failures against the placement/health defenses of this PR.
 *
 * Not a paper figure: the paper's testbed never loses a whole rack, but
 * real zones do fail together and real machines do degrade silently.
 * The sweep crosses a scripted single-zone outage with a gray-failure
 * fraction and runs every cell in three modes:
 *
 *  - baseline      topology assigned, no spread scoring, no health
 *  - spread        + soft anti-affinity spread scoring (spreadWeight)
 *  - spread+eject  + health scoring with outlier ejection
 *
 * The acceptance gate requires spread+ejection >= baseline on both
 * availability and SLO-goodput (completed RPS x SLO attainment) in the
 * hardest cell: one zone down plus 5% gray servers. Availability is
 * expected to tie exactly — the crash schedule is identical across
 * modes and quarantine is not downtime — so the goodput margin is the
 * discriminating number.
 *
 * Emits BENCH_chaos_domains.json plus a per-second timeline
 * (chaos_domains_timeline.csv: drops / down / quarantined) of the
 * hardest spread+eject run. `--smoke` shrinks the sweep for CI.
 * `--trace` records the request lifecycle of that run to trace.json.
 */

#include <cmath>
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

enum class Mode
{
    Baseline,
    Spread,
    SpreadEject
};

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Baseline:
        return "baseline";
      case Mode::Spread:
        return "spread";
      case Mode::SpreadEject:
        return "spread+eject";
    }
    return "?";
}

struct SweepPoint
{
    Mode mode = Mode::Baseline;
    bool outage = false;
    double grayFraction = 0.0;
    ScenarioResult result;
    bool consistent = false;
    bool guardOk = true; ///< quarantine never exceeded the fleet cap
    std::int64_t sloAlerts = 0;
    std::size_t grayServers = 0;
    std::size_t quarantinedEnd = 0;

    double sloAttainment() const
    {
        return 1.0 - result.sloViolationRate;
    }

    /** The gated metric: useful work delivered inside the SLO. */
    double sloGoodput() const
    {
        return result.completedRps * sloAttainment();
    }
};

struct SweepConfig
{
    // 6 testbed servers in 3 zones x 1 rack x 2 servers: one zone
    // outage takes a third of the fleet, and the fleet is small enough
    // that the offered load keeps most machines hosting instances — a
    // sampled gray server then actually serves traffic instead of
    // sitting idle behind the greedy packer.
    std::size_t servers = 6;
    std::size_t zones = 3;
    std::size_t racksPerZone = 1;
    std::size_t rackSize = 2;
    /** Run seed, chosen so the 5% gray draw lands on server 2: a busy
     *  server under default packing, outside the outage zone, so the
     *  gray row exercises detection + ejection rather than an idle
     *  machine nobody ever schedules onto. */
    std::uint64_t seed = 7;
    double rpsPerFn = 450.0;
    sim::Tick duration = 300 * sim::kTicksPerSec;
    sim::Tick grace = 30 * sim::kTicksPerSec;
    /** Scripted outage: zone 0 dies mid-run, repairs before the end so
     *  recovery (and health probation) is exercised too. */
    sim::Tick outageAt = 100 * sim::kTicksPerSec;
    double outageMttrSec = 60.0;
    double grayFactor = 4.0;
    double spreadWeight = 0.5;
    /** 0.25 samples TWO gray servers at this seed, while the ejection
     *  guard caps the quarantine census at floor(0.2 x 6) = 1: the
     *  heavy row shows the guard binding, not unlimited ejection. */
    std::vector<double> grayFractions = {0.0, 0.05, 0.25};
    /** Which outage settings to sweep: [0] = calm, [1] = zone outage. */
    bool outageChoices[2] = {true, true};
};

core::PlatformOptions
optionsFor(const SweepConfig &cfg, Mode mode, bool outage,
           double gray_fraction)
{
    core::PlatformOptions opts;
    opts.seed = cfg.seed;
    opts.topology.zones = cfg.zones;
    opts.topology.racksPerZone = cfg.racksPerZone;
    opts.topology.rackSize = cfg.rackSize;
    if (outage) {
        opts.faults.domainOutageAt = cfg.outageAt;
        opts.faults.domainOutageTarget = 0;
        opts.faults.domainOutageMttrSec = cfg.outageMttrSec;
        // No surprise crashes after trace end: every retry chain can
        // settle inside the drain grace, keeping conservation exact.
        opts.faults.crashHorizon = cfg.duration;
    }
    opts.faults.grayFraction = gray_fraction;
    opts.faults.grayFactor = cfg.grayFactor;
    // Observational SLO health: burn-rate alerts per row, no events.
    opts.obs.slo.enabled = true;
    if (mode != Mode::Baseline)
        opts.scheduler.spreadWeight = cfg.spreadWeight;
    if (mode == Mode::SpreadEject)
        opts.health.enabled = true;
    return opts;
}

SweepPoint
runPoint(const SweepConfig &cfg, Mode mode, bool outage,
         double gray_fraction, bool with_timeline, bool with_trace)
{
    SweepPoint point;
    point.mode = mode;
    point.outage = outage;
    point.grayFraction = gray_fraction;

    core::PlatformOptions opts =
        optionsFor(cfg, mode, outage, gray_fraction);
    double eject_cap = std::floor(health::kMaxEjectFraction *
                                  static_cast<double>(cfg.servers));
    if (with_trace) {
        opts.obs.trace.sampleRate = 1.0;
        opts.obs.trace.capacity = std::size_t{1} << 17;
    }
    auto platform = makeSystem(SystemKind::Infless, cfg.servers,
                               std::move(opts));
    auto workloads = osvtWorkload(cfg.rpsPerFn, cfg.duration);

    std::unique_ptr<metrics::TimelineSampler> sampler;
    double max_quarantined = 0.0;
    if (with_timeline) {
        sampler = std::make_unique<metrics::TimelineSampler>(
            platform->simulation(), sim::kTicksPerSec);
        const auto &m = platform->totalMetrics();
        sampler->trackCounter("drops", [&m] {
            return static_cast<double>(m.drops());
        });
        sampler->track("down_servers", [&p = *platform] {
            return static_cast<double>(p.cluster().downServers());
        });
        sampler->track("quarantined", [&p = *platform] {
            return static_cast<double>(p.quarantinedServers());
        });
    }
    // Sample the ejection-guard invariant alongside whatever timeline
    // cadence the row uses: the quarantine census must never exceed
    // floor(kMaxEjectFraction x fleet) at any probe.
    auto guard_probe = platform->simulation().every(
        sim::kTicksPerSec, [&p = *platform, &max_quarantined] {
            max_quarantined =
                std::max(max_quarantined,
                         static_cast<double>(p.quarantinedServers()));
        });

    point.result = runScenario(*platform, workloads, cfg.grace);
    guard_probe->stop();
    const auto &m = platform->totalMetrics();
    point.consistent = m.completions() + m.drops() == m.arrivals();
    point.sloAlerts = platform->sloMonitor().alertsFired();
    point.quarantinedEnd = platform->quarantinedServers();
    max_quarantined = std::max(
        max_quarantined,
        static_cast<double>(platform->quarantinedServers()));
    point.guardOk = max_quarantined <= eject_cap;
    for (std::size_t s = 0; s < cfg.servers; ++s)
        if (platform->grayMultiplier(static_cast<cluster::ServerId>(s)) >
            1.0)
            ++point.grayServers;

    if (sampler) {
        sampler->stop();
        std::ofstream csv("chaos_domains_timeline.csv");
        sampler->writeCsv(csv);
    }
    if (with_trace) {
        std::ofstream ofs("trace.json");
        platform->tracer().writeChromeTrace(ofs);
    }
    return point;
}

void
writeBenchJson(const SweepConfig &cfg,
               const std::vector<SweepPoint> &points,
               const SweepPoint *gate_base, const SweepPoint *gate_se,
               bool gate_availability, bool gate_goodput,
               const std::string &path)
{
    std::ofstream out(path);
    out << "{\n"
        << "  \"schema_version\": 1,\n"
        << "  \"benchmark\": \"chaos_domains\",\n"
        << "  \"workload\": \"OSVT\",\n"
        << "  \"servers\": " << cfg.servers << ",\n"
        << "  \"zones\": " << cfg.zones << ",\n"
        << "  \"racks_per_zone\": " << cfg.racksPerZone << ",\n"
        << "  \"rack_size\": " << cfg.rackSize << ",\n"
        << "  \"offered_rps_per_fn\": " << cfg.rpsPerFn << ",\n"
        << "  \"duration_sec\": " << sim::ticksToSec(cfg.duration)
        << ",\n"
        << "  \"outage_at_sec\": " << sim::ticksToSec(cfg.outageAt)
        << ",\n"
        << "  \"outage_mttr_sec\": " << cfg.outageMttrSec << ",\n"
        << "  \"gray_factor\": " << cfg.grayFactor << ",\n"
        << "  \"spread_weight\": " << cfg.spreadWeight << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        const ScenarioResult &r = p.result;
        out << "    {\"mode\": \"" << modeName(p.mode) << "\""
            << ", \"outage\": " << (p.outage ? "true" : "false")
            << ", \"gray_fraction\": " << p.grayFraction
            << ", \"gray_servers\": " << p.grayServers
            << ", \"availability\": " << r.availability
            << ", \"slo_attainment\": " << p.sloAttainment()
            << ", \"completed_rps\": " << r.completedRps
            << ", \"slo_goodput\": " << p.sloGoodput()
            << ", \"arrivals\": " << r.metrics.arrivals()
            << ", \"completions\": " << r.metrics.completions()
            << ", \"drops\": " << r.metrics.drops()
            << ", \"crashes\": " << r.metrics.serverCrashes()
            << ", \"domain_outages\": " << r.metrics.domainOutages()
            << ", \"ejections\": " << r.metrics.healthEjections()
            << ", \"readmissions\": " << r.metrics.healthReadmissions()
            << ", \"gray_detections\": " << r.metrics.grayDetections()
            << ", \"quarantined_end\": " << p.quarantinedEnd
            << ", \"slo_alerts\": " << p.sloAlerts
            << ", \"guard_ok\": " << (p.guardOk ? "true" : "false")
            << ", \"truncated\": " << (r.truncated ? "true" : "false")
            << ", \"consistent\": " << (p.consistent ? "true" : "false")
            << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"gate\": {\n"
        << "    \"scenario\": \"one zone out + 5% gray\",\n"
        << "    \"baseline_availability\": "
        << (gate_base ? gate_base->result.availability : 0.0) << ",\n"
        << "    \"spread_eject_availability\": "
        << (gate_se ? gate_se->result.availability : 0.0) << ",\n"
        << "    \"baseline_slo_goodput\": "
        << (gate_base ? gate_base->sloGoodput() : 0.0) << ",\n"
        << "    \"spread_eject_slo_goodput\": "
        << (gate_se ? gate_se->sloGoodput() : 0.0) << ",\n"
        << "    \"availability_ok\": "
        << (gate_availability ? "true" : "false") << ",\n"
        << "    \"slo_goodput_ok\": " << (gate_goodput ? "true" : "false")
        << ",\n"
        << "    \"pass\": "
        << (gate_availability && gate_goodput ? "true" : "false") << "\n"
        << "  }\n"
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
        // CI-sized: the gate scenario plus its clean control, short run.
        // The outage still fits inside the horizon and the health engine
        // has time to eject and (after probation) readmit.
        cfg.duration = 90 * sim::kTicksPerSec;
        cfg.grace = 10 * sim::kTicksPerSec;
        cfg.outageAt = 30 * sim::kTicksPerSec;
        cfg.outageMttrSec = 20.0;
        cfg.grayFractions = {0.0, 0.05};
        cfg.outageChoices[0] = false; // outage rows only
    }

    printHeading(std::cout,
                 "Chaos domains: OSVT on " +
                     std::to_string(cfg.servers) + " servers (" +
                     std::to_string(cfg.zones) + " zones), zone outage x "
                     "gray fraction x placement/health mode");

    struct Cell
    {
        Mode mode = Mode::Baseline;
        bool outage = false;
        double gray = 0.0;
        bool withTimeline = false;
        bool withTrace = false;
    };
    const Mode kModes[] = {Mode::Baseline, Mode::Spread,
                           Mode::SpreadEject};
    std::vector<Cell> cells;
    for (bool outage : {false, true}) {
        if (outage ? !cfg.outageChoices[1] : !cfg.outageChoices[0])
            continue;
        for (double gray : cfg.grayFractions) {
            for (Mode mode : kModes) {
                // Timeline/trace demo: the gate cell under full defense.
                bool demo = mode == Mode::SpreadEject && outage &&
                            gray == 0.05;
                cells.push_back({mode, outage, gray, demo, demo && trace});
            }
        }
    }

    std::vector<SweepPoint> points =
        ParallelSweep::map(cells, [&cfg](const Cell &cell) {
            return runPoint(cfg, cell.mode, cell.outage, cell.gray,
                            cell.withTimeline, cell.withTrace);
        });

    TextTable table({"mode", "outage", "gray", "gray-srv", "avail",
                     "SLO att", "goodput", "eject", "readmit", "gray-det",
                     "drops", "guard", "consistent"});
    bool all_consistent = true;
    bool all_guarded = true;
    for (const SweepPoint &p : points) {
        all_consistent = all_consistent && p.consistent;
        all_guarded = all_guarded && p.guardOk;
        table.addRow({modeName(p.mode), p.outage ? "zone0" : "none",
                      fmtPercent(p.grayFraction),
                      std::to_string(p.grayServers),
                      fmtPercent(p.result.availability),
                      fmtPercent(p.sloAttainment()),
                      fmt(p.sloGoodput(), 1),
                      std::to_string(p.result.metrics.healthEjections()),
                      std::to_string(p.result.metrics.healthReadmissions()),
                      std::to_string(p.result.metrics.grayDetections()),
                      std::to_string(p.result.metrics.drops()),
                      p.guardOk ? "ok" : "EXCEEDED",
                      p.consistent ? "yes" : "NO"});
    }
    table.print(std::cout);

    // Acceptance gate: in the hardest cell (zone outage + 5% gray) the
    // full defense must not lose to the undefended baseline on either
    // availability or SLO-goodput.
    const SweepPoint *gate_base = nullptr;
    const SweepPoint *gate_se = nullptr;
    for (const SweepPoint &p : points) {
        if (!p.outage || p.grayFraction != 0.05)
            continue;
        if (p.mode == Mode::Baseline)
            gate_base = &p;
        if (p.mode == Mode::SpreadEject)
            gate_se = &p;
    }
    bool gate_availability = false;
    bool gate_goodput = false;
    if (gate_base != nullptr && gate_se != nullptr) {
        gate_availability = gate_se->result.availability >=
                            gate_base->result.availability - 1e-9;
        gate_goodput =
            gate_se->sloGoodput() >= gate_base->sloGoodput() - 1e-9;
        std::cout << "  gate (zone outage + 5% gray): availability "
                  << fmtPercent(gate_base->result.availability) << " -> "
                  << fmtPercent(gate_se->result.availability)
                  << ", SLO-goodput " << fmt(gate_base->sloGoodput(), 1)
                  << " -> " << fmt(gate_se->sloGoodput(), 1) << " rps ["
                  << (gate_availability && gate_goodput ? "PASS" : "FAIL")
                  << "]\n";
    }

    writeBenchJson(cfg, points, gate_base, gate_se, gate_availability,
                   gate_goodput, "BENCH_chaos_domains.json");
    std::cout << "  (rows written to BENCH_chaos_domains.json; "
                 "drop/down/quarantine timeline of the defended gate "
                 "run in chaos_domains_timeline.csv)\n";

    if (!all_consistent) {
        std::cerr << "ERROR: request conservation violated "
                     "(completions + drops != arrivals)\n";
        return 1;
    }
    if (!all_guarded) {
        std::cerr << "ERROR: ejection guard exceeded "
                     "(quarantined > kMaxEjectFraction x fleet)\n";
        return 1;
    }
    if (gate_base == nullptr || gate_se == nullptr ||
        !(gate_availability && gate_goodput)) {
        std::cerr << "ERROR: chaos-domains gate failed (spread+eject "
                     "must match baseline availability and SLO-goodput "
                     "under one-zone outage + 5% gray)\n";
        return 1;
    }
    return 0;
}
