/**
 * @file
 * Overload-burst bench: goodput under a periodic burst train whose peaks
 * reach half to four times the calibrated capacity, comparing defenses
 * — no gate, static (feedforward, profile-driven) admission, and the
 * full stack — with the profiler both accurate and lying.
 *
 * Not a paper figure: the paper's stress test (Fig. 11) stops at the
 * throughput knee, but production gateways get pushed past it — and in
 * bursts, not at a steady rate. The workload alternates a modest base
 * load with short bursts at multiplier x capacity. Undefended, the
 * autoscaler scales in during every trough and each burst onset lands on
 * a cold fleet: a storm of cold-start SLO violations and over-submission
 * drops, repeated every cycle. Static admission sheds the unservable
 * head of each burst at ingress — but it trusts the profiled latency
 * surface. The mispredicted rows re-run the gate point with a
 * pessimistic profiler (every prediction scaled 1.5x high), no gate vs
 * static admission: every feedforward consumer now sees phantom
 * congestion — admission sheds at two-thirds of its calibrated queue
 * depth and batch deadlines shrink. The acceptance gate requires the
 * full stack's SLO-goodput at 2x load to hold at least the undefended
 * one's (graceful degradation). Each row self-checks request
 * conservation.
 *
 * Emits BENCH_overload.json plus a per-second shed/drop/breaker-state
 * timeline (overload_timeline.csv) of one full-stack run at the highest
 * multiplier. `--smoke` shrinks the sweep for CI. `--trace` additionally
 * records that run's request lifecycles into Perfetto-loadable
 * overload_trace.json.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "common/harness.hh"
#include "common/parallel_sweep.hh"
#include "metrics/report.hh"
#include "metrics/timeline.hh"
#include "workload/generators.hh"

namespace {

using namespace infless;
using namespace infless::bench;
using metrics::fmt;
using metrics::fmtPercent;
using metrics::printHeading;
using metrics::TextTable;

enum class Defense
{
    None,
    Admission,
    Full
};

const char *
defenseName(Defense d)
{
    switch (d) {
      case Defense::None:
        return "none";
      case Defense::Admission:
        return "admission";
      case Defense::Full:
        return "full";
    }
    return "?";
}

/** Admission label of a defense (the full stack gates with static
 *  admission). */
const char *
modeName(Defense d)
{
    switch (d) {
      case Defense::None:
        return "none";
      case Defense::Admission:
      case Defense::Full:
        return "static";
    }
    return "?";
}

overload::OverloadConfig
defenseConfig(Defense d)
{
    switch (d) {
      case Defense::None:
        return {};
      case Defense::Admission: {
        overload::OverloadConfig cfg;
        cfg.admission.enabled = true;
        return cfg;
      }
      case Defense::Full:
        return overload::OverloadConfig::fullStack();
    }
    return {};
}

struct SweepConfig
{
    std::size_t servers = 8;
    std::string model = "ResNet-50";
    sim::Tick slo = 200 * sim::kTicksPerMs;
    sim::Tick duration = 60 * sim::kTicksPerSec;
    sim::Tick grace = 10 * sim::kTicksPerSec;
    /** Burst train: `burstSec` at multiplier x capacity at the head of
     *  every `periodSec`, base load in between. */
    sim::Tick burstLen = 3 * sim::kTicksPerSec;
    sim::Tick period = 10 * sim::kTicksPerSec;
    double baseFraction = 0.4;
    /** Calibration sweep bounds (the undefended capacity knee). */
    double calibMaxOffered = 16'000.0;
    sim::Tick calibDuration = 30 * sim::kTicksPerSec;
    /**
     * Profiler error of the mispredicted rows: every prediction is
     * scaled by this factor while execution truth is untouched. 1.5
     * makes the profiler pessimistic by 1.5x: every feedforward
     * consumer sees phantom congestion — static admission's shed
     * threshold drops to 1/1.5 of its calibrated queue depth, batch
     * deadlines shrink, and the scheduler provisions against inflated
     * service times.
     */
    double profileErrorFactor = 1.5;
    /** Multiplier at which the mispredicted none-vs-static comparison
     *  runs (the gate point: twice the capacity knee). */
    double errorMultiplier = 2.0;
    std::vector<double> multipliers = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0};
    std::vector<Defense> defenses = {Defense::None, Defense::Admission,
                                     Defense::Full};
};

/** Periodic burst train in 1s bins (the default bin is a whole minute,
 *  which would silently round short durations up and skew every rate). */
workload::RateSeries
burstTrain(const SweepConfig &cfg, double multiplier, double capacity_rps)
{
    workload::RateSeries series;
    series.binWidth = sim::kTicksPerSec;
    auto bins =
        static_cast<std::size_t>(cfg.duration / sim::kTicksPerSec);
    series.rps.reserve(bins);
    for (std::size_t b = 0; b < bins; ++b) {
        sim::Tick phase =
            (static_cast<sim::Tick>(b) * sim::kTicksPerSec) % cfg.period;
        series.rps.push_back(phase < cfg.burstLen
                                 ? multiplier * capacity_rps
                                 : cfg.baseFraction * capacity_rps);
    }
    return series;
}

struct SweepPoint
{
    Defense defense = Defense::None;
    double multiplier = 0.0;
    /** Profiler distortion this row ran under (1 = accurate). */
    double profileError = 1.0;
    ScenarioResult result;
    /** Completions inside the nominal SLO, per second. */
    double goodputRps = 0.0;
    /** Completions inside the degraded (2x) SLO, per second. */
    double degradedGoodputRps = 0.0;
    double p99Ms = 0.0;
    bool consistent = false;
};

SweepPoint
runPoint(const SweepConfig &cfg, Defense defense, double multiplier,
         double capacity_rps, double profile_error)
{
    SweepPoint point;
    point.defense = defense;
    point.multiplier = multiplier;
    point.profileError = profile_error;

    core::PlatformOptions opts;
    opts.overload = defenseConfig(defense);
    opts.faults.profileError.factor = profile_error;
    auto platform = makeSystem(SystemKind::Infless, cfg.servers,
                               std::move(opts));

    std::vector<WorkloadSpec> workloads(1);
    workloads[0].model = cfg.model;
    workloads[0].slo = cfg.slo;
    workloads[0].series = burstTrain(cfg, multiplier, capacity_rps);

    point.result = runScenario(*platform, workloads, cfg.grace);

    const metrics::RunMetrics &m = platform->totalMetrics();
    double run_sec = sim::ticksToSec(platform->simulation().now());
    point.goodputRps =
        static_cast<double>(m.completions() - m.sloViolations()) / run_sec;
    sim::Tick degraded_slo = static_cast<sim::Tick>(
        static_cast<double>(cfg.slo) *
        overload::BrownoutConfig{}.degradedSloMultiplier);
    point.degradedGoodputRps =
        static_cast<double>(m.completions()) *
        (1.0 - m.latency().fractionAbove(degraded_slo)) / run_sec;
    point.p99Ms = sim::ticksToSec(m.latency().percentile(99.0)) * 1e3;
    point.consistent = point.result.completions + point.result.drops ==
                       point.result.arrivals;
    return point;
}

/**
 * Demo run for the timeline/trace artifacts: the bounded-queue + breaker
 * + brownout stack (admission off, so SLO violations actually reach the
 * breaker) at the highest multiplier, with an aggressive breaker tuning
 * that guarantees open/half-open/close transitions inside even the smoke
 * horizon. Runs on a deliberately undersized fixture: drops while new
 * capacity is warming bypass the breaker as provisioning artifacts, so
 * transitions need bursts that exceed what the *fully scaled* fleet can
 * serve, and the sweep's cluster absorbs every multiplier once warm.
 */
constexpr std::size_t kDemoServers = 2;

core::PlatformOptions
demoOptions(bool with_trace)
{
    core::PlatformOptions opts;
    opts.overload.queue.depthCap = 64;
    opts.overload.queue.evictOldest = true;
    opts.overload.breaker.enabled = true;
    opts.overload.breaker.window = 2 * sim::kTicksPerSec;
    opts.overload.breaker.windowBuckets = 8;
    opts.overload.breaker.openThreshold = 0.3;
    opts.overload.breaker.minSamples = 10;
    opts.overload.breaker.openDuration = sim::kTicksPerSec;
    opts.overload.breaker.probeFraction = 0.2;
    opts.overload.retryBudget.enabled = true;
    opts.overload.brownout.enabled = true;
    opts.overload.brownout.minSamples = 30;
    opts.overload.brownout.enterThreshold = 0.10;
    opts.overload.brownout.minHold = 5 * sim::kTicksPerSec;
    if (with_trace) {
        opts.obs.trace.sampleRate = 1.0;
        opts.obs.trace.capacity = std::size_t{1} << 17;
    }
    return opts;
}

SweepPoint
runDemo(const SweepConfig &cfg, double capacity_rps, bool with_trace)
{
    double multiplier = cfg.multipliers.back();
    auto platform = makeSystem(SystemKind::Infless, kDemoServers,
                               demoOptions(with_trace));

    std::vector<WorkloadSpec> workloads(1);
    workloads[0].model = cfg.model;
    workloads[0].slo = cfg.slo;
    workloads[0].series = burstTrain(cfg, multiplier, capacity_rps);

    metrics::TimelineSampler sampler(platform->simulation(),
                                     sim::kTicksPerSec);
    const auto &m = platform->totalMetrics();
    sampler.trackCounter("sheds", [&m] {
        return static_cast<double>(m.sheds() + m.breakerSheds());
    });
    sampler.trackCounter("drops", [&m] {
        return static_cast<double>(m.drops());
    });
    sampler.trackCounter("evictions", [&m] {
        return static_cast<double>(m.queueEvictions());
    });
    // Gauge series: the single demo function deploys as id 0.
    sampler.track("breaker_state", [&p = *platform] {
        return static_cast<double>(p.overloadSnapshot(0).breakerState);
    });
    sampler.track("brownout_active", [&p = *platform] {
        return p.overloadSnapshot(0).brownoutActive ? 1.0 : 0.0;
    });

    SweepPoint point;
    point.defense = Defense::Full;
    point.multiplier = multiplier;
    point.result = runScenario(*platform, workloads, cfg.grace);
    point.consistent = point.result.completions + point.result.drops ==
                       point.result.arrivals;

    sampler.stop();
    {
        std::ofstream csv("overload_timeline.csv");
        sampler.writeCsv(csv);
    }
    if (with_trace) {
        std::ofstream ofs("overload_trace.json");
        platform->tracer().writeChromeTrace(ofs);
    }
    if (telemetryEnabled()) {
        // Written after the sweep rows so the breaker-state timeline
        // survives the harness's last-writer-wins telemetry file.
        obs::TelemetryRegistry telemetry =
            buildTelemetry(*platform, "overload_burst");
        telemetry.addTimeline(sampler);
        writeTelemetryFiles(telemetry);
    }
    return point;
}

/**
 * SLO health demo: the burn-rate monitor plus the always-on flight
 * recorder on the undersized fixture at the gate multiplier (2x the
 * calibrated knee — ~8x what two servers serve). The burst head lands
 * on a cold fleet, the first windows run a violation fraction far over
 * the 5% budget, and the fast rule must page within its two-window span;
 * the first firing edge freezes the flight dump, whose instant the bench
 * gate requires to coincide with the alert. No other defense is armed,
 * so the SLO alert is the only flight trigger.
 */
struct SloDemo
{
    SweepPoint point;
    /** Single-window burn of every closed window, in order (fn 0). */
    std::vector<double> windowBurn;
    bool fastFired = false;
    std::int64_t alertsTotal = 0;
    sim::Tick alertTick = 0;
    /** Mean attribution over the firing alert's span (the "why"). */
    double meanColdMs = 0.0;
    double meanQueueMs = 0.0;
    double meanBatchMs = 0.0;
    double meanExecMs = 0.0;
    sim::Tick dumpTick = 0;
    std::size_t dumpSpans = 0;
    bool dumpCoincides = false;
};

SloDemo
runSloHealthDemo(const SweepConfig &cfg, double capacity_rps)
{
    core::PlatformOptions opts;
    opts.obs.slo.enabled = true;
    opts.obs.slo.windowTicks = sim::kTicksPerSec;
    opts.obs.slo.errorBudget = 0.05;
    opts.obs.slo.fast = {8.0, 2};
    opts.obs.slo.slow = {2.0, 12};
    opts.obs.flight.enabled = true;
    auto platform = makeSystem(SystemKind::Infless, kDemoServers,
                               std::move(opts));

    std::vector<WorkloadSpec> workloads(1);
    workloads[0].model = cfg.model;
    workloads[0].slo = cfg.slo;
    workloads[0].series =
        burstTrain(cfg, cfg.errorMultiplier, capacity_rps);

    metrics::TimelineSampler sampler(platform->simulation(),
                                     sim::kTicksPerSec);
    sampler.track("slo_burn_fast", [&p = *platform] {
        return p.sloMonitor().burnRate(0, obs::AlertKind::FastBurn);
    });
    sampler.track("slo_burn_slow", [&p = *platform] {
        return p.sloMonitor().burnRate(0, obs::AlertKind::SlowBurn);
    });
    sampler.trackCounter("slo_alerts", [&p = *platform] {
        return static_cast<double>(p.sloMonitor().alertsFired());
    });

    SloDemo demo;
    demo.point.defense = Defense::None;
    demo.point.multiplier = cfg.errorMultiplier;
    demo.point.result = runScenario(*platform, workloads, cfg.grace);
    demo.point.consistent =
        demo.point.result.completions + demo.point.result.drops ==
        demo.point.result.arrivals;
    sampler.stop();

    const obs::SloMonitor &slo = platform->sloMonitor();
    for (const obs::WindowRow &row : slo.closed(0))
        demo.windowBurn.push_back(row.burn);
    demo.alertsTotal = slo.alertsFired();
    for (const obs::SloAlert &alert : slo.alerts()) {
        if (alert.kind != obs::AlertKind::FastBurn ||
            alert.edge != obs::AlertEdge::Firing)
            continue;
        demo.fastFired = true;
        demo.alertTick = alert.at;
        demo.meanColdMs =
            alert.meanCold / static_cast<double>(sim::kTicksPerMs);
        demo.meanQueueMs =
            alert.meanQueue / static_cast<double>(sim::kTicksPerMs);
        demo.meanBatchMs =
            alert.meanBatch / static_cast<double>(sim::kTicksPerMs);
        demo.meanExecMs =
            alert.meanExec / static_cast<double>(sim::kTicksPerMs);
        break;
    }
    const obs::FlightRecorder &flight = platform->flightRecorder();
    demo.dumpTick = flight.triggerAt();
    demo.dumpSpans = flight.dump().size();
    demo.dumpCoincides =
        flight.triggered() &&
        flight.triggerCause() == obs::FlightTrigger::SloFastBurn &&
        flight.triggerAt() == demo.alertTick;
    // runScenario already dumped, but this demo runs last precisely so
    // flight_trace.json is the alert-frozen ring, not an earlier run's.
    writeFlightDump(flight);

    if (telemetryEnabled()) {
        // Final telemetry writer of the bench: metrics.prom carries live
        // burn-rate gauges and the alert counter (every other metric name
        // still rides along through addRunMetrics).
        obs::TelemetryRegistry telemetry =
            buildTelemetry(*platform, "overload_burst_slo");
        telemetry.addTimeline(sampler);
        writeTelemetryFiles(telemetry);
    }
    return demo;
}

void
writeRow(std::ofstream &out, const SweepPoint &p, const char *defense)
{
    const ScenarioResult &r = p.result;
    out << "    {\"defense\": \"" << defense << "\""
        << ", \"mode\": \"" << modeName(p.defense) << "\""
        << ", \"multiplier\": " << p.multiplier
        << ", \"profile_error\": " << p.profileError
        << ", \"offered_rps\": " << r.offeredRps
        << ", \"completed_rps\": " << r.completedRps
        << ", \"goodput_rps\": " << p.goodputRps
        << ", \"degraded_goodput_rps\": " << p.degradedGoodputRps
        << ", \"p99_ms\": " << p.p99Ms
        << ", \"slo_violation_rate\": " << r.sloViolationRate
        << ", \"arrivals\": " << r.arrivals
        << ", \"completions\": " << r.completions
        << ", \"drops\": " << r.drops
        << ", \"sheds\": " << r.sheds
        << ", \"breaker_sheds\": " << r.breakerSheds
        << ", \"queue_evictions\": " << r.queueEvictions
        << ", \"retry_budget_exhausted\": " << r.retryBudgetExhausted
        << ", \"breaker_opens\": " << r.breakerOpens
        << ", \"brownout_entries\": " << r.brownoutEntries
        << ", \"truncated\": " << (r.truncated ? "true" : "false")
        << ", \"consistent\": " << (p.consistent ? "true" : "false")
        << "}";
}

struct GateSummary
{
    double none2x = 0.0;
    double full2x = 0.0;
    double noneErr = 0.0;
    double staticErr = 0.0;
    bool graceful() const { return full2x >= none2x; }
};

void
writeBenchJson(const SweepConfig &cfg, double capacity_rps,
               const std::vector<SweepPoint> &points,
               const SweepPoint &demo, const SloDemo &slo_demo, const GateSummary &gate,
               const std::string &path)
{
    std::ofstream out(path);
    out << "{\n"
        << "  \"benchmark\": \"overload_burst\",\n"
        << "  \"model\": \"" << cfg.model << "\",\n"
        << "  \"servers\": " << cfg.servers << ",\n"
        << "  \"slo_ms\": " << sim::ticksToSec(cfg.slo) * 1e3 << ",\n"
        << "  \"duration_sec\": " << sim::ticksToSec(cfg.duration)
        << ",\n"
        << "  \"burst_sec\": " << sim::ticksToSec(cfg.burstLen) << ",\n"
        << "  \"period_sec\": " << sim::ticksToSec(cfg.period) << ",\n"
        << "  \"base_fraction\": " << cfg.baseFraction << ",\n"
        << "  \"capacity_rps\": " << capacity_rps << ",\n"
        << "  \"profile_error_factor\": " << cfg.profileErrorFactor
        << ",\n"
        << "  \"rows\": [\n";
    for (const SweepPoint &p : points) {
        writeRow(out, p, defenseName(p.defense));
        out << ",\n";
    }
    writeRow(out, demo, "demo");
    out << ",\n";
    writeRow(out, slo_demo.point, "demo_slo_health");
    out << "\n  ],\n"
        << "  \"slo_window_burn\": [";
    for (std::size_t i = 0; i < slo_demo.windowBurn.size(); ++i)
        out << (i ? ", " : "") << slo_demo.windowBurn[i];
    out << "],\n"
        << "  \"slo_fast_burn_fired\": "
        << (slo_demo.fastFired ? "true" : "false") << ",\n"
        << "  \"slo_alerts_total\": " << slo_demo.alertsTotal << ",\n"
        << "  \"slo_alert_tick\": " << slo_demo.alertTick << ",\n"
        << "  \"slo_alert_mean_cold_ms\": " << slo_demo.meanColdMs
        << ",\n"
        << "  \"slo_alert_mean_queue_ms\": " << slo_demo.meanQueueMs
        << ",\n"
        << "  \"slo_alert_mean_batch_ms\": " << slo_demo.meanBatchMs
        << ",\n"
        << "  \"slo_alert_mean_exec_ms\": " << slo_demo.meanExecMs
        << ",\n"
        << "  \"flight_dump_tick\": " << slo_demo.dumpTick << ",\n"
        << "  \"flight_dump_spans\": " << slo_demo.dumpSpans << ",\n"
        << "  \"flight_dump_coincides\": "
        << (slo_demo.dumpCoincides ? "true" : "false") << ",\n"
        << "  \"goodput_2x_none\": " << gate.none2x << ",\n"
        << "  \"goodput_2x_full\": " << gate.full2x << ",\n"
        << "  \"goodput_2x_none_mispredicted\": " << gate.noneErr << ",\n"
        << "  \"goodput_2x_static_mispredicted\": " << gate.staticErr
        << ",\n"
        << "  \"graceful\": " << (gate.graceful() ? "true" : "false")
        << "\n"
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
        // CI-sized: fewer multipliers, short runs, a cheaper calibration
        // ladder. The breaker/brownout demo still covers its state
        // machine thanks to the aggressive demo tuning.
        cfg.duration = 20 * sim::kTicksPerSec;
        cfg.grace = 5 * sim::kTicksPerSec;
        cfg.calibMaxOffered = 4'000.0;
        cfg.calibDuration = 10 * sim::kTicksPerSec;
        cfg.multipliers = {0.5, 2.0, 4.0};
    }

    printHeading(std::cout,
                 "Overload burst: " + cfg.model + " on " +
                     std::to_string(cfg.servers) +
                     " servers; offered load x defense stack");

    // Calibrate: the undefended system's goodput knee is the 1x point of
    // the multiplier axis.
    double capacity = measureMaxRps(SystemKind::Infless, {cfg.model},
                                    cfg.slo, cfg.servers, {},
                                    cfg.calibMaxOffered, cfg.calibDuration);
    std::cout << "  calibrated capacity: " << fmt(capacity, 0)
              << " RPS (undefended goodput knee)\n";

    struct Cell
    {
        Defense defense = Defense::None;
        double multiplier = 0.0;
        double profileError = 1.0;
    };
    std::vector<Cell> cells;
    for (double mult : cfg.multipliers)
        for (Defense defense : cfg.defenses)
            cells.push_back({defense, mult, 1.0});
    // The mispredicted pair: none and static at the gate point under
    // the lying profiler. The full stack is omitted — its breaker
    // confounds what the lying surface does to admission.
    for (Defense defense : {Defense::None, Defense::Admission}) {
        cells.push_back(
            {defense, cfg.errorMultiplier, cfg.profileErrorFactor});
    }

    std::vector<SweepPoint> points =
        ParallelSweep::map(cells, [&cfg, capacity](const Cell &cell) {
            return runPoint(cfg, cell.defense, cell.multiplier, capacity,
                            cell.profileError);
        });

    // Timeline/trace demos: serial, after the sweep. The SLO health demo
    // runs last: its telemetry (live burn rates, alert counter) and its
    // alert-frozen flight_trace.json are the files' final writers.
    SweepPoint demo = runDemo(cfg, capacity, trace);
    SloDemo slo_demo = runSloHealthDemo(cfg, capacity);

    TextTable table({"defense", "load", "profiler", "offered", "goodput",
                     "degraded-goodput", "p99 ms", "viol rate", "sheds",
                     "consistent"});
    bool all_consistent = true;
    for (const SweepPoint &p : points) {
        all_consistent = all_consistent && p.consistent;
        table.addRow(
            {defenseName(p.defense), fmt(p.multiplier, 1) + "x",
             p.profileError == 1.0 ? "accurate" : "lying",
             fmt(p.result.offeredRps, 0), fmt(p.goodputRps, 0),
             fmt(p.degradedGoodputRps, 0), fmt(p.p99Ms, 1),
             fmtPercent(p.result.sloViolationRate),
             std::to_string(p.result.sheds + p.result.breakerSheds),
             p.consistent ? "yes" : "NO"});
    }
    all_consistent =
        all_consistent && demo.consistent && slo_demo.point.consistent;
    table.print(std::cout);

    auto goodput_at = [&points](Defense defense, double mult,
                                double error) {
        for (const SweepPoint &p : points)
            if (p.defense == defense && p.multiplier == mult &&
                p.profileError == error)
                return p.goodputRps;
        return 0.0;
    };
    GateSummary gate;
    // Acceptance signal 1: at 2x offered load the full stack must hold
    // at least the undefended goodput (graceful degradation).
    gate.none2x = goodput_at(Defense::None, 2.0, 1.0);
    gate.full2x = goodput_at(Defense::Full, 2.0, 1.0);
    // Reported, not gated: what the lying profiler does to static
    // admission against no gate at all.
    gate.noneErr = goodput_at(Defense::None, cfg.errorMultiplier,
                              cfg.profileErrorFactor);
    gate.staticErr = goodput_at(Defense::Admission, cfg.errorMultiplier,
                                cfg.profileErrorFactor);
    std::cout << "  goodput at 2x load: undefended " << fmt(gate.none2x, 0)
              << " RPS vs full stack " << fmt(gate.full2x, 0) << " RPS ("
              << (gate.graceful() ? "graceful" : "NOT graceful") << ")\n";
    std::cout << "  goodput at " << fmt(cfg.errorMultiplier, 1)
              << "x load, lying profiler (x" << fmt(cfg.profileErrorFactor, 3)
              << "): undefended " << fmt(gate.noneErr, 0)
              << " RPS vs static " << fmt(gate.staticErr, 0) << " RPS\n";

    std::cout << "  SLO health demo at " << fmt(cfg.errorMultiplier, 1)
              << "x knee: fast-burn "
              << (slo_demo.fastFired ? "fired" : "DID NOT FIRE")
              << " at t=" << sim::ticksToSec(slo_demo.alertTick)
              << "s (mean attribution cold "
              << fmt(slo_demo.meanColdMs, 1) << " ms / queue "
              << fmt(slo_demo.meanQueueMs, 1) << " ms / batch-wait "
              << fmt(slo_demo.meanBatchMs, 1) << " ms / exec "
              << fmt(slo_demo.meanExecMs, 1) << " ms); flight dump "
              << slo_demo.dumpSpans << " spans, "
              << (slo_demo.dumpCoincides ? "coincides with the alert"
                                         : "DOES NOT coincide")
              << "\n";

    writeBenchJson(cfg, capacity, points, demo, slo_demo, gate,
                   "BENCH_overload.json");
    std::cout << "  (rows written to BENCH_overload.json; shed/breaker "
                 "timeline of the full-stack demo run in "
                 "overload_timeline.csv; alert-frozen span ring in "
                 "flight_trace.json)\n";

    if (!all_consistent) {
        std::cerr << "ERROR: request conservation violated "
                     "(completions + drops != arrivals)\n";
        return 1;
    }
    if (!slo_demo.fastFired || slo_demo.dumpSpans == 0 ||
        !slo_demo.dumpCoincides) {
        std::cerr << "ERROR: SLO health gate failed (fast-burn fired: "
                  << (slo_demo.fastFired ? "yes" : "no")
                  << ", flight dump spans: " << slo_demo.dumpSpans
                  << ", dump coincides with alert: "
                  << (slo_demo.dumpCoincides ? "yes" : "no") << ")\n";
        return 1;
    }
    return 0;
}
