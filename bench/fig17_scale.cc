/**
 * @file
 * Figure 17 — large-scale simulation: (a) scheduling overhead of
 * Algorithm 1 on a 2,000-server cluster (google-benchmark), and (b) the
 * resource fragment ratio of the four systems under dynamic load.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>

#include "baselines/batch_otp.hh"
#include "common/harness.hh"
#include "common/parallel_sweep.hh"
#include "core/rps_bounds.hh"
#include "sim/rng.hh"
#include "metrics/report.hh"
#include "models/model_zoo.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"

namespace {

using namespace infless;
using namespace infless::bench;
using metrics::fmt;
using metrics::fmtPercent;
using metrics::printHeading;
using metrics::TextTable;
using sim::kTicksPerMin;
using sim::msToTicks;

// ---------------------------------------------------------------------------
// (a) Scheduling overhead
// ---------------------------------------------------------------------------

struct SchedulerRig
{
    models::ExecModel exec;
    profiler::OpProfileDb db{exec};
    profiler::CopPredictor cop{db};
    core::GreedyScheduler sched{cop};
    cluster::Cluster cluster{2000};

    SchedulerRig()
    {
        // Warm the COP memo over the whole (batch ladder x config grid)
        // so the benchmark measures the scheduling loop, not first-touch
        // profiling. The memo is shared across batches: one prewarm
        // keeps every batchsize hot.
        const auto &model = models::ModelZoo::shared().get("ResNet-50");
        sched.prewarm(model, 32);
    }
};

void
BM_Schedule(benchmark::State &state)
{
    static SchedulerRig rig;
    const auto &model = models::ModelZoo::shared().get("ResNet-50");
    double demand = static_cast<double>(state.range(0));
    std::size_t instances = 0;
    for (auto _ : state) {
        cluster::Cluster scratch = rig.cluster;
        auto plans =
            rig.sched.schedule(model, demand, msToTicks(200), 32, scratch);
        instances = plans.size();
        benchmark::DoNotOptimize(plans);
    }
    state.counters["instances"] = static_cast<double>(instances);
    state.counters["us_per_instance"] = benchmark::Counter(
        static_cast<double>(instances) * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_Schedule)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(5000)
    ->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// (a') Fast path vs. naive reference: decision-latency series
// ---------------------------------------------------------------------------
//
// schedule() answers the argmax over e_ij from the cluster's capacity
// index (one evaluation per availability class) with a candidate pool
// built once per call; scheduleNaive() is the pre-index reference that
// rebuilds the pool and scans all 2,000 servers for every placement.
// Both produce bit-identical plans (tests/core/scheduler_equivalence),
// so the series isolates pure scheduling overhead. Results also land in
// BENCH_sched.json for machine consumption / regression tracking.

struct SeriesPoint
{
    double demand = 0.0;
    std::size_t instances = 0;
    double naiveUsPerDecision = 0.0;
    double indexedUsPerDecision = 0.0;

    double
    speedup() const
    {
        return indexedUsPerDecision > 0.0
                   ? naiveUsPerDecision / indexedUsPerDecision
                   : 0.0;
    }
};

/** Mean time of one schedule() variant, microseconds per decision. */
template <typename ScheduleFn>
double
measureUsPerDecision(const cluster::Cluster &base, ScheduleFn &&schedule,
                     std::size_t *instances_out)
{
    using Clock = std::chrono::steady_clock;
    constexpr double kBudgetSec = 0.5;
    constexpr int kMaxReps = 200;

    double total_sec = 0.0;
    std::size_t decisions = 0;
    std::size_t instances = 0;
    for (int rep = 0; rep < kMaxReps && total_sec < kBudgetSec; ++rep) {
        cluster::Cluster scratch = base; // copied outside the timer
        auto start = Clock::now();
        auto plans = schedule(scratch);
        auto stop = Clock::now();
        total_sec += std::chrono::duration<double>(stop - start).count();
        instances = plans.size();
        decisions += plans.size();
        benchmark::DoNotOptimize(plans);
    }
    if (instances_out)
        *instances_out = instances;
    return decisions == 0 ? 0.0
                          : 1e6 * total_sec /
                                static_cast<double>(decisions);
}

std::vector<SeriesPoint>
decisionLatencySeries(SchedulerRig &rig)
{
    const auto &model = models::ModelZoo::shared().get("ResNet-50");
    std::vector<SeriesPoint> series;
    for (double demand : {1000.0, 2000.0, 5000.0, 10'000.0}) {
        SeriesPoint point;
        point.demand = demand;
        point.naiveUsPerDecision = measureUsPerDecision(
            rig.cluster,
            [&](cluster::Cluster &scratch) {
                return rig.sched.scheduleNaive(model, demand,
                                               msToTicks(200), 32,
                                               scratch);
            },
            &point.instances);
        point.indexedUsPerDecision = measureUsPerDecision(
            rig.cluster,
            [&](cluster::Cluster &scratch) {
                return rig.sched.schedule(model, demand, msToTicks(200),
                                          32, scratch);
            },
            nullptr);
        series.push_back(point);
    }
    return series;
}

void
writeBenchJson(const std::vector<SeriesPoint> &series,
               const std::string &path)
{
    std::ofstream out(path);
    out << "{\n"
        << "  \"benchmark\": \"fig17a_scheduler_fastpath\",\n"
        << "  \"model\": \"ResNet-50\",\n"
        << "  \"cluster_servers\": 2000,\n"
        << "  \"slo_ms\": 200,\n"
        << "  \"series\": [\n";
    for (std::size_t i = 0; i < series.size(); ++i) {
        const SeriesPoint &p = series[i];
        out << "    {\"demand_rps\": " << p.demand
            << ", \"instances\": " << p.instances
            << ", \"naive_us_per_decision\": " << p.naiveUsPerDecision
            << ", \"indexed_us_per_decision\": "
            << p.indexedUsPerDecision
            << ", \"speedup\": " << p.speedup() << "}"
            << (i + 1 < series.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"speedup_max_demand\": " << series.back().speedup()
        << "\n}\n";
}

// ---------------------------------------------------------------------------
// (b) Resource fragment ratio under placement churn
// ---------------------------------------------------------------------------
//
// Fragmentation at the paper's scale comes from allocation churn: fleets
// of differently sized instances arrive and depart, leaving holes that
// later placements may or may not fill. The experiment places fleets for
// a function population sized to ~75% cluster utilization, releases a
// random 40% of the instances (scale-in churn), places a second wave,
// and measures the fragment ratio over active servers. Every system is
// normalized to the same utilization so the metric isolates packing
// quality rather than allocation volume.

struct PlannerRig
{
    models::ExecModel exec;
    profiler::OpProfileDb db{exec};
    profiler::CopPredictor cop{db};
    core::GreedyScheduler sched{cop};
};

std::vector<core::LaunchPlan>
placeFunction(PlannerRig &rig, SystemKind kind,
              const models::ModelInfo &model, double demand, sim::Tick slo,
              cluster::Cluster &cluster)
{
    double beta = cluster::kDefaultBeta;
    switch (kind) {
      case SystemKind::Infless:
        return rig.sched.schedule(model, demand, slo, 32, cluster);
      case SystemKind::Batch:
      case SystemKind::BatchRs: {
          core::CandidateConfig best;
          double best_value = -1.0;
          for (int b : baselines::BatchOtp::kBatchChoices) {
              for (cluster::Resources res : baselines::BatchOtp::kConfigMenu) {
                  res.memoryMb = rig.sched.instanceMemoryMb(model);
                  sim::Tick t = rig.cop.predict(model, b, res);
                  if (!core::execFeasible(t, slo, b))
                      continue;
                  auto bounds = core::rpsBounds(t, slo, b);
                  double value = bounds.up / res.weighted(beta);
                  if (value > best_value) {
                      best_value = value;
                      best.config = cluster::InstanceConfig{b, res};
                      best.execPredicted = t;
                      best.bounds = bounds;
                  }
              }
          }
          if (best_value < 0)
              return {};
          return core::uniformSchedule(best, demand, cluster,
                                       kind == SystemKind::BatchRs, beta,
                                       best.config.resources.memoryMb);
      }
      case SystemKind::OpenFaas: {
          cluster::Resources res{2000, 10, 0};
          res.memoryMb = rig.sched.instanceMemoryMb(model);
          sim::Tick t = rig.cop.predict(model, 1, res);
          core::CandidateConfig config;
          config.config = cluster::InstanceConfig{1, res};
          config.execPredicted = t;
          config.bounds.up =
              1.0 / sim::ticksToSec(std::max<sim::Tick>(1, t));
          config.bounds.low = 0.0;
          return core::uniformSchedule(config, demand, cluster, false,
                                       beta, res.memoryMb);
      }
    }
    return {};
}

double
fragmentRatio(SystemKind kind)
{
    PlannerRig rig;
    cluster::Cluster cluster(200);
    const auto &zoo = models::ModelZoo::shared();
    std::vector<const models::ModelInfo *> pool = {
        &zoo.get("ResNet-50"), &zoo.get("SSD"),       &zoo.get("VGGNet"),
        &zoo.get("MobileNet"), &zoo.get("LSTM-2365"), &zoo.get("ResNet-20"),
        &zoo.get("TextCNN-69")};
    sim::Rng rng(77);

    double capacity =
        cluster.totalCapacity().weighted(cluster::kDefaultBeta);
    auto utilization = [&] {
        return cluster.totalAllocated().weighted(cluster::kDefaultBeta) /
               capacity;
    };

    struct Placed
    {
        cluster::ServerId server;
        cluster::Resources res;
    };
    std::vector<Placed> placed;

    // Fill with random functions until the target utilization so every
    // system compares at the same allocated volume.
    auto fill_to = [&](double target, int max_functions) {
        for (int i = 0; i < max_functions && utilization() < target; ++i) {
            const auto *model = pool[static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(pool.size()) - 1))];
            double demand = rng.uniform(200.0, 1200.0);
            sim::Tick slo =
                model->gflops > 1.0 ? msToTicks(200) : msToTicks(50);
            for (const auto &plan :
                 placeFunction(rig, kind, *model, demand, slo, cluster)) {
                placed.push_back(
                    Placed{plan.server, plan.config.resources});
            }
        }
    };

    fill_to(0.75, 600); // initial population
    // Scale-in churn: release a random 40%.
    for (std::size_t i = 0; i < placed.size();) {
        if (rng.uniform() < 0.4) {
            cluster.release(placed[i].server, placed[i].res);
            placed[i] = placed.back();
            placed.pop_back();
        } else {
            ++i;
        }
    }
    fill_to(0.75, 600); // second wave fills (or fails to fill) the holes

    return cluster.fragmentRatio();
}

} // namespace

int
main(int argc, char **argv)
{
    printHeading(std::cout,
                 "Figure 17(a): Schedule() overhead on a 2,000-server "
                 "cluster (paper: ~0.5ms per instance, <1s for 10,000 "
                 "concurrent requests)");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();

    printHeading(std::cout,
                 "Figure 17(a'): capacity-index fast path vs. naive "
                 "per-server scan (bit-identical plans)");
    {
        static SchedulerRig rig;
        auto series = decisionLatencySeries(rig);
        TextTable table({"demand (RPS)", "instances", "naive (us/decision)",
                         "indexed (us/decision)", "speedup"});
        for (const auto &p : series) {
            table.addRow({fmt(p.demand, 0),
                          std::to_string(p.instances),
                          fmt(p.naiveUsPerDecision, 1),
                          fmt(p.indexedUsPerDecision, 1),
                          fmt(p.speedup(), 1) + "x"});
        }
        table.print(std::cout);
        writeBenchJson(series, "BENCH_sched.json");
        std::cout << "  (series written to BENCH_sched.json; the "
                     "equivalence guarantee is pinned by "
                     "tests/core/scheduler_equivalence_test.cc)\n";
    }

    printHeading(std::cout,
                 "Figure 17(b): resource fragment ratio under placement "
                 "churn at ~75% utilization (200 servers)");
    // Each system's churn experiment owns its rig, cluster, and seeded
    // RNG, so the four runs fan out across workers; results come back in
    // line-up order.
    std::vector<SystemKind> lineup = {SystemKind::OpenFaas,
                                      SystemKind::Batch,
                                      SystemKind::BatchRs,
                                      SystemKind::Infless};
    std::vector<double> ratios = ParallelSweep::map(
        lineup, [](SystemKind kind) { return fragmentRatio(kind); });
    TextTable table({"system", "fragment ratio"});
    for (std::size_t i = 0; i < lineup.size(); ++i)
        table.addRow({systemName(lineup[i]), fmtPercent(ratios[i])});
    table.print(std::cout);
    std::cout << "  (paper: INFless ~15%, lowest of the four; BATCH+RS "
                 "below BATCH, isolating the placement algorithm)\n";

    printHeading(std::cout,
                 "Controller overhead profile: wall-clock cost of the "
                 "scheduler / COP / autoscaler / keep-alive decisions "
                 "over one profiled OSVT run");
    {
        core::PlatformOptions opts;
        opts.obs.profiling = true;
        core::Platform platform(8, std::move(opts));
        auto workloads = osvtWorkload(120.0, 20 * sim::kTicksPerSec);
        runScenario(platform, workloads);

        const obs::OverheadProfiler &prof = platform.overheads();
        TextTable overhead({"phase", "calls", "mean (us)", "p50 (us)",
                            "p99 (us)", "total (ms)"});
        for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
            auto phase = static_cast<obs::Phase>(i);
            obs::PhaseStats stats = prof.stats(phase);
            overhead.addRow({obs::phaseName(phase),
                             std::to_string(stats.count),
                             fmt(stats.meanUs, 1), fmt(stats.p50Us, 1),
                             fmt(stats.p99Us, 1),
                             fmt(stats.totalUs / 1000.0, 2)});
        }
        overhead.print(std::cout);

        writeTelemetryFiles(buildTelemetry(platform, "fig17_scale"));
        std::cout << "  (full snapshot in telemetry.json / "
                     "metrics.prom)\n";
    }
    return 0;
}
