/**
 * @file
 * Figure 11 — maximum throughput under stress for the OSVT and Q&A robot
 * scenarios, plus the component ablation: built-in batching (BB),
 * operator prediction accuracy (OP1.5 / OP2) and resource scheduling
 * (RS).
 */

#include <iostream>
#include <memory>

#include "common/harness.hh"
#include "metrics/report.hh"
#include "workload/generators.hh"
#include "models/model_zoo.hh"

namespace {

using namespace infless;
using namespace infless::bench;
using metrics::fmt;
using metrics::fmtPercent;
using metrics::printHeading;
using metrics::TextTable;
using sim::msToTicks;

struct Scenario
{
    const char *name;
    std::vector<std::string> models;
    sim::Tick slo;
    double offeredPerFn;
};

double
ablatedMaxRps(const Scenario &scenario, double safety_offset,
              bool throughput_only, int max_batch)
{
    core::PlatformOptions opts;
    opts.cop.safetyOffset = safety_offset;
    opts.scheduler.throughputOnly = throughput_only;
    return measureMaxRps(
        [&]() { return std::make_unique<core::Platform>(8, opts); },
        scenario.models, scenario.slo, scenario.offeredPerFn,
        30 * sim::kTicksPerSec, max_batch);
}

} // namespace

int
main()
{
    Scenario scenarios[] = {
        {"OSVT (SLO 200ms)", models::ModelZoo::osvtModels(),
         msToTicks(200), 10'000.0},
        {"Q&A robot (SLO 50ms)", models::ModelZoo::qaRobotModels(),
         msToTicks(50), 20'000.0},
    };

    for (const auto &scenario : scenarios) {
        printHeading(std::cout,
                     std::string("Figure 11: maximum RPS, ") +
                         scenario.name);
        TextTable table({"system", "max RPS", "vs OpenFaaS+"});
        double openfaas = 0.0;
        double full = 0.0;
        for (SystemKind kind : kMainSystems) {
            double rps =
                measureMaxRps(kind, scenario.models, scenario.slo, 8, {},
                              scenario.offeredPerFn);
            if (kind == SystemKind::OpenFaas)
                openfaas = rps;
            if (kind == SystemKind::Infless)
                full = rps;
            table.addRow({systemName(kind), fmt(rps, 0),
                          openfaas > 0 ? fmt(rps / openfaas, 2) + "x"
                                       : "-"});
        }
        table.print(std::cout);

        // Component ablation (paper: BB costs the most, then OP, then
        // RS; OSVT drops 45.6%/35.4%/21.9%, Q&A 60%/34.3%/7%). The full
        // variant is the INFless row above: the same platform, defaults
        // and sweep.
        double no_bb = ablatedMaxRps(scenario, 0.10, false, 1);
        double op15 = ablatedMaxRps(scenario, 0.50, false, 32);
        double op2 = ablatedMaxRps(scenario, 1.00, false, 32);
        double no_rs = ablatedMaxRps(scenario, 0.10, true, 32);

        printHeading(std::cout,
                     std::string("Figure 11 ablation, ") + scenario.name);
        TextTable ablation({"variant", "max RPS", "drop vs full"});
        auto drop = [&](double rps) {
            return full > 0 ? fmtPercent(1.0 - rps / full) : "-";
        };
        ablation.addRow({"INFless (full)", fmt(full, 0), "-"});
        ablation.addRow({"no built-in batching (BB)", fmt(no_bb, 0),
                         drop(no_bb)});
        ablation.addRow({"prediction offset 50% (OP1.5)", fmt(op15, 0),
                         drop(op15)});
        ablation.addRow({"prediction offset 100% (OP2)", fmt(op2, 0),
                         drop(op2)});
        ablation.addRow({"no resource scheduling (RS)", fmt(no_rs, 0),
                         drop(no_rs)});
        ablation.print(std::cout);
    }
    return 0;
}
