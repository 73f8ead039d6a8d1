/**
 * @file
 * Figure 16 — cold-start rate and idle resource waste of the keep-alive
 * policies: fixed, HHP, and LSTH with gamma in {0.3, 0.5, 0.7}, replayed
 * over per-function traces with the three production patterns (LTP
 * horizon 24 h, STB horizon 1 h).
 */

#include <iostream>
#include <memory>
#include <vector>

#include "coldstart/evaluator.hh"
#include "coldstart/fixed.hh"
#include "coldstart/hhp.hh"
#include "coldstart/lsth.hh"
#include "metrics/report.hh"
#include "sim/rng.hh"
#include "workload/azure_synth.hh"

namespace {

using namespace infless;
using coldstart::evaluatePolicy;
using coldstart::KeepAlivePolicy;
using coldstart::PolicyEvaluation;
using metrics::fmt;
using metrics::fmtPercent;
using metrics::printHeading;
using metrics::TextTable;
using workload::TracePattern;
using workload::tracePatternName;

struct PolicySpec
{
    std::string label;
    std::function<std::unique_ptr<KeepAlivePolicy>()> make;
};

std::vector<PolicySpec>
policies()
{
    std::vector<PolicySpec> specs;
    specs.push_back({"fixed (300s)", coldstart::FixedKeepAlive::factory()});
    specs.push_back({"HHP (4h)", coldstart::HybridHistogramPolicy::factory()});
    for (double gamma : {0.3, 0.5, 0.7}) {
        specs.push_back({"LSTH gamma=" + fmt(gamma, 1),
                         coldstart::LsthPolicy::factory(gamma)});
    }
    return specs;
}

/** Average over seeds of one (policy, pattern) cell. */
PolicyEvaluation
evaluate(const PolicySpec &spec, TracePattern pattern)
{
    PolicyEvaluation sum;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        // Low per-function rates, as in the Azure trace: most functions
        // see sparse invocations where keep-alive policy matters.
        auto series = workload::synthesizeTrace(pattern, 0.01, 3.0, seed);
        sim::Rng rng(seed * 131 + 7);
        auto trace = workload::ArrivalTrace::fromRateSeries(series, rng);
        auto policy = spec.make();
        PolicyEvaluation eval = evaluatePolicy(*policy, trace);
        sum.invocations += eval.invocations;
        sum.coldStarts += eval.coldStarts;
        sum.wastedWarmTicks += eval.wastedWarmTicks;
        sum.traceTicks += eval.traceTicks;
    }
    return sum;
}

} // namespace

int
main()
{
    printHeading(std::cout,
                 "Figure 16: cold-start rate / idle waste by keep-alive "
                 "policy (3-day traces, 5 seeds per cell)");
    TextTable table({"policy", "sporadic cold", "periodic cold",
                     "bursty cold", "sporadic waste", "periodic waste",
                     "bursty waste"});
    double hhp_cold = 0.0, hhp_waste = 0.0;
    double lsth_cold = 0.0, lsth_waste = 0.0;
    for (const auto &spec : policies()) {
        std::vector<std::string> row = {spec.label};
        std::vector<std::string> waste_cells;
        double cold_sum = 0.0, waste_sum = 0.0;
        for (TracePattern pattern : workload::kAllPatterns) {
            auto eval = evaluate(spec, pattern);
            row.push_back(fmtPercent(eval.coldStartRate(), 2));
            waste_cells.push_back(fmtPercent(eval.wasteRatio()));
            cold_sum += eval.coldStartRate();
            waste_sum += eval.wasteRatio();
        }
        row.insert(row.end(), waste_cells.begin(), waste_cells.end());
        table.addRow(std::move(row));
        if (spec.label.rfind("HHP", 0) == 0) {
            hhp_cold = cold_sum;
            hhp_waste = waste_sum;
        }
        if (spec.label == "LSTH gamma=0.5") {
            lsth_cold = cold_sum;
            lsth_waste = waste_sum;
        }
    }
    table.print(std::cout);

    if (hhp_cold > 0) {
        std::cout << "  LSTH(0.5) vs HHP: cold starts "
                  << fmt((1.0 - lsth_cold / hhp_cold) * 100.0, 1)
                  << "% lower (paper: 21.9%), idle waste "
                  << fmt((1.0 - lsth_waste / hhp_waste) * 100.0, 1)
                  << "% lower (paper: 24.3%; see EXPERIMENTS.md for the "
                     "deviation discussion)\n";
    }
    return 0;
}
