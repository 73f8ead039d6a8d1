/**
 * @file
 * Parameterized sweep: every keep-alive policy against every trace
 * pattern must produce sane windows and consistent evaluations.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "sim/logging.hh"

#include "coldstart/evaluator.hh"
#include "coldstart/fixed.hh"
#include "coldstart/hhp.hh"
#include "coldstart/lsth.hh"
#include "sim/rng.hh"
#include "workload/azure_synth.hh"

namespace {

using infless::coldstart::evaluatePolicy;
using infless::coldstart::KeepAlivePolicy;
using infless::sim::kTicksPerHour;
using infless::sim::Rng;
using infless::workload::ArrivalTrace;
using infless::workload::synthesizeTrace;
using infless::workload::TracePattern;

enum class PolicyKind
{
    Fixed,
    Hhp,
    Lsth03,
    Lsth05,
    Lsth07
};

std::unique_ptr<KeepAlivePolicy>
makePolicy(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Fixed:
        return std::make_unique<infless::coldstart::FixedKeepAlive>();
      case PolicyKind::Hhp:
        return std::make_unique<
            infless::coldstart::HybridHistogramPolicy>();
      case PolicyKind::Lsth03:
      case PolicyKind::Lsth05:
      case PolicyKind::Lsth07: {
          double gamma = kind == PolicyKind::Lsth03   ? 0.3
                         : kind == PolicyKind::Lsth05 ? 0.5
                                                      : 0.7;
          return std::make_unique<infless::coldstart::LsthPolicy>(gamma);
      }
    }
    return nullptr;
}

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Fixed:
        return "fixed";
      case PolicyKind::Hhp:
        return "hhp";
      case PolicyKind::Lsth03:
        return "lsth03";
      case PolicyKind::Lsth05:
        return "lsth05";
      case PolicyKind::Lsth07:
        return "lsth07";
    }
    return "?";
}

class PolicySweep
    : public ::testing::TestWithParam<std::tuple<PolicyKind, TracePattern>>
{
};

TEST_P(PolicySweep, DecisionsAreAlwaysSane)
{
    auto [kind, pattern] = GetParam();
    auto policy = makePolicy(kind);
    auto series = synthesizeTrace(pattern, 0.02, 1.0, 17);
    Rng rng(29);
    auto trace = ArrivalTrace::fromRateSeries(series, rng);
    for (auto t : trace.arrivals()) {
        auto decision = policy->decide(t);
        EXPECT_GE(decision.prewarmWindow, 0);
        EXPECT_GT(decision.keepAliveWindow, 0);
        EXPECT_LE(decision.warmEnd(), 24 * kTicksPerHour);
        policy->recordInvocation(t);
    }
}

TEST_P(PolicySweep, EvaluationIsInternallyConsistent)
{
    auto [kind, pattern] = GetParam();
    auto policy = makePolicy(kind);
    auto series = synthesizeTrace(pattern, 0.02, 2.0, 23);
    Rng rng(31);
    auto trace = ArrivalTrace::fromRateSeries(series, rng);
    auto eval = evaluatePolicy(*policy, trace);

    EXPECT_EQ(eval.invocations,
              static_cast<std::int64_t>(trace.size()));
    EXPECT_LE(eval.coldStarts, eval.invocations);
    if (eval.invocations > 0) {
        EXPECT_GE(eval.coldStarts, 1); // the first is always cold
    }
    EXPECT_GE(eval.wastedWarmTicks, 0);
    // Warm-idle time can exceed the trace only through post-miss
    // keep-alive windows; cap it generously.
    EXPECT_LE(eval.wastedWarmTicks, 3 * eval.traceTicks + kTicksPerHour);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PolicySweep,
    ::testing::Combine(::testing::Values(PolicyKind::Fixed,
                                         PolicyKind::Hhp,
                                         PolicyKind::Lsth03,
                                         PolicyKind::Lsth05,
                                         PolicyKind::Lsth07),
                       ::testing::Values(TracePattern::Sporadic,
                                         TracePattern::Periodic,
                                         TracePattern::Bursty)),
    [](const auto &info) {
        std::string name = policyName(std::get<0>(info.param));
        name += "_";
        name += infless::workload::tracePatternName(
            std::get<1>(info.param));
        return name;
    });

} // namespace
