/**
 * @file
 * Regression tests for the auto-scaling engine's dynamic behaviour:
 * fleet consolidation (reconfiguration), cross-function fairness, and
 * accelerated cold starts.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "core/platform.hh"
#include "models/model_zoo.hh"
#include "workload/generators.hh"

namespace {

using infless::core::FunctionSpec;
using infless::core::Platform;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;

TEST(ScalingBehaviorTest, SteadyLoadFleetConsolidatesIntoBatches)
{
    // Regression: incremental ramp-up used to leave a permanent fleet of
    // batch-1 instances; the reconfiguration pass must consolidate it.
    Platform p(4);
    auto fn = p.deploy(FunctionSpec{"r", "ResNet-50", msToTicks(200), 32});
    p.injectTrace(fn,
                  infless::workload::uniformArrivals(100.0,
                                                     90 * kTicksPerSec));
    p.run(90 * kTicksPerSec);

    EXPECT_GT(p.totalMetrics().meanBatchFill(), 3.0);
    // The surviving fleet is batched, not the ramp-up's batch-1 configs.
    bool any_batched_served = false;
    for (const auto &usage : p.configUsage(fn)) {
        if (usage.config.batchSize > 1 &&
            usage.requestsServed > p.totalMetrics().completions() / 2) {
            any_batched_served = true;
        }
    }
    EXPECT_TRUE(any_batched_served);
}

TEST(ScalingBehaviorTest, ReconfigurationPaysOffQuickly)
{
    // Batch fill over the second half of the run should far exceed the
    // overall mean (the ramp's batch-1 history dilutes the latter).
    Platform p(4);
    auto fn = p.deploy(FunctionSpec{"r", "ResNet-50", msToTicks(200), 32});
    p.injectTrace(fn,
                  infless::workload::uniformArrivals(100.0,
                                                     60 * kTicksPerSec));
    p.run(30 * kTicksPerSec);
    auto half_batches = p.totalMetrics().batches();
    auto half_completions = p.totalMetrics().completions();
    p.run(60 * kTicksPerSec + 5 * kTicksPerSec);
    auto late_batches = p.totalMetrics().batches() - half_batches;
    auto late_completions =
        p.totalMetrics().completions() - half_completions;
    ASSERT_GT(late_batches, 0);
    double late_fill = static_cast<double>(late_completions) /
                       static_cast<double>(late_batches);
    EXPECT_GT(late_fill, 4.0);
}

TEST(ScalingBehaviorTest, NoFunctionStarvesUnderClusterPressure)
{
    // Regression: one function's scale-out used to claim the entire CPU
    // pool in a single tick, starving its peers.
    Platform p(2);
    std::vector<infless::core::FunctionId> fns;
    for (const auto &model :
         infless::models::ModelZoo::qaRobotModels()) {
        auto fn = p.deploy(FunctionSpec{model, model, msToTicks(50), 32});
        p.injectTrace(fn, infless::workload::uniformArrivals(
                              5000.0, 45 * kTicksPerSec));
        fns.push_back(fn);
    }
    p.run(45 * kTicksPerSec);
    // Every function gets a meaningful share of service.
    std::int64_t least = INT64_MAX;
    std::int64_t most = 0;
    for (auto fn : fns) {
        least = std::min(least, p.functionMetrics(fn).completions());
        most = std::max(most, p.functionMetrics(fn).completions());
    }
    EXPECT_GT(least, 0);
    EXPECT_GT(least * 20, most); // within 20x of each other
}

TEST(ScalingBehaviorTest, DrainingInstancesKeepServingDuringHandover)
{
    // Make-before-break: no request loss spike during reconfigurations.
    Platform p(4);
    auto fn = p.deploy(FunctionSpec{"r", "ResNet-50", msToTicks(200), 32});
    p.injectTrace(fn,
                  infless::workload::uniformArrivals(100.0,
                                                     2 * kTicksPerMin));
    p.run(30 * kTicksPerSec);
    auto drops_at_30s = p.totalMetrics().drops();
    p.run(2 * kTicksPerMin + 5 * kTicksPerSec);
    // All drops happen in the cold ramp; reconfigurations later must not
    // add more than a trickle.
    EXPECT_LE(p.totalMetrics().drops(), drops_at_30s + 40);
}

} // namespace
