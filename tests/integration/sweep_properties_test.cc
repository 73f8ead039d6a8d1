/**
 * @file
 * Parameterized property sweeps over the analytical layers: Eq. 1
 * bounds, AvailableConfig feasibility, COP consistency and the
 * execution surface, across every model in the zoo.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sim/logging.hh"

#include "cluster/cluster.hh"
#include "cluster/container_runtime.hh"
#include "core/rps_bounds.hh"
#include "core/scheduler.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"

namespace {

using infless::cluster::Resources;
using infless::core::execFeasible;
using infless::core::GreedyScheduler;
using infless::core::rpsBounds;
using infless::models::ExecModel;
using infless::models::ModelZoo;
using infless::profiler::CopPredictor;
using infless::profiler::OpProfileDb;
using infless::sim::msToTicks;
using infless::sim::Tick;

// ---------------------------------------------------------------------------
// Eq. 1 properties over a (slo, exec, batch) grid
// ---------------------------------------------------------------------------

class RpsBoundsSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(RpsBoundsSweep, BoundsAreOrderedAndScaleWithBatch)
{
    auto [slo_ms, exec_ms, batch] = GetParam();
    Tick slo = msToTicks(slo_ms);
    Tick exec = msToTicks(exec_ms);
    if (!execFeasible(exec, slo, batch)) {
        // An infeasible corner has no bounds: rpsBounds refuses it.
        EXPECT_THROW(rpsBounds(exec, slo, batch), infless::sim::PanicError);
        return;
    }

    auto bounds = rpsBounds(exec, slo, batch);
    EXPECT_LE(bounds.low, bounds.up);
    EXPECT_GE(bounds.low, 0.0);

    // r_up doubles with the batch (same execution time).
    if (execFeasible(exec, slo, batch * 2)) {
        auto doubled = rpsBounds(exec, slo, batch * 2);
        EXPECT_DOUBLE_EQ(doubled.up, 2.0 * bounds.up);
        EXPECT_GE(doubled.low, bounds.low);
    }

    // A faster execution never lowers the admissible window.
    Tick faster = exec / 2;
    if (faster > 0 && execFeasible(faster, slo, batch)) {
        auto quick = rpsBounds(faster, slo, batch);
        EXPECT_GE(quick.up, bounds.up);
        EXPECT_LE(quick.low, bounds.low);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RpsBoundsSweep,
    ::testing::Combine(::testing::Values(50, 150, 300),
                       ::testing::Values(10, 40, 70, 140),
                       ::testing::Values(1, 4, 16)),
    [](const auto &info) {
        return "slo" + std::to_string(std::get<0>(info.param)) + "_exec" +
               std::to_string(std::get<1>(info.param)) + "_b" +
               std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Per-model properties across the whole zoo
// ---------------------------------------------------------------------------

class ZooSweep : public ::testing::TestWithParam<const char *>
{
  protected:
    static ExecModel &
    exec()
    {
        static ExecModel instance;
        return instance;
    }
    static OpProfileDb &
    db()
    {
        static OpProfileDb instance(exec());
        return instance;
    }
    static CopPredictor &
    cop()
    {
        static CopPredictor instance(db());
        return instance;
    }
};

TEST_P(ZooSweep, ExecutionTimeMonotoneInResources)
{
    const auto &model = ModelZoo::shared().get(GetParam());
    // More GPU never slows a batch down; more CPU never slows it down.
    Tick weak_gpu = exec().trueTicks(model, 4, Resources{1000, 5, 0});
    Tick strong_gpu = exec().trueTicks(model, 4, Resources{1000, 40, 0});
    EXPECT_GE(static_cast<double>(weak_gpu) * 1.35,
              static_cast<double>(strong_gpu))
        << "GPU scaling violated (beyond deviation slack)";

    Tick weak_cpu = exec().trueTicks(model, 1, Resources{500, 0, 0});
    Tick strong_cpu = exec().trueTicks(model, 1, Resources{8000, 0, 0});
    EXPECT_GE(static_cast<double>(weak_cpu) * 1.35,
              static_cast<double>(strong_cpu));
}

TEST_P(ZooSweep, PredictionWithinSafetyEnvelope)
{
    // With the 10% offset, predictions should rarely fall below truth by
    // more than the deviation the surface can produce.
    const auto &model = ModelZoo::shared().get(GetParam());
    for (int b : {1, 8, 32}) {
        for (std::int64_t gpu : {0, 10, 30}) {
            Resources res{2000, gpu, 0};
            double predicted =
                static_cast<double>(cop().predict(model, b, res));
            double truth =
                static_cast<double>(exec().trueTicks(model, b, res));
            EXPECT_GT(predicted, truth * 0.75)
                << GetParam() << " b=" << b << " gpu=" << gpu;
            EXPECT_LT(predicted, truth * 2.0)
                << GetParam() << " b=" << b << " gpu=" << gpu;
        }
    }
}

TEST_P(ZooSweep, SchedulerCoversModerateDemandWhenFeasible)
{
    const auto &model = ModelZoo::shared().get(GetParam());
    GreedyScheduler sched(cop());
    infless::cluster::Cluster cluster(8);
    Tick slo = model.gflops > 1.0 ? msToTicks(300) : msToTicks(80);
    auto plans = sched.schedule(model, 80.0, slo, 32, cluster);
    ASSERT_FALSE(plans.empty()) << GetParam();
    double covered = 0.0;
    for (const auto &plan : plans) {
        covered += plan.bounds.up;
        EXPECT_TRUE(execFeasible(plan.execPredicted, slo,
                                 plan.config.batchSize))
            << GetParam();
    }
    EXPECT_GE(covered, 80.0) << GetParam();
}

TEST_P(ZooSweep, ColdStartDominatedByModelSizeForLargeModels)
{
    const auto &model = ModelZoo::shared().get(GetParam());
    infless::cluster::ContainerRuntime runtime;
    Tick cold = runtime.coldStartTicks(model.sizeMb);
    // Everything pays at least the fixed container+library cost.
    EXPECT_GE(cold, runtime.coldStartTicks(0));
    if (model.sizeMb > 100) {
        EXPECT_GT(cold - runtime.coldStartTicks(0),
                  runtime.coldStartTicks(0) / 2);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooSweep,
    ::testing::Values("Bert-v1", "ResNet-50", "VGGNet", "LSTM-2365",
                      "ResNet-20", "SSD", "DSSM-2365", "DeepSpeech",
                      "MobileNet", "TextCNN-69", "MNIST"),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
