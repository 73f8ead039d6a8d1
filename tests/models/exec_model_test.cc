/**
 * @file
 * Tests for the execution-time surface — the behaviours every INFless
 * experiment relies on (see exec_model.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cluster/resources.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "sim/time.hh"

namespace {

using infless::cluster::Resources;
using infless::models::ExecModel;
using infless::models::ModelZoo;
using infless::models::OpKind;
using infless::models::OpNode;
using infless::sim::msToTicks;
using infless::sim::Tick;

const ExecModel &
model()
{
    static const ExecModel m;
    return m;
}

TEST(ExecModelTest, GpuBatchUtilRisesAndSaturates)
{
    const ExecModel &m = model();
    double prev = 0.0;
    for (int b : {1, 2, 4, 8, 16, 32, 64}) {
        double util = m.gpuBatchUtil(b);
        EXPECT_GT(util, prev);
        EXPECT_LE(util, 1.0);
        prev = util;
    }
    EXPECT_NEAR(m.gpuBatchUtil(1), m.params().gpuUtilBase, 1e-12);
    EXPECT_GT(m.gpuBatchUtil(64), 0.9);
}

TEST(ExecModelTest, MoreCpuIsFaster)
{
    OpNode op{OpKind::Conv2D, 1.0};
    const ExecModel &m = model();
    double t1 = m.opMicros(op, 1, Resources{1000, 0, 0});
    double t2 = m.opMicros(op, 1, Resources{2000, 0, 0});
    double t4 = m.opMicros(op, 1, Resources{4000, 0, 0});
    EXPECT_GT(t1, t2);
    EXPECT_GT(t2, t4);
}

TEST(ExecModelTest, CpuSpeedupIsSubLinearInCores)
{
    OpNode op{OpKind::Conv2D, 1.0};
    const ExecModel &m = model();
    double t1 = m.opMicros(op, 1, Resources{1000, 0, 0});
    double t16 = m.opMicros(op, 1, Resources{16'000, 0, 0});
    EXPECT_GT(t1 / t16, 4.0);  // real speedup
    EXPECT_LT(t1 / t16, 16.0); // but Amdahl-limited
}

TEST(ExecModelTest, GpuBeatsCpuForDenseMath)
{
    OpNode op{OpKind::Conv2D, 1.0};
    const ExecModel &m = model();
    double cpu = m.opMicros(op, 1, Resources{2000, 0, 0});
    double gpu = m.opMicros(op, 1, Resources{2000, 10, 0});
    EXPECT_GT(cpu, gpu);
}

TEST(ExecModelTest, CpuOnlyOpsIgnoreGpuShare)
{
    OpNode op{OpKind::Embedding, 0.1};
    const ExecModel &m = model();
    double without = m.opMicros(op, 1, Resources{2000, 0, 0});
    double with = m.opMicros(op, 1, Resources{2000, 50, 0});
    EXPECT_DOUBLE_EQ(without, with);
}

TEST(ExecModelTest, CpuBatchingIsRoughlyLinear)
{
    // Observation 2: batching on CPU multiplies latency.
    OpNode op{OpKind::Conv2D, 0.5};
    const ExecModel &m = model();
    double t1 = m.opMicros(op, 1, Resources{2000, 0, 0});
    double t4 = m.opMicros(op, 4, Resources{2000, 0, 0});
    EXPECT_GT(t4, 3.5 * t1);
    EXPECT_LT(t4, 4.5 * t1);
}

TEST(ExecModelTest, GpuBatchingIsStronglySubLinear)
{
    OpNode op{OpKind::Conv2D, 0.5};
    const ExecModel &m = model();
    double t1 = m.opMicros(op, 1, Resources{2000, 20, 0});
    double t8 = m.opMicros(op, 8, Resources{2000, 20, 0});
    // 8x the work in far less than 8x the time.
    EXPECT_LT(t8, 4.0 * t1);
}

TEST(ExecModelTest, GpuThroughputPerResourceImprovesWithBatch)
{
    // The economic fact behind built-in batching: requests/sec/SM% grows.
    OpNode op{OpKind::Conv2D, 0.5};
    const ExecModel &m = model();
    double rate1 = 1.0 / m.opMicros(op, 1, Resources{2000, 20, 0});
    double rate8 = 8.0 / m.opMicros(op, 8, Resources{2000, 20, 0});
    EXPECT_GT(rate8, 1.5 * rate1);
}

TEST(ExecModelTest, ResNet50MissesTightSloOnLambdaScaleCpu)
{
    // Observation 1: ResNet-50 on ~1.7 cores (Lambda max memory) exceeds
    // 200 ms per single inference.
    const auto &zoo = ModelZoo::shared();
    const auto &resnet = zoo.get("ResNet-50");
    Tick t = model().trueTicks(resnet, 1, Resources{1700, 0, 0});
    EXPECT_GT(t, msToTicks(200));
}

TEST(ExecModelTest, ResNet50Meets200msOnModestGpuSlice)
{
    const auto &zoo = ModelZoo::shared();
    const auto &resnet = zoo.get("ResNet-50");
    Tick t = model().trueTicks(resnet, 4, Resources{1000, 10, 0});
    EXPECT_LT(t, msToTicks(100)); // t_exec <= slo/2 for batching at 200ms
}

TEST(ExecModelTest, SmallModelsAreFastEverywhere)
{
    const auto &zoo = ModelZoo::shared();
    const auto &mnist = zoo.get("MNIST");
    Tick cpu = model().trueTicks(mnist, 1, Resources{500, 0, 0});
    EXPECT_LT(cpu, msToTicks(50));
}

TEST(ExecModelTest, DeviationIsDeterministicPerConfig)
{
    const auto &zoo = ModelZoo::shared();
    const auto &resnet = zoo.get("ResNet-50");
    Resources res{2000, 10, 0};
    double d1 = model().deviation(resnet, 4, res);
    double d2 = model().deviation(resnet, 4, res);
    EXPECT_DOUBLE_EQ(d1, d2);
}

TEST(ExecModelTest, DeviationVariesAcrossConfigs)
{
    const auto &zoo = ModelZoo::shared();
    const auto &resnet = zoo.get("ResNet-50");
    double d1 = model().deviation(resnet, 4, Resources{2000, 10, 0});
    double d2 = model().deviation(resnet, 8, Resources{2000, 10, 0});
    EXPECT_NE(d1, d2);
}

TEST(ExecModelTest, DeviationBoundedByAmplifiedSpread)
{
    const auto &zoo = ModelZoo::shared();
    const ExecModel &m = model();
    for (const auto &info : zoo.all()) {
        for (int b : {1, 4, 16}) {
            double d = m.deviation(info, b, Resources{2000, 10, 0});
            EXPECT_GT(d, 0.5) << info.name;
            EXPECT_LT(d, 1.5) << info.name;
        }
    }
}

TEST(ExecModelTest, TrueTicksIsPositive)
{
    const auto &zoo = ModelZoo::shared();
    for (const auto &info : zoo.all()) {
        EXPECT_GT(model().trueTicks(info, 1, Resources{1000, 0, 0}), 0)
            << info.name;
    }
}

/**
 * Parameterized sweep: monotonicity of latency in batchsize. The model
 * name is a std::string so the listed parameter is its text, not a
 * per-process pointer value.
 */
class ExecBatchMonotonicity
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(ExecBatchMonotonicity, LatencyRisesWithBatch)
{
    auto [name, gpu] = GetParam();
    const auto &info = ModelZoo::shared().get(name);
    Resources res{2000, gpu, 0};
    Tick prev = 0;
    for (int b : {1, 2, 4, 8, 16, 32}) {
        double t = model().composedMicros(info.dag, b, res);
        EXPECT_GT(t, static_cast<double>(prev) * 0.999)
            << name << " b=" << b;
        prev = static_cast<Tick>(t);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ExecBatchMonotonicity,
    ::testing::Combine(::testing::Values("ResNet-50", "MobileNet",
                                         "LSTM-2365", "Bert-v1", "MNIST"),
                       ::testing::Values(0, 10, 30)),
    [](const auto &info) {
        std::string n = std::get<0>(info.param);
        int gpu = std::get<1>(info.param);
        for (auto &c : n) {
            if (c == '-')
                c = '_';
        }
        return n + "_gpu" + std::to_string(gpu);
    });

} // namespace
