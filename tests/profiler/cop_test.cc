/**
 * @file
 * Tests for the COP predictor — including the Fig. 8 accuracy property:
 * average prediction error under 10% across batch/resource configs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cluster/resources.hh"
#include "models/dag.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"
#include "sim/logging.hh"

namespace {

using infless::cluster::Resources;
using infless::models::Dag;
using infless::models::DagBuilder;
using infless::models::ExecModel;
using infless::models::ModelInfo;
using infless::models::ModelZoo;
using infless::models::OpKind;
using infless::models::OpNode;
using infless::profiler::CopOptions;
using infless::profiler::CopPredictor;
using infless::profiler::OpProfileDb;
using infless::sim::PanicError;

/** A model outside the zoo, keyed by @p key. */
ModelInfo
customModel(Dag dag, std::uint64_t key)
{
    ModelInfo info;
    info.name = "custom-" + std::to_string(key);
    info.dag = std::move(dag);
    info.noiseKey = key;
    return info;
}

struct CopFixture : ::testing::Test
{
    ExecModel exec;
    OpProfileDb db{exec};
    CopPredictor cop{db};
};

TEST_F(CopFixture, PredictionIsPositiveForEveryModel)
{
    for (const auto &info : ModelZoo::shared().all()) {
        EXPECT_GT(cop.predict(info, 1, Resources{1000, 0, 0}), 0)
            << info.name;
    }
}

TEST_F(CopFixture, SafetyOffsetInflatesPrediction)
{
    const auto &resnet = ModelZoo::shared().get("ResNet-50");
    Resources res{2000, 10, 0};
    double raw = cop.rawMicros(resnet, 4, res);
    double predicted = static_cast<double>(cop.predict(resnet, 4, res));
    EXPECT_NEAR(predicted / raw, 1.10, 0.001);
}

TEST_F(CopFixture, AblationOffsetsApply)
{
    const auto &resnet = ModelZoo::shared().get("ResNet-50");
    Resources res{2000, 10, 0};
    OpProfileDb db15(exec), db2(exec);
    CopPredictor op15(db15, CopOptions{0.5});
    CopPredictor op2(db2, CopOptions{1.0});
    double raw = cop.rawMicros(resnet, 4, res);
    EXPECT_NEAR(static_cast<double>(op15.predict(resnet, 4, res)) / raw,
                1.5, 0.01);
    EXPECT_NEAR(static_cast<double>(op2.predict(resnet, 4, res)) / raw,
                2.0, 0.01);
}

TEST_F(CopFixture, PredictionsAreMemoizedConsistently)
{
    const auto &bert = ModelZoo::shared().get("Bert-v1");
    Resources res{2000, 20, 0};
    auto first = cop.predict(bert, 8, res);
    auto second = cop.predict(bert, 8, res);
    EXPECT_EQ(first, second);
}

TEST_F(CopFixture, MeanPredictionErrorUnderTenPercent)
{
    // Fig. 8: the operator-combination model achieves <10% average error
    // for ResNet-50, MobileNet and LSTM-2365.
    for (const char *name : {"ResNet-50", "MobileNet", "LSTM-2365"}) {
        const auto &info = ModelZoo::shared().get(name);
        double total = 0.0;
        int configs = 0;
        for (int b : {1, 2, 4, 8, 16, 32}) {
            for (std::int64_t cpu : {1000, 2000, 4000}) {
                for (std::int64_t gpu : {0, 10, 20, 30}) {
                    Resources res{cpu, gpu, 0};
                    total += cop.predictionError(exec, info, b, res);
                    ++configs;
                }
            }
        }
        double mean = total / configs;
        EXPECT_LT(mean, 0.10) << name;
        EXPECT_GT(mean, 0.01) << name << " (suspiciously perfect)";
    }
}

TEST_F(CopFixture, LstmErrsMoreThanChainModels)
{
    // Fig. 8's ordering: branchy LSTM-2365 has the highest error.
    auto mean_error = [&](const std::string &name) {
        const auto &info = ModelZoo::shared().get(name);
        double total = 0.0;
        int configs = 0;
        for (int b : {1, 2, 4, 8, 16, 32}) {
            for (std::int64_t gpu : {0, 10, 20, 30}) {
                total += cop.predictionError(exec, info, b,
                                             Resources{2000, gpu, 0});
                ++configs;
            }
        }
        return total / configs;
    };
    double lstm = mean_error("LSTM-2365");
    EXPECT_GT(lstm, mean_error("MobileNet"));
    EXPECT_GT(lstm, mean_error("VGGNet"));
}

TEST_F(CopFixture, PredictionTracksResourceOrdering)
{
    // More resources -> lower predicted latency (weak monotonicity).
    const auto &resnet = ModelZoo::shared().get("ResNet-50");
    auto weak = cop.predict(resnet, 4, Resources{1000, 5, 0});
    auto strong = cop.predict(resnet, 4, Resources{4000, 50, 0});
    EXPECT_GT(weak, strong);
}

TEST_F(CopFixture, NegativeOffsetRejected)
{
    OpProfileDb db2(exec);
    EXPECT_THROW(CopPredictor(db2, CopOptions{-0.1}), PanicError);
}

TEST_F(CopFixture, ZeroWorkNodeIsUnscaled)
{
    // A zero-gflops node reads its measurement as is: no work ratio.
    OpNode op{OpKind::Identity, 0.0};
    EXPECT_EQ(OpProfileDb::workRatio(op), 1.0);
    DagBuilder b;
    b.chain(op);
    ModelInfo model = customModel(b.build(), 101);
    Resources res{1200, 7, 256};
    Resources snapped = db.snapResources(res);
    snapped.memoryMb = 0;
    double measured = exec.opMicros(op, db.snapBatch(3), snapped);
    EXPECT_EQ(cop.rawMicros(model, 3, res),
              measured + exec.params().batchDispatchUs);
}

TEST_F(CopFixture, NodesSharingASignatureKeepTheirOwnWork)
{
    OpNode small{OpKind::MatMul, 0.500};
    OpNode large{OpKind::MatMul, 0.515};
    OpNode join{OpKind::ConcatV2, 0.0};
    ASSERT_EQ(OpProfileDb::signatureOf(small),
              OpProfileDb::signatureOf(large));
    Resources res{1000, 0, 0};
    OpProfileDb ref_db(exec);
    double w_small = ref_db.lookupMicros(small, 4, res);
    double w_large = ref_db.lookupMicros(large, 4, res);
    double w_join = ref_db.lookupMicros(join, 4, res);
    ASSERT_GT(w_large, w_small);
    double dispatch = exec.params().batchDispatchUs;

    // Parallel branches: the larger node sets the path. A ratio per
    // signature would price both branches alike.
    DagBuilder fork;
    fork.parallel({{small}, {large}}, join);
    ModelInfo branches = customModel(fork.build(), 102);
    EXPECT_EQ(cop.rawMicros(branches, 4, res),
              (w_large + w_join) + dispatch);
    // Two signatures, so two profiles measured at this grid point.
    EXPECT_EQ(db.size(), 2u);

    DagBuilder line;
    line.chain(small);
    line.chain(large);
    ModelInfo chain = customModel(line.build(), 103);
    EXPECT_EQ(cop.rawMicros(chain, 4, res), (w_small + w_large) + dispatch);
    EXPECT_EQ(db.size(), 2u);
}

TEST_F(CopFixture, DistortionScalesMemoizedPredictions)
{
    const auto &resnet = ModelZoo::shared().get("ResNet-50");
    Resources res{2000, 10, 0};
    double faithful = cop.rawMicros(resnet, 8, res);
    auto misses = cop.cacheStats().misses;
    cop.setDistortion(1.3);
    EXPECT_EQ(cop.rawMicros(resnet, 8, res), faithful * 1.3);
    cop.setDistortion(1.0);
    EXPECT_EQ(cop.rawMicros(resnet, 8, res), faithful);
    EXPECT_EQ(cop.cacheStats().misses, misses);
}

TEST_F(CopFixture, ProfileCountOverSchedulerMenu)
{
    // Every zoo model at every batch over the scheduler's default
    // CPU x GPU menu measures exactly this many distinct profiles: each
    // (signature, batch, cpu, gpu) grid point once.
    for (const auto &model : ModelZoo::shared().all()) {
        for (int b = 1; b <= model.maxBatch; ++b) {
            for (std::int64_t cpu : {500, 1000, 2000, 4000})
                for (std::int64_t gpu : {0, 5, 10, 20, 30, 50})
                    cop.rawMicros(model, b, Resources{cpu, gpu, 0});
        }
    }
    EXPECT_EQ(db.size(), 11376u);
}

TEST_F(CopFixture, PlanRejectsAGraphOfAnotherSize)
{
    // Plans are keyed by noiseKey, like the memo; a different graph
    // under the same key is caught, not priced with the wrong plan.
    DagBuilder one, two;
    one.chain(OpNode{OpKind::MatMul, 0.5});
    two.chain(OpNode{OpKind::MatMul, 0.5});
    two.chain(OpNode{OpKind::Relu, 0.01});
    ModelInfo first = customModel(one.build(), 104);
    ModelInfo second = customModel(two.build(), 104);
    cop.rawMicros(first, 1, Resources{1000, 0, 0});
    EXPECT_THROW(cop.rawMicros(second, 1, Resources{2000, 0, 0}),
                 PanicError);
}

/** FNV-1a over the raw and predicted values of every zoo model at
 *  every batch over the scheduler's default menu. */
std::uint64_t
zooDigest(CopPredictor &cop)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    };
    for (const auto &model : ModelZoo::shared().all()) {
        for (int b = 1; b <= model.maxBatch; ++b) {
            for (std::int64_t cpu : {500, 1000, 2000, 4000}) {
                for (std::int64_t gpu : {0, 5, 10, 20, 30, 50}) {
                    Resources res{cpu, gpu, 0};
                    mix(std::bit_cast<std::uint64_t>(
                        cop.rawMicros(model, b, res)));
                    mix(static_cast<std::uint64_t>(
                        cop.predict(model, b, res)));
                }
            }
        }
    }
    return h;
}

TEST(CopPredictor, ConcurrentPredictorsOverSharedZoo)
{
    // The zoo and its graphs are shared read-only; each thread owns its
    // profile database and predictor (and so its plans and scratch).
    const ExecModel exec;
    constexpr int kThreads = 4;
    std::vector<std::uint64_t> digests(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&exec, &digests, t] {
            OpProfileDb db(exec);
            CopPredictor cop(db);
            digests[static_cast<std::size_t>(t)] = zooDigest(cop);
        });
    }
    for (std::thread &th : threads)
        th.join();
    OpProfileDb db(exec);
    CopPredictor cop(db);
    std::uint64_t serial = zooDigest(cop);
    for (std::uint64_t d : digests)
        EXPECT_EQ(d, serial);
}

} // namespace
