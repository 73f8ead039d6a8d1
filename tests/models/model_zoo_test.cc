/**
 * @file
 * Tests for the Table 1 model zoo: sizes, GFLOPs, and the operator-mix
 * facts of Fig. 7.
 */

#include <gtest/gtest.h>

#include <string>

#include "models/model_zoo.hh"
#include "models/operator.hh"
#include "sim/logging.hh"

namespace {

using infless::models::Dag;
using infless::models::ModelZoo;
using infless::models::OpKind;
using infless::models::OpNode;
using infless::sim::FatalError;

TEST(ModelZooTest, ContainsAllElevenModels)
{
    const auto &zoo = ModelZoo::shared();
    EXPECT_EQ(zoo.all().size(), 11u);
    for (const char *name :
         {"Bert-v1", "ResNet-50", "VGGNet", "LSTM-2365", "ResNet-20", "SSD",
          "DSSM-2365", "DeepSpeech", "MobileNet", "TextCNN-69", "MNIST"}) {
        EXPECT_EQ(zoo.get(name).name, name);
    }
}

TEST(ModelZooTest, Dssm2389AliasResolves)
{
    const auto &zoo = ModelZoo::shared();
    EXPECT_EQ(zoo.get("DSSM-2389").name, "DSSM-2365");
}

TEST(ModelZooTest, UnknownModelIsFatal)
{
    EXPECT_THROW(ModelZoo::shared().get("AlexNet"), FatalError);
}

TEST(ModelZooTest, Table1SizesAndGflops)
{
    const auto &zoo = ModelZoo::shared();
    EXPECT_DOUBLE_EQ(zoo.get("Bert-v1").sizeMb, 391);
    EXPECT_DOUBLE_EQ(zoo.get("Bert-v1").gflops, 22.2);
    EXPECT_DOUBLE_EQ(zoo.get("ResNet-50").sizeMb, 98);
    EXPECT_DOUBLE_EQ(zoo.get("ResNet-50").gflops, 3.89);
    EXPECT_DOUBLE_EQ(zoo.get("MNIST").gflops, 0.01);
}

TEST(ModelZooTest, DagGflopsMatchTable1)
{
    for (const auto &info : ModelZoo::shared().all())
        EXPECT_NEAR(info.dag.totalGflops(), info.gflops, 1e-9) << info.name;
}

TEST(ModelZooTest, AllDagsAreAcyclic)
{
    for (const auto &info : ModelZoo::shared().all())
        EXPECT_TRUE(info.dag.isAcyclic()) << info.name;
}

TEST(ModelZooTest, ResNet50IsConvDominated)
{
    // Fig. 7b: >95% of ResNet-50 execution is Conv2D.
    const auto &info = ModelZoo::shared().get("ResNet-50");
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    auto work = info.dag.workByKind(weight);
    EXPECT_GT(work[OpKind::Conv2D] / info.gflops, 0.95);
}

TEST(ModelZooTest, ResNet50HasEightDistinctOperators)
{
    EXPECT_EQ(ModelZoo::shared().get("ResNet-50").dag.distinctOps(), 8);
}

TEST(ModelZooTest, Lstm2365Calls81MatMuls)
{
    // Fig. 7a: MatMul is called 81 times in LSTM-2365.
    const auto &info = ModelZoo::shared().get("LSTM-2365");
    auto counts = info.dag.opCounts();
    EXPECT_EQ(counts[OpKind::MatMul], 81);
}

TEST(ModelZooTest, Lstm2365IsMatMulDominatedButNotTotally)
{
    // Fig. 7a: (Fused)MatMul takes ~76% of execution time.
    const auto &info = ModelZoo::shared().get("LSTM-2365");
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    auto work = info.dag.workByKind(weight);
    double share =
        (work[OpKind::MatMul] + work[OpKind::FusedMatMul]) / info.gflops;
    EXPECT_GT(share, 0.65);
    EXPECT_LT(share, 0.90);
}

TEST(ModelZooTest, LstmHasHighestBranchOverlap)
{
    // Fig. 8's rationale: LSTM-2365 has the most overlapping execution
    // paths, so its composition error is largest.
    const auto &zoo = ModelZoo::shared();
    double lstm = zoo.get("LSTM-2365").dag.branchOverlap();
    for (const auto &info : zoo.all()) {
        if (info.name == "LSTM-2365")
            continue;
        EXPECT_GE(lstm, info.dag.branchOverlap()) << info.name;
    }
}

TEST(ModelZooTest, ChainModelsHaveZeroOverlap)
{
    EXPECT_DOUBLE_EQ(ModelZoo::shared().get("VGGNet").dag.branchOverlap(),
                     0.0);
    EXPECT_DOUBLE_EQ(
        ModelZoo::shared().get("MobileNet").dag.branchOverlap(), 0.0);
    EXPECT_DOUBLE_EQ(ModelZoo::shared().get("MNIST").dag.branchOverlap(),
                     0.0);
}

TEST(ModelZooTest, NoiseKeysAreDistinct)
{
    const auto &zoo = ModelZoo::shared();
    for (std::size_t i = 0; i < zoo.all().size(); ++i) {
        for (std::size_t j = i + 1; j < zoo.all().size(); ++j) {
            EXPECT_NE(zoo.all()[i].noiseKey, zoo.all()[j].noiseKey)
                << zoo.all()[i].name << " vs " << zoo.all()[j].name;
        }
    }
}

TEST(ModelZooTest, ApplicationBundles)
{
    // §5.1: OSVT uses SSD + MobileNet + ResNet-50; the Q&A robot uses
    // TextCNN-69 + LSTM-2365 + DSSM.
    auto osvt = ModelZoo::osvtModels();
    EXPECT_EQ(osvt.size(), 3u);
    auto qa = ModelZoo::qaRobotModels();
    EXPECT_EQ(qa.size(), 3u);
    for (const auto &name : osvt)
        EXPECT_NO_THROW(ModelZoo::shared().get(name)) << name;
    for (const auto &name : qa)
        EXPECT_NO_THROW(ModelZoo::shared().get(name)) << name;
}

TEST(ModelZooTest, ModelsSortedLargestFirst)
{
    const auto &zoo = ModelZoo::shared();
    for (std::size_t i = 1; i < zoo.all().size(); ++i)
        EXPECT_GE(zoo.all()[i - 1].sizeMb, zoo.all()[i].sizeMb);
}

} // namespace
