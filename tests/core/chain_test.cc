/**
 * @file
 * Tests for inference function chains (the paper's §7 future work):
 * SLO splitting, stage forwarding, end-to-end accounting.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "core/platform.hh"
#include "workload/generators.hh"

namespace {

using infless::core::ChainSpec;
using infless::core::Platform;
using infless::core::SloSplit;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;
using infless::workload::uniformArrivals;

ChainSpec
osvtChain(infless::sim::Tick slo = msToTicks(400),
          SloSplit split = SloSplit::Proportional)
{
    ChainSpec spec;
    spec.name = "osvt";
    spec.models = {"SSD", "MobileNet", "ResNet-50"};
    spec.sloTicks = slo;
    spec.split = split;
    return spec;
}

TEST(ChainTest, DeployCreatesOneFunctionPerStage)
{
    Platform p(4);
    auto chain = p.deployChain(osvtChain());
    EXPECT_EQ(p.chainCount(), 1u);
    ASSERT_EQ(p.chainStages(chain).size(), 3u);
    EXPECT_EQ(p.functionCount(), 3u);
    EXPECT_EQ(p.spec(p.chainStages(chain)[0]).model, "SSD");
    EXPECT_EQ(p.spec(p.chainStages(chain)[2]).model, "ResNet-50");
}

TEST(ChainTest, StageSlosSumToEndToEndBudget)
{
    Platform p(4);
    auto chain = p.deployChain(osvtChain(msToTicks(400)));
    infless::sim::Tick total = 0;
    for (auto fn : p.chainStages(chain))
        total += p.spec(fn).sloTicks;
    EXPECT_NEAR(static_cast<double>(total),
                static_cast<double>(msToTicks(400)),
                static_cast<double>(msToTicks(5)));
}

TEST(ChainTest, ProportionalSplitFavorsSlowStages)
{
    Platform p(4);
    auto chain = p.deployChain(osvtChain(msToTicks(400)));
    // ResNet-50 and SSD are far heavier than MobileNet; proportional
    // splitting must give MobileNet the smallest budget.
    auto stages = p.chainStages(chain);
    auto mobilenet_slo = p.spec(stages[1]).sloTicks;
    EXPECT_LT(mobilenet_slo, p.spec(stages[0]).sloTicks);
    EXPECT_LT(mobilenet_slo, p.spec(stages[2]).sloTicks);
}

TEST(ChainTest, EqualSplitGivesEqualBudgets)
{
    Platform p(4);
    auto chain =
        p.deployChain(osvtChain(msToTicks(300), SloSplit::Equal));
    for (auto fn : p.chainStages(chain))
        EXPECT_EQ(p.spec(fn).sloTicks, msToTicks(100));
}

TEST(ChainTest, RequestsFlowThroughEveryStage)
{
    Platform p(8);
    auto chain = p.deployChain(osvtChain());
    p.injectTrace(p.chainStages(chain).front(),
                  uniformArrivals(40.0, kTicksPerMin));
    p.run(kTicksPerMin + 15 * kTicksPerSec);

    const auto &cm = p.chainMetrics(chain);
    EXPECT_GT(cm.arrivals(), 2000);
    // Conservation end-to-end: every chain arrival either completed the
    // whole chain or was dropped at some stage.
    EXPECT_EQ(cm.completions() + cm.drops(), cm.arrivals());
    // Each stage saw (at most) the chain arrivals.
    for (auto fn : p.chainStages(chain)) {
        EXPECT_LE(p.functionMetrics(fn).arrivals(), cm.arrivals());
        EXPECT_GT(p.functionMetrics(fn).completions(), 0);
    }
}

TEST(ChainTest, EndToEndLatencyCoversAllStages)
{
    Platform p(8);
    auto chain = p.deployChain(osvtChain());
    p.injectTrace(p.chainStages(chain).front(),
                  uniformArrivals(40.0, kTicksPerMin));
    p.run(kTicksPerMin + 15 * kTicksPerSec);

    const auto &cm = p.chainMetrics(chain);
    ASSERT_GT(cm.completions(), 0);
    // The chain's mean latency must exceed any single stage's mean.
    for (auto fn : p.chainStages(chain)) {
        EXPECT_GT(cm.latency().mean(),
                  p.functionMetrics(fn).latency().mean());
    }
    // And decompose into the accumulated parts.
    double parts = cm.coldTime().mean() + cm.queueTime().mean() +
                   cm.execTime().mean();
    EXPECT_NEAR(parts / cm.latency().mean(), 1.0, 0.05);
}

TEST(ChainTest, MeetsEndToEndSloUnderSteadyLoad)
{
    Platform p(8);
    auto chain = p.deployChain(osvtChain(msToTicks(500)));
    p.injectTrace(p.chainStages(chain).front(),
                  uniformArrivals(60.0, 2 * kTicksPerMin));
    p.run(2 * kTicksPerMin + 15 * kTicksPerSec);
    EXPECT_LT(p.chainMetrics(chain).sloViolationRate(), 0.12);
}

TEST(ChainTest, SingleStageChainBehavesLikeAFunction)
{
    Platform p(4);
    ChainSpec spec;
    spec.name = "solo";
    spec.models = {"ResNet-50"};
    spec.sloTicks = msToTicks(200);
    auto chain = p.deployChain(spec);
    p.injectTrace(p.chainStages(chain).front(),
                  uniformArrivals(30.0, 30 * kTicksPerSec));
    p.run(40 * kTicksPerSec);
    const auto &cm = p.chainMetrics(chain);
    auto fn = p.chainStages(chain)[0];
    EXPECT_EQ(cm.completions(), p.functionMetrics(fn).completions());
    EXPECT_EQ(p.spec(fn).sloTicks, msToTicks(200));
}

TEST(ChainTest, EmptyChainRejected)
{
    Platform p(2);
    ChainSpec spec;
    spec.name = "empty";
    EXPECT_THROW(p.deployChain(spec), infless::sim::PanicError);
}

TEST(ChainTest, ChainsAndFunctionsCoexist)
{
    Platform p(8);
    auto chain = p.deployChain(osvtChain());
    infless::core::FunctionSpec solo{"solo", "MNIST", msToTicks(50), 32};
    auto fn = p.deploy(solo);
    p.injectTrace(p.chainStages(chain).front(),
                  uniformArrivals(30.0, kTicksPerMin));
    p.injectTrace(fn, uniformArrivals(20.0, kTicksPerMin));
    p.run(kTicksPerMin + 15 * kTicksPerSec);
    EXPECT_GT(p.chainMetrics(chain).completions(), 0);
    EXPECT_GT(p.functionMetrics(fn).completions(), 0);
    // The standalone function carries no chain accounting.
    EXPECT_EQ(p.functionMetrics(fn).completions() +
                  p.functionMetrics(fn).drops(),
              p.functionMetrics(fn).arrivals());
}

TEST(ChainTest, BadChainIdPanics)
{
    Platform p(2);
    EXPECT_THROW(p.chainMetrics(0), infless::sim::PanicError);
    EXPECT_THROW(p.chainStages(-1), infless::sim::PanicError);
}

} // namespace
