/**
 * @file
 * Edge-case tests for the platform: empty traces, zero-length runs,
 * incremental run() calls, chains on baseline platforms, and tiny
 * clusters.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "baselines/batch_otp.hh"
#include "baselines/openfaas_plus.hh"
#include "core/platform.hh"
#include "workload/generators.hh"
#include "workload/trace.hh"

namespace {

using infless::core::ChainSpec;
using infless::core::FunctionSpec;
using infless::core::Platform;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;
using infless::sim::Tick;
using infless::workload::ArrivalTrace;
using infless::workload::constantRate;
using infless::workload::uniformArrivals;

FunctionSpec
resnetSpec()
{
    return FunctionSpec{"resnet", "ResNet-50", msToTicks(200), 32};
}

TEST(PlatformEdgeTest, EmptyTraceIsHarmless)
{
    Platform p(2);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, ArrivalTrace());
    p.run(10 * kTicksPerSec);
    EXPECT_EQ(p.totalMetrics().arrivals(), 0);
}

TEST(PlatformEdgeTest, ZeroLengthRunDoesNothing)
{
    Platform p(2);
    p.deploy(resnetSpec());
    p.run(0);
    EXPECT_EQ(p.totalMetrics().arrivals(), 0);
    EXPECT_EQ(p.liveInstanceCount(), 0);
}

TEST(PlatformEdgeTest, IncrementalRunsEqualOneBigRun)
{
    auto run_split = [](bool split) {
        infless::core::PlatformOptions opts;
        opts.seed = 11;
        Platform p(4, opts);
        auto fn = p.deploy(resnetSpec());
        p.injectRateSeries(
            fn, infless::workload::constantRate(60.0, kTicksPerMin));
        if (split) {
            for (int s = 5; s <= 90; s += 5)
                p.run(static_cast<Tick>(s) * kTicksPerSec);
        } else {
            p.run(90 * kTicksPerSec);
        }
        return p.totalMetrics().completions();
    };
    EXPECT_EQ(run_split(true), run_split(false));
}

TEST(PlatformEdgeTest, ChainsWorkOnBaselinePlatformsToo)
{
    // Chains are a platform feature; the baseline policy hooks must not
    // break stage forwarding.
    infless::baselines::BatchOtp p(4);
    ChainSpec spec;
    spec.name = "chain";
    spec.models = {"MobileNet", "ResNet-50"};
    spec.sloTicks = msToTicks(500);
    auto chain = p.deployChain(spec);
    p.injectTrace(p.chainStages(chain).front(),
                  uniformArrivals(30.0, kTicksPerMin));
    p.run(kTicksPerMin + 15 * kTicksPerSec);
    const auto &cm = p.chainMetrics(chain);
    EXPECT_GT(cm.completions(), 0);
    EXPECT_EQ(cm.completions() + cm.drops(), cm.arrivals());
}

TEST(PlatformEdgeTest, SingleServerClusterStillServes)
{
    Platform p(1);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(40.0, kTicksPerMin));
    p.run(kTicksPerMin + 10 * kTicksPerSec);
    const auto &m = p.totalMetrics();
    EXPECT_GT(m.completions(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    // Allocation never exceeded the lone server.
    EXPECT_TRUE(p.cluster()
                    .totalAllocated()
                    .fitsIn(p.cluster().server(0).capacity()));
}

TEST(PlatformEdgeTest, ManyFunctionsNoTraffic)
{
    Platform p(2);
    for (int i = 0; i < 30; ++i) {
        FunctionSpec spec;
        spec.name = "fn" + std::to_string(i);
        spec.model = "MNIST";
        spec.sloTicks = msToTicks(50);
        p.deploy(spec);
    }
    p.run(kTicksPerMin);
    EXPECT_EQ(p.totalLaunches(), 0);
    EXPECT_TRUE(p.cluster().totalAllocated().isZero());
}

TEST(PlatformEdgeTest, LateTraceInjectionAfterRunning)
{
    // Traffic injected mid-run (arrival times in the past clamp to now).
    Platform p(2);
    auto fn = p.deploy(resnetSpec());
    p.run(30 * kTicksPerSec);
    p.injectTrace(fn, uniformArrivals(20.0, 10 * kTicksPerSec));
    p.run(60 * kTicksPerSec);
    // The trace's timestamps (1..10s) are in the past; they all fire at
    // injection time and still get served.
    const auto &m = p.totalMetrics();
    EXPECT_GT(m.arrivals(), 150);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(PlatformEdgeTest, MaxBatchOneNeverBatches)
{
    Platform p(2);
    FunctionSpec spec = resnetSpec();
    spec.maxBatch = 1;
    auto fn = p.deploy(spec);
    p.injectTrace(fn, uniformArrivals(60.0, 30 * kTicksPerSec));
    p.run(40 * kTicksPerSec);
    const auto &m = p.functionMetrics(fn);
    ASSERT_GT(m.completions(), 0);
    EXPECT_DOUBLE_EQ(m.meanBatchFill(), 1.0);
}

TEST(PlatformEdgeTest, RejectedRateSeriesDrawsNothing)
{
    // A rate series for an id deploy() never returned panics before it
    // draws, so the valid injection after it gets the same arrivals as
    // on a platform that never saw the rejected call.
    auto arrivals = [](bool reject_first) {
        infless::core::PlatformOptions opts;
        opts.seed = 3;
        Platform p(4, opts);
        auto fn = p.deploy(resnetSpec());
        auto series = constantRate(40.0, 10 * kTicksPerSec);
        if (reject_first) {
            EXPECT_THROW(p.injectRateSeries(fn + 1, series),
                         infless::sim::PanicError);
        }
        p.injectRateSeries(fn, series);
        p.run(20 * kTicksPerSec);
        return p.totalMetrics().arrivals();
    };
    auto clean = arrivals(false);
    EXPECT_GT(clean, 0);
    EXPECT_EQ(arrivals(true), clean);
}

} // namespace
