/**
 * @file
 * Tests for heterogeneous clusters (mixed GPU and CPU-only machines) and
 * the scheduler's behaviour on them.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "cluster/cluster.hh"
#include "core/platform.hh"
#include "core/scheduler.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"
#include "workload/generators.hh"

namespace {

using infless::cluster::Cluster;
using infless::cluster::Resources;
using infless::cluster::Server;
using infless::core::GreedyScheduler;
using infless::core::Platform;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;

Cluster
mixedCluster()
{
    // Two GPU nodes and two CPU-only nodes.
    return Cluster(std::vector<Resources>{
        {16'000, 200, 128 * 1024},
        {16'000, 200, 128 * 1024},
        {32'000, 0, 256 * 1024},
        {32'000, 0, 256 * 1024},
    });
}

TEST(HeterogeneousClusterTest, CapacitiesPreservedPerServer)
{
    Cluster c = mixedCluster();
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.server(0).capacity().gpuSmPercent, 200);
    EXPECT_EQ(c.server(2).capacity().gpuSmPercent, 0);
    EXPECT_EQ(c.server(2).capacity().cpuMillicores, 32'000);
    std::vector<Resources> caps;
    c.forEachServer([&](const Server &s) { caps.push_back(s.capacity()); });
    ASSERT_EQ(caps.size(), 4u);
    EXPECT_EQ(caps[1].gpuSmPercent, 200);
    EXPECT_EQ(caps[3].cpuMillicores, 32'000);
}

TEST(HeterogeneousClusterTest, EmptyCapacityListRejected)
{
    EXPECT_THROW(Cluster(std::vector<Resources>{}),
                 infless::sim::PanicError);
}

TEST(HeterogeneousClusterTest, GpuConfigsLandOnGpuServers)
{
    infless::models::ExecModel exec;
    infless::profiler::OpProfileDb db(exec);
    infless::profiler::CopPredictor cop(db);
    GreedyScheduler sched(cop);
    Cluster cluster = mixedCluster();

    const auto &resnet =
        infless::models::ModelZoo::shared().get("ResNet-50");
    auto plans =
        sched.schedule(resnet, 500.0, msToTicks(200), 32, cluster);
    ASSERT_FALSE(plans.empty());
    for (const auto &plan : plans) {
        if (plan.config.resources.gpuSmPercent > 0) {
            EXPECT_LT(plan.server, 2) << "GPU config on CPU-only server";
        }
    }
}

TEST(HeterogeneousClusterTest, PlatformServesOnMixedFleet)
{
    Platform p(mixedCluster());
    infless::core::FunctionSpec spec{"resnet", "ResNet-50",
                                     msToTicks(200), 32};
    auto fn = p.deploy(spec);
    p.injectTrace(fn, infless::workload::uniformArrivals(
                          80.0, kTicksPerMin));
    p.run(kTicksPerMin + 10 * kTicksPerSec);
    const auto &m = p.totalMetrics();
    EXPECT_GT(m.completions(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    EXPECT_LT(m.sloViolationRate(), 0.15);
}

TEST(HeterogeneousClusterTest, CpuOnlyFleetStillServesFeasibleModels)
{
    // A cluster with no GPUs at all: ResNet-50 at 200 ms is only feasible
    // on beefy CPU slices, and MNIST everywhere.
    Cluster cpu_only(std::vector<Resources>{{32'000, 0, 256 * 1024},
                                            {32'000, 0, 256 * 1024}});
    Platform p(std::move(cpu_only));
    infless::core::FunctionSpec spec{"mnist", "MNIST", msToTicks(50), 32};
    auto fn = p.deploy(spec);
    p.injectTrace(fn, infless::workload::uniformArrivals(
                          50.0, kTicksPerMin));
    p.run(kTicksPerMin + 5 * kTicksPerSec);
    EXPECT_GT(p.totalMetrics().completions(), 2000);
    // Nothing was placed on a GPU, because there are none.
    EXPECT_EQ(p.cluster().totalAllocated().gpuSmPercent, 0);
}

} // namespace
