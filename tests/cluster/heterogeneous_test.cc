/**
 * @file
 * A fleet of CPU-only machines: the scheduler must still serve every
 * model that is feasible without a GPU.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "core/platform.hh"
#include "workload/generators.hh"

namespace {

using infless::cluster::Cluster;
using infless::core::Platform;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;

TEST(HeterogeneousClusterTest, CpuOnlyFleetStillServesFeasibleModels)
{
    // A cluster with no GPUs at all: ResNet-50 at 200 ms is only feasible
    // on beefy CPU slices, and MNIST everywhere.
    Platform p(Cluster(2, {32'000, 0, 256 * 1024}));
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
