/**
 * @file
 * Unit tests for the Cluster fleet.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "sim/logging.hh"

namespace {

using infless::cluster::Cluster;
using infless::cluster::kNoServer;
using infless::cluster::Resources;
using infless::sim::FatalError;
using infless::sim::PanicError;

TEST(ClusterTest, BuildsHomogeneousFleet)
{
    Cluster c(8);
    EXPECT_EQ(c.size(), 8u);
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(c.server(static_cast<int>(i)).id(),
                  static_cast<int>(i));
    }
}

TEST(ClusterTest, EmptyClusterIsRejected)
{
    EXPECT_THROW(Cluster(0), PanicError);
}

TEST(ClusterTest, TotalsAggregateServers)
{
    Cluster c(4, Resources{1000, 10, 1024});
    EXPECT_EQ(c.totalCapacity(), (Resources{4000, 40, 4096}));
    ASSERT_TRUE(c.allocate(1, Resources{500, 5, 512}));
    EXPECT_EQ(c.totalAllocated(), (Resources{500, 5, 512}));
    EXPECT_EQ(c.totalAvailable(), (Resources{3500, 35, 3584}));
}

TEST(ClusterTest, FirstFitSkipsFullServers)
{
    Cluster c(3, Resources{1000, 0, 1024});
    ASSERT_TRUE(c.allocate(0, Resources{1000, 0, 0}));
    EXPECT_EQ(c.firstFit(Resources{1000, 0, 0}), 1);
    ASSERT_TRUE(c.allocate(1, Resources{1000, 0, 0}));
    ASSERT_TRUE(c.allocate(2, Resources{1000, 0, 0}));
    EXPECT_EQ(c.firstFit(Resources{1, 0, 0}), kNoServer);
}

TEST(ClusterTest, FragmentRatioIgnoresIdleServers)
{
    Cluster c(10, Resources{1000, 100, 1024});
    // One server half-loaded; nine idle servers do not dilute the ratio.
    ASSERT_TRUE(c.allocate(0, Resources{500, 50, 512}));
    EXPECT_NEAR(c.fragmentRatio(0.001), 0.5, 0.01);
    EXPECT_EQ(c.activeServers(), 1u);
}

TEST(ClusterTest, FragmentRatioZeroWhenNothingActive)
{
    Cluster c(5);
    EXPECT_DOUBLE_EQ(c.fragmentRatio(), 0.0);
}

TEST(ClusterTest, ReleaseRoundTrips)
{
    Cluster c(2, Resources{1000, 10, 1024});
    Resources req{700, 7, 700};
    ASSERT_TRUE(c.allocate(0, req));
    c.release(0, req);
    EXPECT_EQ(c.totalAllocated(), Resources{});
}

TEST(ClusterTest, BadServerIdPanics)
{
    Cluster c(2);
    EXPECT_THROW(c.server(2), PanicError);
    EXPECT_THROW(c.server(-1), PanicError);
}

} // namespace
