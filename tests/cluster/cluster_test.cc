/**
 * @file
 * Unit tests for the Cluster fleet.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdint>

#include "cluster/cluster.hh"
#include "sim/logging.hh"

namespace {

using infless::cluster::Cluster;
using infless::cluster::kNoServer;
using infless::cluster::Resources;
using infless::cluster::Server;
using infless::cluster::ServerId;
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
    EXPECT_THROW(c.allocate(2, Resources{1, 0, 0}), PanicError);
    EXPECT_THROW(c.setServerDown(2), PanicError);
    EXPECT_THROW(c.setServerUp(-1), PanicError);
    EXPECT_EQ(c.materialized(), 0u);
}

TEST(ClusterTest, OutOfRangeCapacityPanicsAtConstruction)
{
    const Resources too_big{std::int64_t{1} << 31, 0, 0};
    EXPECT_THROW(Cluster(1000, too_big), PanicError);
    EXPECT_THROW(Cluster(1000, Resources{-1, 0, 0}), PanicError);
    EXPECT_THROW(Cluster(2, Resources{1000, 0, too_big.cpuMillicores}),
                 PanicError);
}

TEST(ClusterTest, ServersMaterializeOnFirstChange)
{
    Cluster c(1000, Resources{1000, 10, 1024});
    // Queries and no-op mutators leave every server pristine.
    EXPECT_EQ(c.server(999).available(), (Resources{1000, 10, 1024}));
    EXPECT_FALSE(c.serverDown(999));
    c.setServerUp(999);
    c.liftQuarantine(999);
    EXPECT_EQ(c.firstFit(Resources{1, 0, 0}), 0);
    EXPECT_EQ(c.materialized(), 0u);

    // A change materializes every server up to it.
    ASSERT_TRUE(c.allocate(600, Resources{1000, 10, 1024}));
    EXPECT_EQ(c.materialized(), 601u);
    EXPECT_EQ(c.firstFit(Resources{1000, 0, 0}), 0);
    c.quarantineServer(0);
    c.setServerDown(1);
    EXPECT_EQ(c.firstFit(Resources{1000, 0, 0}), 2);
    // A pristine id keeps its place in the lowest-id tie-break.
    for (ServerId id = 2; id < 600; ++id)
        ASSERT_TRUE(c.allocate(id, Resources{1000, 0, 0}));
    EXPECT_EQ(c.firstFit(Resources{1000, 0, 0}), 601);
    EXPECT_EQ(c.materialized(), 601u);
    EXPECT_EQ(c.downServers(), 1u);
    EXPECT_EQ(c.quarantinedServers(), 1u);
}

/** Heap bytes in use: small chunks plus mmapped blocks. */
std::size_t
heapInUse()
{
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerAllocator = true;
#else
constexpr bool kSanitizerAllocator = false;
#endif

TEST(ClusterMemoryTest, HundredThousandServersHoldUnderSixteenKiB)
{
    if (kSanitizerAllocator)
        GTEST_SKIP() << "the sanitizer's allocator does not report "
                        "through mallinfo2";
    const std::size_t before = heapInUse();
    Cluster c(100'000);
    const std::size_t held = heapInUse() - before;
    EXPECT_EQ(c.size(), 100'000u);
    EXPECT_LT(held, 16u * 1024) << held << " bytes";

    // Touching the top id builds every record: the reading moves.
    c.setServerDown(99'999);
    EXPECT_GT(heapInUse() - before, 100'000u * sizeof(Server));
}

} // namespace
