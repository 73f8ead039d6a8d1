/**
 * @file
 * Unit tests for Server allocation accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "cluster/server.hh"
#include "sim/logging.hh"

namespace {

using infless::cluster::Resources;
using infless::cluster::Server;
using infless::cluster::testbedServerCapacity;
using infless::sim::PanicError;

TEST(ServerTest, DefaultMirrorsTestbedNode)
{
    // Cluster's default capacity: the paper's testbed node.
    Server s(0, testbedServerCapacity());
    EXPECT_EQ(s.capacity().cpuMillicores, 16'000);
    EXPECT_EQ(s.capacity().gpuSmPercent, 200);
    EXPECT_EQ(s.available(), s.capacity());
    EXPECT_FALSE(s.isActive());
}

TEST(ServerTest, AllocateReducesAvailability)
{
    Server s(0, Resources{4000, 100, 8192});
    EXPECT_TRUE(s.allocate(Resources{1000, 20, 1024}));
    EXPECT_EQ(s.available(), (Resources{3000, 80, 7168}));
    EXPECT_EQ(s.allocated(), (Resources{1000, 20, 1024}));
    EXPECT_TRUE(s.isActive());
    EXPECT_EQ(s.allocationCount(), 1);
}

TEST(ServerTest, AllocateFailsWithoutRoomAndChangesNothing)
{
    Server s(0, Resources{1000, 10, 1024});
    EXPECT_FALSE(s.allocate(Resources{2000, 0, 0}));
    EXPECT_EQ(s.available(), s.capacity());
    EXPECT_EQ(s.allocationCount(), 0);
}

TEST(ServerTest, ReleaseRestoresAvailability)
{
    Server s(0, Resources{4000, 100, 8192});
    Resources req{1500, 30, 2048};
    ASSERT_TRUE(s.allocate(req));
    s.release(req);
    EXPECT_EQ(s.available(), s.capacity());
    EXPECT_FALSE(s.isActive());
}

TEST(ServerTest, OverReleasePanics)
{
    Server s(0, Resources{4000, 100, 8192});
    ASSERT_TRUE(s.allocate(Resources{1000, 0, 0}));
    EXPECT_THROW(s.release(Resources{2000, 0, 0}), PanicError);
}

TEST(ServerTest, ReleaseWithNoAllocationsPanics)
{
    Server s(0, Resources{4000, 100, 8192});
    EXPECT_THROW(s.release(Resources{0, 0, 0}), PanicError);
}

TEST(ServerTest, FragmentRatioTracksWeightedAvailability)
{
    Server s(0, Resources{1000, 100, 1024});
    double beta = 0.001;
    EXPECT_DOUBLE_EQ(s.fragmentRatio(beta), 1.0);
    // Allocate the whole GPU: weighted availability = beta*1 core.
    ASSERT_TRUE(s.allocate(Resources{0, 100, 0}));
    double expect = (beta * 1.0) / (beta * 1.0 + 1.0);
    EXPECT_NEAR(s.fragmentRatio(beta), expect, 1e-12);
    EXPECT_NEAR(s.occupancy(beta), 1.0 - expect, 1e-12);
}

TEST(ServerTest, ZeroSizedAllocationPanics)
{
    Server s(0, testbedServerCapacity());
    EXPECT_THROW(s.allocate(Resources{}), PanicError);
}

// One Server per machine: its size is the fleet's per-server floor.
static_assert(sizeof(Server) <= 40);

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

TEST(ServerTest, CapacityAboveInt32Panics)
{
    EXPECT_THROW(Server(0, Resources{kInt32Max + 1, 0, 0}), PanicError);
    EXPECT_THROW(Server(0, Resources{0, kInt32Max + 1, 0}), PanicError);
    EXPECT_THROW(Server(0, Resources{0, 0, kInt32Max + 1}), PanicError);
    EXPECT_THROW(Server(0, Resources{-1, 0, 0}), PanicError);
}

TEST(ServerTest, Int32MaxCapacityRoundTrips)
{
    Resources cap{kInt32Max, kInt32Max, kInt32Max};
    Server s(0, cap);
    EXPECT_EQ(s.capacity(), cap);
    ASSERT_TRUE(s.allocate(cap));
    EXPECT_TRUE(s.available().isZero());
    s.release(cap);
    EXPECT_EQ(s.available(), cap);
}

TEST(ServerTest, AllocateAboveInt32Panics)
{
    Server s(0, Resources{4000, 100, 8192});
    EXPECT_THROW(s.allocate(Resources{kInt32Max + 1, 0, 0}), PanicError);
    EXPECT_THROW(s.allocate(Resources{0, kInt32Max + 1, 0}), PanicError);
    EXPECT_THROW(s.allocate(Resources{0, 0, kInt32Max + 1}), PanicError);
    EXPECT_EQ(s.available(), s.capacity());
    EXPECT_EQ(s.allocationCount(), 0);
}

TEST(ServerTest, ReleaseAboveInt32Panics)
{
    Server s(0, Resources{4000, 100, 8192});
    ASSERT_TRUE(s.allocate(Resources{1000, 10, 1024}));
    EXPECT_THROW(s.release(Resources{kInt32Max + 1, 0, 0}), PanicError);
    EXPECT_THROW(s.release(Resources{0, kInt32Max + 1, 0}), PanicError);
    EXPECT_THROW(s.release(Resources{0, 0, kInt32Max + 1}), PanicError);
    EXPECT_EQ(s.available(), (Resources{3000, 90, 7168}));
    EXPECT_EQ(s.allocationCount(), 1);
}

TEST(ServerTest, WeightedAvailableIsAvailableWeighted)
{
    Server s(0, Resources{16'000, 200, 131'072});
    const double beta = infless::cluster::kDefaultBeta;
    EXPECT_EQ(s.weightedAvailable(beta), s.available().weighted(beta));
    ASSERT_TRUE(s.allocate(Resources{1500, 30, 2048}));
    EXPECT_EQ(s.weightedAvailable(beta), s.available().weighted(beta));
    EXPECT_EQ(s.weightedAvailable(0.5), s.available().weighted(0.5));
}

TEST(ServerTest, MultipleAllocationsAccumulate)
{
    Server s(0, Resources{4000, 40, 4096});
    ASSERT_TRUE(s.allocate(Resources{1000, 10, 512}));
    ASSERT_TRUE(s.allocate(Resources{1000, 10, 512}));
    ASSERT_TRUE(s.allocate(Resources{1000, 10, 512}));
    EXPECT_EQ(s.allocationCount(), 3);
    EXPECT_EQ(s.available(), (Resources{1000, 10, 2560}));
    // Fourth of the same size exceeds GPU.
    ASSERT_TRUE(s.allocate(Resources{1000, 10, 512}));
    EXPECT_FALSE(s.allocate(Resources{1, 1, 1}));
}

} // namespace
