#include "cluster/cell_partition.hh"
#include "cluster/cell_router.hh"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace infless::cluster {
namespace {

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

TEST(CellPartition, CoversEveryServerExactlyOnce)
{
    for (std::size_t servers : {1u, 7u, 100u, 10'000u}) {
        for (std::size_t cells = 1; cells <= std::min<std::size_t>(
                                        servers, 16);
             ++cells) {
            auto slices = partitionServers(servers, cells);
            ASSERT_EQ(slices.size(), cells);
            EXPECT_EQ(slices.front().begin, 0u);
            EXPECT_EQ(slices.back().end, servers);
            std::size_t total = 0;
            for (std::size_t c = 0; c < cells; ++c) {
                if (c > 0) {
                    EXPECT_EQ(slices[c].begin, slices[c - 1].end);
                }
                total += slices[c].size();
            }
            EXPECT_EQ(total, servers);
        }
    }
}

TEST(CellPartition, SlicesAreNearEqual)
{
    auto slices = partitionServers(10, 3);
    EXPECT_EQ(slices[0].size(), 4u);
    EXPECT_EQ(slices[1].size(), 3u);
    EXPECT_EQ(slices[2].size(), 3u);
}

TEST(CellPartition, SingleCellIsTheWholeFleet)
{
    auto slices = partitionServers(2'000, 1);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_EQ(slices[0], (CellSlice{0, 2'000}));
}

TEST(CellPartition, RejectsDegenerateShapes)
{
    EXPECT_THROW(partitionServers(10, 0), std::invalid_argument);
    EXPECT_THROW(partitionServers(0, 4), std::invalid_argument);
}

TEST(CellPartition, MoreCellsThanServersClampsToOnePerServer)
{
    auto slices = partitionServers(3, 4);
    ASSERT_EQ(slices.size(), 3u);
    for (std::size_t c = 0; c < slices.size(); ++c) {
        EXPECT_EQ(slices[c].begin, c);
        EXPECT_EQ(slices[c].size(), 1u);
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

std::vector<CellDigest>
uniformDigests(std::size_t cells, double avail)
{
    return std::vector<CellDigest>(cells, CellDigest{avail, 0, 0});
}

TEST(CellRouter, SingleCellAlwaysRoutesToZero)
{
    CellRouter router(1, 42);
    router.refresh(uniformDigests(1, 100.0));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(router.route(), 0u);
    EXPECT_EQ(router.routedSinceRefresh(0), 100);
}

TEST(CellRouter, DeterministicGivenSeed)
{
    auto draw = [] {
        CellRouter router(8, 1234);
        router.refresh(uniformDigests(8, 100.0));
        std::vector<std::size_t> picks;
        for (int i = 0; i < 200; ++i)
            picks.push_back(router.route());
        return picks;
    };
    EXPECT_EQ(draw(), draw());
}

TEST(CellRouter, AvoidsQueueLoadedCell)
{
    CellRouter router(2, 7);
    std::vector<CellDigest> digests = {CellDigest{100.0, 1'000, 0},
                                       CellDigest{100.0, 0, 0}};
    router.refresh(digests);
    // With two cells, p2c samples both cells often; the drowning cell 0
    // must lose every comparison until ~1000 requests went to cell 1.
    int to_loaded = 0;
    for (int i = 0; i < 500; ++i)
        if (router.route() == 0)
            ++to_loaded;
    EXPECT_LT(to_loaded, 50);
}

TEST(CellRouter, AvoidsDropPressuredCell)
{
    CellRouter router(2, 7);
    router.refresh({CellDigest{100.0, 0, 10'000}, CellDigest{100.0, 0, 0}});
    int to_pressured = 0;
    for (int i = 0; i < 500; ++i)
        if (router.route() == 0)
            ++to_pressured;
    EXPECT_LT(to_pressured, 50);
}

TEST(CellRouter, PrefersMoreAvailableCell)
{
    CellRouter router(2, 7);
    // Same queue, 10x the free capacity on cell 1: its score stays lower
    // until it has absorbed ~10x the requests.
    router.refresh({CellDigest{10.0, 50, 0}, CellDigest{100.0, 50, 0}});
    int to_small = 0;
    for (int i = 0; i < 200; ++i)
        if (router.route() == 0)
            ++to_small;
    EXPECT_LT(to_small, 100);
}

TEST(CellRouter, SelfCorrectsWithinEpoch)
{
    // All digests equal: the routed-since-refresh counter is the only
    // signal, so p2c must keep the spread balanced within the epoch.
    CellRouter router(4, 99);
    router.refresh(uniformDigests(4, 100.0));
    for (int i = 0; i < 4'000; ++i)
        router.route();
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_GT(router.routedSinceRefresh(c), 800);
        EXPECT_LT(router.routedSinceRefresh(c), 1'200);
    }
}

TEST(CellRouter, RefreshResetsEpochCounters)
{
    CellRouter router(2, 5);
    router.refresh(uniformDigests(2, 100.0));
    for (int i = 0; i < 10; ++i)
        router.route();
    router.refresh(uniformDigests(2, 100.0));
    EXPECT_EQ(router.routedSinceRefresh(0), 0);
    EXPECT_EQ(router.routedSinceRefresh(1), 0);
}

TEST(CellRouter, SaturatedCellsStillRoute)
{
    CellRouter router(2, 11);
    router.refresh({CellDigest{0.0, 100, 0}, CellDigest{0.0, 100, 0}});
    for (int i = 0; i < 10; ++i)
        EXPECT_LT(router.route(), 2u);
}

TEST(CellRouter, RejectsMismatchedRefresh)
{
    CellRouter router(3, 1);
    EXPECT_THROW(router.refresh(uniformDigests(2, 1.0)),
                 std::invalid_argument);
    EXPECT_THROW(CellRouter(0, 1), std::invalid_argument);
}

} // namespace
} // namespace infless::cluster
