#include "cluster/cell_partition.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
// Home cells
// ---------------------------------------------------------------------------

TEST(CellPartition, HomeCellIsTheTopRendezvousWeight)
{
    constexpr std::size_t kCells = 16;
    constexpr std::uint64_t kSeed = 1234;
    for (std::size_t fn = 0; fn < 64; ++fn) {
        // Brute force: rank every cell by weight, descending, ties to
        // the lower index, and take the first.
        std::vector<std::uint64_t> weight(kCells);
        for (std::size_t c = 0; c < kCells; ++c)
            weight[c] = sim::hashCombine(sim::hashCombine(kSeed, fn), c);
        std::vector<std::size_t> order(kCells);
        for (std::size_t c = 0; c < kCells; ++c)
            order[c] = c;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return weight[a] != weight[b] ? weight[a] > weight[b]
                                                    : a < b;
                  });
        // hashCombine is injective in its second word, so one function's
        // weights never tie and the tie rule never has to decide.
        std::vector<std::uint64_t> sorted = weight;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                  sorted.end())
            << "fn " << fn;

        EXPECT_EQ(homeCell(kSeed, fn, kCells), order[0]) << "fn " << fn;
    }
}

// The CellRouter suite keeps the names of the routing checks; homeCell
// is the whole of cell routing.

TEST(CellRouter, SingleCellAlwaysRoutesToZero)
{
    for (std::uint64_t seed : {1u, 42u, 1234u})
        for (std::size_t fn = 0; fn < 100; ++fn)
            EXPECT_EQ(homeCell(seed, fn, 1), 0u);
}

TEST(CellRouter, RankingIsAStablePermutationPerSeed)
{
    constexpr std::size_t kCells = 16;
    constexpr std::uint64_t kSeed = 1234;
    std::vector<int> home_count(kCells, 0);
    bool seeds_differ = false;
    for (std::size_t fn = 0; fn < 64; ++fn) {
        std::size_t home = homeCell(kSeed, fn, kCells);
        ASSERT_LT(home, kCells);
        EXPECT_EQ(home, homeCell(kSeed, fn, kCells));
        ++home_count[home];
        seeds_differ = seeds_differ || home != homeCell(4321, fn, kCells);
        // Adding cell k-1 to the first k-1 moves a home only onto the
        // new cell: the ranking of the old cells is kept.
        for (std::size_t k = 2; k <= kCells; ++k) {
            std::size_t now = homeCell(kSeed, fn, k);
            std::size_t before = homeCell(kSeed, fn, k - 1);
            EXPECT_TRUE(now == before || now == k - 1)
                << "fn " << fn << " cells " << k;
        }
    }
    EXPECT_TRUE(seeds_differ);
    // Homes spread over the cells rather than piling onto one.
    EXPECT_LT(*std::max_element(home_count.begin(), home_count.end()), 16);
}

TEST(CellRouter, RejectsMismatchedRefresh)
{
    EXPECT_THROW(homeCell(1, 0, 0), std::invalid_argument);
    EXPECT_THROW(homeCell(1, 7, 0), std::invalid_argument);
}

} // namespace
} // namespace infless::cluster
