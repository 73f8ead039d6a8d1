/**
 * @file
 * Unit tests for locating global server ids in the static cell layout.
 */

#include "cluster/cell_partition.hh"

#include <gtest/gtest.h>

#include <stdexcept>

namespace infless::cluster {
namespace {

TEST(CellPartition, LocateMatchesContiguousPartition)
{
    // 10 servers / 3 cells: [0,4), [4,7), [7,10).
    auto slices = partitionServers(10, 3);
    ASSERT_EQ(slices.size(), 3u);
    for (std::size_t c = 0; c < slices.size(); ++c) {
        for (std::size_t g = slices[c].begin; g < slices[c].end; ++g) {
            auto [cell, local] = locateServer(slices, g);
            EXPECT_EQ(cell, c) << "server " << g;
            EXPECT_EQ(local, g - slices[c].begin) << "server " << g;
        }
    }
    EXPECT_THROW(locateServer(slices, 10), std::out_of_range);
}

TEST(CellPartition, LocateClampsLikePartitionServers)
{
    // 3 servers across 4 requested cells: one server per cell.
    auto slices = partitionServers(3, 4);
    ASSERT_EQ(slices.size(), 3u);
    for (std::size_t g = 0; g < 3; ++g) {
        auto [cell, local] = locateServer(slices, g);
        EXPECT_EQ(cell, g);
        EXPECT_EQ(local, 0u);
    }
    EXPECT_THROW(locateServer(slices, 3), std::out_of_range);
}

} // namespace
} // namespace infless::cluster
