#include "cluster/cell_partition.hh"
#include "cluster/cell_router.hh"

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
// Routing
// ---------------------------------------------------------------------------

CellDigest
digest(double avail, std::int64_t queue = 0, std::int64_t drops = 0)
{
    CellDigest d;
    d.weightedAvail = avail;
    d.queueDepth = queue;
    d.dropPressure = drops;
    return d;
}

std::vector<CellDigest>
uniformDigests(std::size_t cells, double avail)
{
    return std::vector<CellDigest>(cells, digest(avail));
}

/** Refresh with every cell reporting a miss for @p fn until its home
 *  set covers all cells, then install @p digests (no misses). */
void
spillEverywhere(CellRouter &router, std::size_t fn,
                const std::vector<CellDigest> &digests)
{
    std::vector<CellDigest> missing = uniformDigests(router.cells(), 1.0);
    for (CellDigest &d : missing) {
        d.scaleOutMisses.assign(fn + 1, 0);
        d.scaleOutMisses[fn] = 1;
    }
    router.route(fn); // register the function
    while (router.homeSize(fn) < router.cells())
        router.refresh(missing);
    router.refresh(digests);
}

TEST(CellRouter, SingleCellAlwaysRoutesToZero)
{
    CellRouter router(1, 42);
    router.refresh(uniformDigests(1, 100.0));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(router.route(0), 0u);
    EXPECT_EQ(router.routedSinceRefresh(0), 100);
}

TEST(CellRouter, RankingIsAStablePermutationPerSeed)
{
    CellRouter a(16, 1234);
    CellRouter b(16, 1234);
    CellRouter other(16, 4321);
    bool seeds_differ = false;
    std::vector<int> home_count(16, 0);
    for (std::size_t fn = 0; fn < 64; ++fn) {
        std::vector<bool> seen(16, false);
        for (std::size_t r = 0; r < 16; ++r) {
            std::size_t c = a.rankedCell(fn, r);
            ASSERT_LT(c, 16u);
            EXPECT_FALSE(seen[c]) << "fn " << fn << " rank " << r;
            seen[c] = true;
            EXPECT_EQ(c, b.rankedCell(fn, r));
            seeds_differ =
                seeds_differ || c != other.rankedCell(fn, r);
        }
        ++home_count[a.rankedCell(fn, 0)];
        // Routing (which caches the ranking) agrees with the pure order.
        EXPECT_EQ(a.route(fn), a.rankedCell(fn, 0));
    }
    EXPECT_TRUE(seeds_differ);
    // Homes spread over the cells rather than piling onto one.
    EXPECT_LT(*std::max_element(home_count.begin(), home_count.end()), 16);
}

TEST(CellRouter, HomeOfOneConsumesNoRandomness)
{
    std::vector<CellDigest> digests = uniformDigests(8, 100.0);
    CellRouter quiet(8, 77);
    CellRouter busy(8, 77);
    spillEverywhere(quiet, 1, digests);
    spillEverywhere(busy, 1, digests);
    // Function 0 still has a one-cell home: all of its traffic goes
    // there, and none of it advances the RNG stream...
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(busy.route(0), busy.rankedCell(0, 0));
    EXPECT_EQ(busy.homeSize(0), 1u);
    // ...so the spilled function's po2 draws match a router that never
    // saw function 0 (the routed counters differ, so compare after a
    // refresh resets them).
    quiet.refresh(digests);
    busy.refresh(digests);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(quiet.route(1), busy.route(1));
}

TEST(CellRouter, HomeSetGrowsOnlyWhenEveryHomeCellMisses)
{
    constexpr std::size_t kCells = 4;
    CellRouter router(kCells, 9);
    router.route(0);
    auto with_misses = [&](const std::vector<std::size_t> &missing) {
        std::vector<CellDigest> d = uniformDigests(kCells, 100.0);
        for (std::size_t c : missing)
            d[c].scaleOutMisses = {1};
        return d;
    };
    std::size_t home0 = router.rankedCell(0, 0);
    std::size_t outside = router.rankedCell(0, 3);

    // A miss outside the home set, and drop pressure, never spill.
    router.refresh(with_misses({outside}));
    auto dropping = uniformDigests(kCells, 100.0);
    dropping[home0].dropPressure = 10'000;
    router.refresh(dropping);
    EXPECT_EQ(router.homeSize(0), 1u);

    // The home cell misses: grow by exactly one per barrier.
    router.refresh(with_misses({home0}));
    EXPECT_EQ(router.homeSize(0), 2u);
    // Only part of the home set misses: hold.
    router.refresh(with_misses({home0}));
    EXPECT_EQ(router.homeSize(0), 2u);
    // Quiet barriers never shrink it.
    router.refresh(uniformDigests(kCells, 100.0));
    EXPECT_EQ(router.homeSize(0), 2u);
    // Whole home set misses: grow again, monotonically, capped at cells.
    std::size_t prev = router.homeSize(0);
    for (int i = 0; i < 10; ++i) {
        router.refresh(with_misses({0, 1, 2, 3}));
        EXPECT_GE(router.homeSize(0), prev);
        EXPECT_LE(router.homeSize(0), kCells);
        prev = router.homeSize(0);
    }
    EXPECT_EQ(router.homeSize(0), kCells);
}

TEST(CellRouter, RoutesOnlyInsideTheHomeSet)
{
    constexpr std::size_t kCells = 8;
    CellRouter router(kCells, 21);
    router.route(3);
    std::vector<CellDigest> missing = uniformDigests(kCells, 100.0);
    missing[router.rankedCell(3, 0)].scaleOutMisses = {0, 0, 0, 1};
    router.refresh(missing);
    ASSERT_EQ(router.homeSize(3), 2u);
    router.refresh(uniformDigests(kCells, 100.0));
    std::int64_t home_total = 0;
    for (int i = 0; i < 1'000; ++i)
        router.route(3);
    for (std::size_t r = 0; r < kCells; ++r) {
        std::int64_t n = router.routedSinceRefresh(router.rankedCell(3, r));
        if (r < 2) {
            EXPECT_GT(n, 0);
            home_total += n;
        } else {
            EXPECT_EQ(n, 0);
        }
    }
    EXPECT_EQ(home_total, 1'000);
}

TEST(CellRouter, DeterministicGivenSeed)
{
    auto draw = [] {
        CellRouter router(8, 1234);
        spillEverywhere(router, 0, uniformDigests(8, 100.0));
        std::vector<std::size_t> picks;
        for (int i = 0; i < 200; ++i)
            picks.push_back(router.route(0));
        return picks;
    };
    EXPECT_EQ(draw(), draw());
}

TEST(CellRouter, AvoidsQueueLoadedCell)
{
    CellRouter router(2, 7);
    spillEverywhere(router, 0, {digest(100.0, 1'000), digest(100.0)});
    // With two cells, p2c samples both cells often; the drowning cell 0
    // must lose every comparison until ~1000 requests went to cell 1.
    int to_loaded = 0;
    for (int i = 0; i < 500; ++i)
        if (router.route(0) == 0)
            ++to_loaded;
    EXPECT_LT(to_loaded, 50);
}

TEST(CellRouter, AvoidsDropPressuredCell)
{
    CellRouter router(2, 7);
    spillEverywhere(router, 0, {digest(100.0, 0, 10'000), digest(100.0)});
    int to_pressured = 0;
    for (int i = 0; i < 500; ++i)
        if (router.route(0) == 0)
            ++to_pressured;
    EXPECT_LT(to_pressured, 50);
}

TEST(CellRouter, PrefersMoreAvailableCell)
{
    CellRouter router(2, 7);
    // Same queue, 10x the free capacity on cell 1: its score stays lower
    // until it has absorbed ~10x the requests.
    spillEverywhere(router, 0, {digest(10.0, 50), digest(100.0, 50)});
    int to_small = 0;
    for (int i = 0; i < 200; ++i)
        if (router.route(0) == 0)
            ++to_small;
    EXPECT_LT(to_small, 100);
}

TEST(CellRouter, SelfCorrectsWithinEpoch)
{
    // All digests equal: the routed-since-refresh counter is the only
    // signal, so p2c must keep the spread balanced within the epoch.
    CellRouter router(4, 99);
    spillEverywhere(router, 0, uniformDigests(4, 100.0));
    for (int i = 0; i < 4'000; ++i)
        router.route(0);
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
        router.route(0);
    router.refresh(uniformDigests(2, 100.0));
    EXPECT_EQ(router.routedSinceRefresh(0), 0);
    EXPECT_EQ(router.routedSinceRefresh(1), 0);
}

TEST(CellRouter, SaturatedCellsStillRoute)
{
    CellRouter router(2, 11);
    spillEverywhere(router, 0, {digest(0.0, 100), digest(0.0, 100)});
    for (int i = 0; i < 10; ++i)
        EXPECT_LT(router.route(0), 2u);
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
