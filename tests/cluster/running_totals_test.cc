/**
 * @file
 * The Cluster's running totals must agree with a full rescan.
 *
 * totalAllocated(), totalAvailable(), totalCapacity(), fragmentRatio(),
 * activeServers() and probeCapacities() are answered from state kept up
 * to date by every mutation instead of by walking the fleet. Seeded
 * random sequences of allocate, release, down/up and quarantine/lift on
 * heterogeneous fleets check, after every step, that each answer equals
 * the rescan exactly (fragmentRatio bit for bit).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/rng.hh"

namespace {

namespace cluster = infless::cluster;

using cluster::Cluster;
using cluster::Resources;
using cluster::ServerId;
using infless::sim::Rng;

Resources
rescanAllocated(const Cluster &c)
{
    Resources total;
    for (const auto &s : c.servers())
        total += s.allocated();
    return total;
}

/** Down and quarantined servers count: they keep their capacity. */
Resources
rescanAvailable(const Cluster &c)
{
    Resources total;
    for (const auto &s : c.servers())
        total += s.available();
    return total;
}

Resources
rescanCapacity(const Cluster &c)
{
    Resources total;
    for (const auto &s : c.servers())
        total += s.capacity();
    return total;
}

double
rescanFragmentRatio(const Cluster &c, double beta)
{
    double sum = 0.0;
    std::size_t active = 0;
    for (const auto &s : c.servers()) {
        if (!s.isActive())
            continue;
        sum += s.fragmentRatio(beta);
        ++active;
    }
    return active == 0 ? 0.0 : sum / static_cast<double>(active);
}

std::size_t
rescanActive(const Cluster &c)
{
    std::size_t n = 0;
    for (const auto &s : c.servers())
        n += s.isActive() ? 1 : 0;
    return n;
}

/** The first @p per_capacity servers of each capacity, id order. */
std::vector<Resources>
rescanProbeCapacities(const Cluster &c, std::size_t per_capacity)
{
    std::map<Resources, std::size_t, cluster::ResourcesLess> taken;
    std::vector<Resources> out;
    for (const auto &s : c.servers()) {
        if (taken[s.capacity()]++ < per_capacity)
            out.push_back(s.capacity());
    }
    return out;
}

void
expectMatchesRescan(const Cluster &c, const std::string &context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(c.totalAllocated(), rescanAllocated(c));
    EXPECT_EQ(c.totalAvailable(), rescanAvailable(c));
    EXPECT_EQ(c.totalCapacity(), rescanCapacity(c));
    for (double beta : {cluster::kDefaultBeta, 0.001, 1.0}) {
        // Bit-identical, not approximately equal.
        EXPECT_EQ(c.fragmentRatio(beta), rescanFragmentRatio(c, beta))
            << "beta " << beta;
    }
    EXPECT_EQ(c.activeServers(), rescanActive(c));
    for (std::size_t cap : {1u, 2u, 5u}) {
        EXPECT_EQ(c.probeCapacities(cap), rescanProbeCapacities(c, cap))
            << "per_capacity " << cap;
    }
    EXPECT_TRUE(c.capacityIndex().consistentWith(c.servers()));
}

/** A small pool of machine shapes so classes repeat. */
Resources
randomCapacity(Rng &rng)
{
    static const Resources kShapes[] = {
        {16'000, 200, 128 * 1024},
        {8'000, 100, 64 * 1024},
        {32'000, 0, 256 * 1024},
        {4'000, 50, 16 * 1024},
    };
    return kShapes[rng.uniformInt(0, 3)];
}

TEST(ClusterRunningTotals, AgreeWithRescanUnderRandomChurn)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        std::vector<Resources> caps;
        auto n = static_cast<std::size_t>(rng.uniformInt(2, 24));
        for (std::size_t i = 0; i < n; ++i)
            caps.push_back(randomCapacity(rng));
        Cluster c(caps);
        // Live allocations, so releases return exactly what was taken.
        std::vector<std::pair<ServerId, Resources>> held;
        expectMatchesRescan(c, "seed " + std::to_string(seed) + " start");

        for (int step = 0; step < 400; ++step) {
            auto id = static_cast<ServerId>(
                rng.uniformInt(0, static_cast<std::int64_t>(c.size()) - 1));
            const cluster::Server &s = c.server(id);
            int op = static_cast<int>(rng.uniformInt(0, 7));
            if (op <= 3) {
                Resources req{rng.uniformInt(1, 8) * 500,
                              rng.uniformInt(0, 5) * 10,
                              rng.uniformInt(1, 16) * 1024};
                if (c.allocate(id, req))
                    held.push_back({id, req});
            } else if (op <= 5 && !held.empty()) {
                auto k = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(held.size()) - 1));
                c.release(held[k].first, held[k].second);
                held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
            } else if (op == 6) {
                if (s.isDown())
                    c.setServerUp(id);
                else
                    c.setServerDown(id);
            } else if (op == 7) {
                if (s.isQuarantined())
                    c.liftQuarantine(id);
                else
                    c.quarantineServer(id);
            }
            expectMatchesRescan(c, "seed " + std::to_string(seed) +
                                       " step " + std::to_string(step));
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(ClusterRunningTotals, ActiveSetFollowsAllocationCount)
{
    Cluster c(4, Resources{1000, 10, 1024});
    Resources a{200, 2, 200};
    ASSERT_TRUE(c.allocate(2, a));
    ASSERT_TRUE(c.allocate(2, a));
    ASSERT_TRUE(c.allocate(0, a));
    EXPECT_EQ(c.activeServers(), 2u);
    c.release(2, a);
    EXPECT_EQ(c.activeServers(), 2u); // server 2 still holds one
    c.release(2, a);
    EXPECT_EQ(c.activeServers(), 1u);
    EXPECT_EQ(c.totalAllocated(), a);
    // A down server keeps its allocations (and its place in the totals).
    c.setServerDown(0);
    EXPECT_EQ(c.activeServers(), 1u);
    EXPECT_EQ(c.totalAllocated(), a);
    c.release(0, a);
    EXPECT_EQ(c.totalAllocated(), Resources{});
    EXPECT_DOUBLE_EQ(c.fragmentRatio(), 0.0);
}

TEST(ClusterRunningTotals, ProbeCapacitiesKeepsIdOrder)
{
    const Resources big{16'000, 200, 131'072};
    const Resources small{4'000, 50, 16'384};
    Cluster c(std::vector<Resources>{small, big, big, small, big, small});
    EXPECT_EQ(c.probeCapacities(1), (std::vector<Resources>{small, big}));
    EXPECT_EQ(c.probeCapacities(2),
              (std::vector<Resources>{small, big, big, small}));
    EXPECT_EQ(c.probeCapacities(9).size(), c.size());
}

} // namespace
