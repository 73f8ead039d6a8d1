/**
 * @file
 * The Cluster's running totals must agree with a full rescan.
 *
 * totalAllocated(), totalAvailable(), totalCapacity(), fragmentRatio()
 * and activeServers() are answered from state kept up to date by every
 * mutation instead of by walking the fleet. Seeded random sequences of
 * allocate, release, down/up and quarantine/lift on fleets of one random
 * machine shape each check, after every step, that each answer equals the
 * rescan exactly (fragmentRatio bit for bit), and equals that of a
 * reference with a record for every server. Mostly untouched fleets
 * keep most servers pristine, past the materialization frontier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/rng.hh"

namespace {

namespace cluster = infless::cluster;

using cluster::Cluster;
using cluster::Resources;
using cluster::Server;
using cluster::ServerId;
using infless::sim::Rng;

Resources
rescanAllocated(const Cluster &c)
{
    Resources total;
    c.forEachServer([&](const Server &s) { total += s.allocated(); });
    return total;
}

/** Down and quarantined servers count: they keep their capacity. */
Resources
rescanAvailable(const Cluster &c)
{
    Resources total;
    c.forEachServer([&](const Server &s) { total += s.available(); });
    return total;
}

Resources
rescanCapacity(const Cluster &c)
{
    Resources total;
    c.forEachServer([&](const Server &s) { total += s.capacity(); });
    return total;
}

double
rescanFragmentRatio(const Cluster &c, double beta)
{
    double sum = 0.0;
    std::size_t active = 0;
    c.forEachServer([&](const Server &s) {
        if (!s.isActive())
            return;
        sum += s.fragmentRatio(beta);
        ++active;
    });
    return active == 0 ? 0.0 : sum / static_cast<double>(active);
}

std::size_t
rescanActive(const Cluster &c)
{
    std::size_t n = 0;
    c.forEachServer([&](const Server &s) { n += s.isActive() ? 1 : 0; });
    return n;
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
    EXPECT_TRUE(c.capacityIndex().consistentWith(c));
}

/** One of a small pool of machine shapes. */
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

/** @p c answers as @p full, the same state with every record built. */
void
expectMatchesMaterialized(const Cluster &c, const Cluster &full,
                          const std::string &context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(c.totalAllocated(), full.totalAllocated());
    EXPECT_EQ(c.totalAvailable(), full.totalAvailable());
    EXPECT_EQ(c.totalCapacity(), full.totalCapacity());
    for (double beta : {cluster::kDefaultBeta, 0.001, 1.0})
        EXPECT_EQ(c.fragmentRatio(beta), full.fragmentRatio(beta));
    EXPECT_EQ(c.activeServers(), full.activeServers());
    EXPECT_EQ(c.downServers(), full.downServers());
    EXPECT_EQ(c.quarantinedServers(), full.quarantinedServers());
    EXPECT_EQ(c.capacityIndex().classCount(),
              full.capacityIndex().classCount());
    for (const Resources &req :
         {Resources{500, 10, 1024}, Resources{4'000, 50, 16 * 1024},
          Resources{16'000, 200, 128 * 1024}, Resources{32'000, 0, 1024}}) {
        EXPECT_EQ(c.firstFit(req), full.firstFit(req)) << req;
        EXPECT_EQ(c.bestFit(req, cluster::kDefaultBeta),
                  full.bestFit(req, cluster::kDefaultBeta))
            << req;
    }
}

/**
 * 400 seeded steps of allocate, release, down/up and quarantine/lift on
 * ids drawn by @p pick, on @p servers servers of @p capacity. After
 * every step each answer must equal the rescan, and those of a reference
 * that has a record for every server and takes the same moves.
 */
template <typename Pick>
void
churn(std::size_t servers, const Resources &capacity, Rng &rng,
      Pick &&pick, const std::string &name)
{
    Cluster c(servers, capacity);
    Cluster full(servers, capacity);
    // Quarantining the top id and lifting it again builds every record.
    const auto top = static_cast<ServerId>(servers - 1);
    full.quarantineServer(top);
    full.liftQuarantine(top);
    // Live allocations, so releases return exactly what was taken.
    std::vector<std::pair<ServerId, Resources>> held;
    expectMatchesRescan(c, name + " start");

    for (int step = 0; step < 400; ++step) {
        const ServerId id = pick(step);
        const bool down = c.serverDown(id);
        const bool quarantined = c.serverQuarantined(id);
        int op = static_cast<int>(rng.uniformInt(0, 7));
        if (op <= 3) {
            Resources req{rng.uniformInt(1, 8) * 500,
                          rng.uniformInt(0, 5) * 10,
                          rng.uniformInt(1, 16) * 1024};
            bool ok = c.allocate(id, req);
            ASSERT_EQ(full.allocate(id, req), ok);
            if (ok)
                held.push_back({id, req});
        } else if (op <= 5 && !held.empty()) {
            auto k = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(held.size()) - 1));
            c.release(held[k].first, held[k].second);
            full.release(held[k].first, held[k].second);
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        } else if (op == 6) {
            for (Cluster *f : {&c, &full}) {
                if (down)
                    f->setServerUp(id);
                else
                    f->setServerDown(id);
            }
        } else if (op == 7) {
            for (Cluster *f : {&c, &full}) {
                if (quarantined)
                    f->liftQuarantine(id);
                else
                    f->quarantineServer(id);
            }
        }
        std::string context = name + " step " + std::to_string(step);
        expectMatchesRescan(c, context);
        expectMatchesMaterialized(c, full, context);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(ClusterRunningTotals, AgreeWithRescanUnderRandomChurn)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        auto n = static_cast<std::size_t>(rng.uniformInt(2, 24));
        churn(n, randomCapacity(rng), rng,
              [&](int) {
                  return static_cast<ServerId>(rng.uniformInt(
                      0, static_cast<std::int64_t>(n) - 1));
              },
              "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            return;
    }

    // Mostly untouched fleets of 2 to 750 servers. Nine moves in ten land
    // on the six lowest ids; the rest are first touches anywhere below
    // the top id, often far past the frontier. The never-touched top id
    // is crashed at step 300 and quarantined at step 301.
    for (std::uint64_t seed = 25; seed <= 36; ++seed) {
        Rng rng(seed);
        auto n = static_cast<std::size_t>(rng.uniformInt(2, 750));
        const Resources capacity = randomCapacity(rng);
        const auto top = static_cast<ServerId>(n - 1);
        churn(n, capacity, rng,
              [&](int step) {
                  if (step == 300 || step == 301)
                      return top;
                  if (rng.uniform() < 0.9 || top == 0)
                      return static_cast<ServerId>(
                          rng.uniformInt(0, std::min<ServerId>(5, top)));
                  return static_cast<ServerId>(rng.uniformInt(0, top - 1));
              },
              "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            return;
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

} // namespace
