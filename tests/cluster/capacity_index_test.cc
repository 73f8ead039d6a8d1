/**
 * @file
 * Tests for the server capacity index: class splitting/merging under
 * allocate/release, the firstFit/bestFit probes against linear scans,
 * and the lazily-deleted class membership against a std::set model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/capacity_index.hh"
#include "cluster/cluster.hh"
#include "sim/rng.hh"

namespace {

using infless::cluster::CapacityIndex;
using infless::cluster::Cluster;
using infless::cluster::kDefaultBeta;
using infless::cluster::kNoServer;
using infless::cluster::Resources;
using infless::cluster::ResourcesLess;
using infless::cluster::Server;
using infless::cluster::ServerId;
using infless::sim::Rng;

/** Reference first-fit: linear scan in id order. */
ServerId
naiveFirstFit(const Cluster &c, const Resources &req)
{
    ServerId target = kNoServer;
    c.forEachServer([&](const Server &s) {
        if (target == kNoServer && s.canFit(req))
            target = s.id();
    });
    return target;
}

/** Reference best-fit: smallest weighted availability, id order. */
ServerId
naiveBestFit(const Cluster &c, const Resources &req, double beta)
{
    ServerId target = kNoServer;
    double best_avail = std::numeric_limits<double>::max();
    c.forEachServer([&](const Server &s) {
        if (!s.canFit(req))
            return;
        double avail = s.available().weighted(beta);
        if (avail < best_avail) {
            best_avail = avail;
            target = s.id();
        }
    });
    return target;
}

TEST(CapacityIndexTest, FreshHomogeneousClusterHasOneClass)
{
    Cluster c(2000);
    EXPECT_EQ(c.capacityIndex().classCount(), 1u);
    EXPECT_EQ(c.capacityIndex().serverCount(), 2000u);
    EXPECT_TRUE(c.capacityIndex().consistentWith(c));
}

TEST(CapacityIndexTest, AllocateSplitsClassReleaseMerges)
{
    Cluster c(8);
    Resources req{2000, 10, 1024};

    ASSERT_TRUE(c.allocate(3, req));
    EXPECT_EQ(c.capacityIndex().classCount(), 2u);
    EXPECT_TRUE(c.capacityIndex().consistentWith(c));

    // A second server with the same allocation joins the split class.
    ASSERT_TRUE(c.allocate(5, req));
    EXPECT_EQ(c.capacityIndex().classCount(), 2u);

    // A different allocation opens a third class.
    ASSERT_TRUE(c.allocate(6, Resources{500, 0, 512}));
    EXPECT_EQ(c.capacityIndex().classCount(), 3u);

    // Releases collapse everything back to one class.
    c.release(3, req);
    c.release(5, req);
    c.release(6, Resources{500, 0, 512});
    EXPECT_EQ(c.capacityIndex().classCount(), 1u);
    EXPECT_TRUE(c.capacityIndex().consistentWith(c));
}

TEST(CapacityIndexTest, FirstFitMatchesLinearScan)
{
    Cluster c(12);
    Rng rng(99);
    // Random churn, checking the probe after every step.
    struct Alloc
    {
        ServerId server;
        Resources res;
    };
    std::vector<Alloc> live;
    for (int step = 0; step < 400; ++step) {
        Resources req{rng.uniformInt(0, 8) * 2000,
                      rng.uniformInt(0, 10) * 20,
                      rng.uniformInt(1, 48) * 1024};
        if (rng.uniform() < 0.6) {
            ServerId id = c.firstFit(req);
            ASSERT_EQ(id, naiveFirstFit(c, req)) << "step " << step;
            if (id != kNoServer && !req.isZero()) {
                ASSERT_TRUE(c.allocate(id, req));
                live.push_back({id, req});
            }
        } else if (!live.empty()) {
            std::size_t pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            c.release(live[pick].server, live[pick].res);
            live[pick] = live.back();
            live.pop_back();
        }
        ASSERT_TRUE(c.capacityIndex().consistentWith(c));
    }
}

TEST(CapacityIndexTest, BestFitMatchesLinearScan)
{
    Cluster c(12);
    Rng rng(7);
    std::vector<std::pair<ServerId, Resources>> live;
    for (int step = 0; step < 400; ++step) {
        Resources req{rng.uniformInt(0, 6) * 1000,
                      rng.uniformInt(0, 9) * 10,
                      rng.uniformInt(1, 32) * 1024};
        ServerId indexed = c.bestFit(req, kDefaultBeta);
        ASSERT_EQ(indexed, naiveBestFit(c, req, kDefaultBeta))
            << "step " << step;
        if (rng.uniform() < 0.6) {
            if (indexed != kNoServer && !req.isZero()) {
                ASSERT_TRUE(c.allocate(indexed, req));
                live.emplace_back(indexed, req);
            }
        } else if (!live.empty()) {
            std::size_t pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            c.release(live[pick].first, live[pick].second);
            live[pick] = live.back();
            live.pop_back();
        }
    }
}

TEST(CapacityIndexTest, StaysConsistentUnderServerChurn)
{
    // Down/up churn interleaved with allocations, releases and placement
    // probes: the index must track the live population exactly (a down
    // server leaves its class; recovery re-joins with its allocations
    // intact) and both probes must keep matching the linear scans.
    Cluster c(10);
    Rng rng(123);
    struct Alloc
    {
        ServerId server;
        Resources res;
    };
    std::vector<Alloc> live;
    std::vector<bool> down(c.size(), false);
    for (int step = 0; step < 600; ++step) {
        double move = rng.uniform();
        if (move < 0.20) {
            // Crash a random up server (its allocations stay booked).
            ServerId id = static_cast<ServerId>(
                rng.uniformInt(0, static_cast<std::int64_t>(c.size()) - 1));
            if (!down[static_cast<std::size_t>(id)]) {
                c.setServerDown(id);
                down[static_cast<std::size_t>(id)] = true;
            }
        } else if (move < 0.40) {
            // Recover a random down server.
            ServerId id = static_cast<ServerId>(
                rng.uniformInt(0, static_cast<std::int64_t>(c.size()) - 1));
            if (down[static_cast<std::size_t>(id)]) {
                c.setServerUp(id);
                down[static_cast<std::size_t>(id)] = false;
            }
        } else if (move < 0.75) {
            // Place through the index and cross-check both probes.
            Resources req{rng.uniformInt(0, 8) * 2000,
                          rng.uniformInt(0, 10) * 20,
                          rng.uniformInt(1, 48) * 1024};
            ServerId first = c.firstFit(req);
            ASSERT_EQ(first, naiveFirstFit(c, req)) << "step " << step;
            ASSERT_EQ(c.bestFit(req, kDefaultBeta),
                      naiveBestFit(c, req, kDefaultBeta))
                << "step " << step;
            if (first != kNoServer && !req.isZero()) {
                ASSERT_FALSE(down[static_cast<std::size_t>(first)]);
                ASSERT_TRUE(c.allocate(first, req));
                live.push_back({first, req});
            }
        } else if (!live.empty()) {
            // Release — legal even on a down server (crashed instances
            // hand their resources back before the machine recovers).
            std::size_t pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(live.size()) - 1));
            c.release(live[pick].server, live[pick].res);
            live[pick] = live.back();
            live.pop_back();
        }
        ASSERT_TRUE(c.capacityIndex().consistentWith(c))
            << "step " << step;
        ASSERT_EQ(c.downServers(),
                  static_cast<std::size_t>(
                      std::count(down.begin(), down.end(), true)));
    }
    // Allocating on a down server must refuse outright.
    c.setServerDown(0);
    EXPECT_FALSE(c.allocate(0, Resources{1000, 0, 512}));
    c.setServerUp(0);
    EXPECT_TRUE(c.allocate(0, Resources{1000, 0, 512}));
}

TEST(CapacityIndexTest, BestFitPrefersLowestIdOnWeightedTie)
{
    // Two classes with different memory but identical weighted compute:
    // memory does not enter weighted(), so both tie and the lowest id
    // must win (matching a linear scan with strict improvement).
    Cluster c(4);
    ASSERT_TRUE(c.allocate(1, Resources{0, 0, 1024}));
    ASSERT_TRUE(c.allocate(2, Resources{0, 0, 2048}));
    EXPECT_EQ(c.capacityIndex().classCount(), 3u);
    ServerId id = c.bestFit(Resources{1000, 10, 512}, kDefaultBeta);
    EXPECT_EQ(id, 0); // all weighted-equal; linear scan returns server 0
}

TEST(CapacityIndexTest, ForEachCoveringClassReportsMinIdAndCount)
{
    Cluster c(5);
    ASSERT_TRUE(c.allocate(2, Resources{1000, 0, 1024}));

    // A zero request is covered by every class.
    std::size_t classes = 0;
    std::size_t servers = 0;
    c.capacityIndex().forEachCoveringClass(
        Resources{}, kDefaultBeta,
        [&](const Resources &avail, double weighted, ServerId min_id,
            std::size_t count) {
            EXPECT_EQ(weighted, avail.weighted(kDefaultBeta));
            if (count == 4)
                EXPECT_EQ(min_id, 0); // untouched servers: 0,1,3,4
            else
                EXPECT_EQ(min_id, 2);
            ++classes;
            servers += count;
            return true;
        });
    EXPECT_EQ(classes, 2u);
    EXPECT_EQ(servers, 5u);

    // Only the untouched class still has all of its CPU.
    Resources full_cpu{c.server(0).capacity().cpuMillicores, 0, 0};
    classes = 0;
    c.capacityIndex().forEachCoveringClass(
        full_cpu, kDefaultBeta,
        [&](const Resources &, double, ServerId min_id, std::size_t) {
            EXPECT_EQ(min_id, 0);
            ++classes;
            return true;
        });
    EXPECT_EQ(classes, 1u);
}

/** Reference membership: the filed servers of each class, by key. */
using ClassSets = std::map<Resources, std::set<ServerId>, ResourcesLess>;

ClassSets
referenceClasses(const Cluster &c)
{
    ClassSets ref;
    c.forEachServer([&](const Server &s) {
        if (!s.isDown() && !s.isQuarantined())
            ref[s.available()].insert(s.id());
    });
    return ref;
}

/**
 * Every class's min id and count against a std::set model rebuilt from
 * the servers, plus the index's own consistency check.
 */
::testing::AssertionResult
matchesReference(const Cluster &c)
{
    const CapacityIndex &index = c.capacityIndex();
    ClassSets ref = referenceClasses(c);
    std::string error;
    std::size_t visited = 0;
    // A zero request is covered by every class.
    index.forEachCoveringClass(
        Resources{}, kDefaultBeta,
        [&](const Resources &avail, double, ServerId min_id,
            std::size_t count) {
            ++visited;
            auto it = ref.find(avail);
            if (it == ref.end())
                error +=
                    " extra class " + ::testing::PrintToString(avail) + ";";
            else if (min_id != *it->second.begin() ||
                     count != it->second.size())
                error += " class " + ::testing::PrintToString(avail) +
                         " min " + std::to_string(min_id) + " count " +
                         std::to_string(count) + ";";
            return true;
        });
    if (visited != ref.size() || index.classCount() != ref.size())
        error += " " + std::to_string(visited) + " classes visited, " +
                 std::to_string(ref.size()) + " expected;";

    if (!index.consistentWith(c))
        error += " consistentWith failed;";
    if (!error.empty())
        return ::testing::AssertionFailure() << error;
    return ::testing::AssertionSuccess();
}

/** Every class as (key, min id, count), in key order. */
std::vector<std::tuple<Resources, ServerId, std::size_t>>
classList(const Cluster &c)
{
    std::vector<std::tuple<Resources, ServerId, std::size_t>> out;
    c.capacityIndex().forEachCoveringClass(
        Resources{}, kDefaultBeta,
        [&](const Resources &avail, double, ServerId min_id,
            std::size_t count) {
            out.emplace_back(avail, min_id, count);
            return true;
        });
    return out;
}

/**
 * @p lazy answers every query exactly as @p full, a cluster in the same
 * state with a record for every server: class keys, minima and counts,
 * both probes, the totals and the fragment ratio (bit for bit).
 */
::testing::AssertionResult
sameAnswers(const Cluster &lazy, const Cluster &full)
{
    static const Resources kProbes[] = {
        {500, 5, 256},         {4'000, 50, 8'192},
        {16'000, 200, 131'072}, {32'000, 0, 262'144},
        {20'000, 0, 1'024},    {}};
    std::string error;
    if (classList(lazy) != classList(full))
        error += " classes differ;";
    if (lazy.capacityIndex().serverCount() !=
        full.capacityIndex().serverCount())
        error += " filed counts differ;";
    for (const Resources &req : kProbes) {
        if (lazy.firstFit(req) != full.firstFit(req) ||
            lazy.bestFit(req, kDefaultBeta) != full.bestFit(req, kDefaultBeta))
            error +=
                " probes differ for " + ::testing::PrintToString(req) + ";";
    }
    if (lazy.totalAllocated() != full.totalAllocated() ||
        lazy.totalAvailable() != full.totalAvailable() ||
        lazy.totalCapacity() != full.totalCapacity() ||
        lazy.activeServers() != full.activeServers() ||
        lazy.downServers() != full.downServers() ||
        lazy.quarantinedServers() != full.quarantinedServers())
        error += " totals differ;";
    for (double beta : {kDefaultBeta, 0.001, 1.0}) {
        if (lazy.fragmentRatio(beta) != full.fragmentRatio(beta))
            error += " fragment ratio differs;";
    }
    if (!error.empty())
        return ::testing::AssertionFailure() << error;
    return ::testing::AssertionSuccess();
}

TEST(CapacityIndexTest, MembershipMatchesSetModelUnderChurn)
{
    // Seeded allocate/release, down/up and quarantine/lift moves.
    // Partway through the fleet is copied and the same sequence
    // continues on both copies; one server leaves and rejoins the same
    // populous class hundreds of times so stale heap entries pile up
    // and get compacted.
    //
    // The random moves stay on ids 0-35 of a 340-server fleet, so most
    // of it is never touched. Scripted steps make a first touch far past
    // the frontier and release that server back to pristine, and crash
    // and quarantine the never-touched top id. A reference with a record
    // for every server takes the same moves, and after every step each
    // lazy fleet must answer every query as it does.
    const Resources capacity{16'000, 200, 131'072};
    const std::size_t servers = 340;
    const ServerId top = 339;
    Cluster original(servers, capacity);
    Cluster full(servers, capacity);
    // Quarantining the top id and lifting it again builds every record.
    full.quarantineServer(top);
    full.liftQuarantine(top);
    ASSERT_EQ(original.materialized(), 0u);
    ASSERT_EQ(full.materialized(), servers);
    std::vector<Cluster *> fleets = {&original, &full};
    Cluster copy = original; // replaced at the copy step below

    struct Alloc
    {
        ServerId server;
        Resources res;
    };
    std::vector<Alloc> live;
    Rng rng(2024);
    // Servers 36-38 stay out of the random moves, so the untouched
    // class always holds ids below 38.
    auto pickServer = [&] {
        return static_cast<ServerId>(rng.uniformInt(0, 35));
    };
    const Resources far_req{1000, 10, 2048};
    const int steps = 3000;
    std::size_t max_classes = 0;
    for (int step = 0; step < steps; ++step) {
        if (step == steps / 2) {
            copy = original;
            fleets.push_back(&copy);
        }
        // Scripted moves on the untouched tail.
        if (step == 2000) {
            ASSERT_LE(original.materialized(), 40u);
            for (Cluster *c : fleets)
                ASSERT_TRUE(c->allocate(250, far_req));
            ASSERT_EQ(copy.materialized(), 251u);
        } else if (step == 2200) {
            for (Cluster *c : fleets)
                c->release(250, far_req);
        } else if (step == 2600) {
            for (Cluster *c : fleets)
                c->setServerDown(top);
            ASSERT_EQ(original.materialized(), servers);
        } else if (step == 2700) {
            for (Cluster *c : fleets)
                c->quarantineServer(top);
        } else if (step == 2800) {
            for (Cluster *c : fleets)
                c->setServerUp(top);
        } else if (step == 2900) {
            for (Cluster *c : fleets)
                c->liftQuarantine(top);
        }
        double move = rng.uniform();
        if (step >= 1000 && step < 1600) {
            // The rejoin phase: server 38 (never the minimum of the
            // untouched class) leaves and rejoins that class on every
            // cycle.
            Resources req{500, 5, 256};
            for (Cluster *c : fleets) {
                if (step % 2 == 0)
                    ASSERT_TRUE(c->allocate(38, req)) << "step " << step;
                else
                    c->release(38, req);
            }
        } else if (move < 0.50) {
            ServerId id = pickServer();
            Resources req{rng.uniformInt(1, 8) * 500,
                          rng.uniformInt(0, 1) * rng.uniformInt(0, 8) * 5,
                          rng.uniformInt(1, 16) * 1024};
            bool ok = fleets[0]->allocate(id, req);
            for (std::size_t f = 1; f < fleets.size(); ++f)
                ASSERT_EQ(fleets[f]->allocate(id, req), ok);
            if (ok)
                live.push_back({id, req});
        } else if (move < 0.68) {
            if (!live.empty()) {
                std::size_t pick = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(live.size()) - 1));
                for (Cluster *c : fleets)
                    c->release(live[pick].server, live[pick].res);
                live[pick] = live.back();
                live.pop_back();
            }
        } else if (move < 0.77) {
            // Recover a down server, or crash an up one a third of the
            // time, so most of the fleet stays up.
            ServerId id = pickServer();
            bool crash = rng.uniform() < 0.33;
            for (Cluster *c : fleets) {
                if (c->serverDown(id))
                    c->setServerUp(id);
                else if (crash)
                    c->setServerDown(id);
            }
        } else if (move < 0.86) {
            ServerId id = pickServer();
            bool eject = rng.uniform() < 0.33;
            for (Cluster *c : fleets) {
                if (c->serverQuarantined(id))
                    c->liftQuarantine(id);
                else if (eject)
                    c->quarantineServer(id);
            }
        }
        for (Cluster *c : fleets) {
            ASSERT_TRUE(matchesReference(*c)) << "step " << step;
            ASSERT_TRUE(sameAnswers(*c, full)) << "step " << step;
        }
        max_classes =
            std::max(max_classes, original.capacityIndex().classCount());
    }
    ASSERT_EQ(fleets.size(), 3u);
    EXPECT_GE(max_classes, 20u);
    ASSERT_FALSE(live.empty());
    EXPECT_EQ(copy.server(250).capacity(), capacity);
    EXPECT_FALSE(copy.server(250).isActive());

    // The copies share no state: emptying one leaves the other intact.
    for (const Alloc &a : live)
        copy.release(a.server, a.res);
    EXPECT_TRUE(matchesReference(copy));
    EXPECT_TRUE(matchesReference(original));
    EXPECT_NE(copy.totalAllocated(), original.totalAllocated());
}

} // namespace
