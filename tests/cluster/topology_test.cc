/**
 * @file
 * Tests for the failure-domain topology: pure-function domain
 * assignment, wrap-around rack layout, and the cluster-side quarantine
 * bookkeeping the health engine builds on.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "cluster/topology.hh"

namespace {

using infless::cluster::Cluster;
using infless::cluster::FailureDomain;
using infless::cluster::kNoDomain;
using infless::cluster::ServerId;
using infless::cluster::TopologyConfig;

TEST(TopologyTest, DisabledAssignsNothing)
{
    // The default (no zones), and any other zero dimension.
    TopologyConfig zero_racks;
    zero_racks.zones = 3;
    zero_racks.racksPerZone = 0;
    TopologyConfig zero_size;
    zero_size.zones = 3;
    zero_size.rackSize = 0;
    for (const TopologyConfig &off : {TopologyConfig{}, zero_racks,
                                      zero_size}) {
        EXPECT_FALSE(off.enabled());
        EXPECT_EQ(off.rackOf(0), kNoDomain);
        EXPECT_EQ(off.domainOf(5).zone, kNoDomain);
        EXPECT_FALSE(off.domainOf(5).assigned());
    }
}

TEST(TopologyTest, ContiguousBlocksRoundRobinAcrossRacks)
{
    TopologyConfig topo;
    topo.zones = 3;
    topo.racksPerZone = 2;
    topo.rackSize = 4;
    ASSERT_EQ(topo.rackDomains(), 6u);

    // Servers 0-3 -> rack 0 (zone 0), 4-7 -> rack 1 (zone 0),
    // 8-11 -> rack 2 (zone 1), ... 20-23 -> rack 5 (zone 2).
    for (ServerId s = 0; s < 24; ++s) {
        FailureDomain d = topo.domainOf(s);
        EXPECT_EQ(d.rack, (s / 4) % 6) << "server " << s;
        EXPECT_EQ(d.zone, d.rack / 2) << "server " << s;
        EXPECT_TRUE(d.assigned());
    }
    // Block 6 wraps back onto rack 0: fleets larger than one pass over
    // the racks keep filling existing domains, never phantom new ones.
    EXPECT_EQ(topo.domainOf(24).rack, 0);
    EXPECT_EQ(topo.domainOf(24).zone, 0);
    EXPECT_EQ(topo.domainOf(47).rack, 5);
}

TEST(TopologyTest, AssignmentIsAPureFunctionOfGlobalId)
{
    TopologyConfig topo;
    topo.zones = 4;
    topo.rackSize = 2;
    // Same id, same domain, however often asked.
    for (ServerId s = 0; s < 32; ++s)
        EXPECT_EQ(topo.domainOf(s), topo.domainOf(s));
    EXPECT_EQ(topo.domainOf(-1).zone, kNoDomain);
}

TEST(TopologyClusterTest, QuarantineRemovesFromPlacementOnly)
{
    Cluster cluster(3);
    ASSERT_EQ(cluster.quarantinedServers(), 0u);

    cluster.quarantineServer(1);
    EXPECT_TRUE(cluster.serverQuarantined(1));
    EXPECT_EQ(cluster.quarantinedServers(), 1u);
    // Quarantine is not downtime: the server stays up.
    EXPECT_FALSE(cluster.server(1).isDown());
    EXPECT_EQ(cluster.downServers(), 0u);
    // But placement refuses it: best-fit never lands on server 1.
    for (int i = 0; i < 8; ++i) {
        ServerId fit = cluster.bestFit(
            infless::cluster::Resources{1000, 10, 1024}, 0.5);
        EXPECT_NE(fit, 1);
    }

    cluster.liftQuarantine(1);
    EXPECT_FALSE(cluster.serverQuarantined(1));
    EXPECT_EQ(cluster.quarantinedServers(), 0u);
}

TEST(TopologyClusterTest, QuarantineAndCrashAreOrthogonal)
{
    Cluster cluster(2);
    cluster.quarantineServer(0);
    cluster.setServerDown(0);
    EXPECT_TRUE(cluster.serverQuarantined(0));
    EXPECT_TRUE(cluster.server(0).isDown());

    // Recovery does not clear quarantine: a flaky machine that crashed
    // while ejected comes back still ejected.
    cluster.setServerUp(0);
    EXPECT_TRUE(cluster.serverQuarantined(0));
    EXPECT_FALSE(cluster.server(0).isDown());
    ServerId fit =
        cluster.bestFit(infless::cluster::Resources{1000, 10, 1024}, 0.5);
    EXPECT_EQ(fit, 1);
}

} // namespace
