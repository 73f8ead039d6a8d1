/**
 * @file
 * Tests for Algorithm 1: AvailableConfig feasibility, the e_ij metric,
 * greedy placement, and the failure-domain spread context.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hh"
#include "cluster/topology.hh"
#include "core/rps_bounds.hh"
#include "core/scheduler.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"
#include "sim/time.hh"

namespace {

namespace cluster = infless::cluster;

using infless::cluster::Cluster;
using infless::cluster::Resources;
using infless::cluster::Server;
using infless::core::CandidateConfig;
using infless::core::execFeasible;
using infless::core::GreedyScheduler;
using infless::core::LaunchPlan;
using infless::core::SchedulerConfig;
using infless::core::SpreadContext;
using infless::core::uniformSchedule;
using infless::models::ExecModel;
using infless::models::ModelZoo;
using infless::profiler::CopPredictor;
using infless::profiler::OpProfileDb;
using infless::sim::msToTicks;

struct SchedulerFixture : ::testing::Test
{
    ExecModel exec;
    OpProfileDb db{exec};
    CopPredictor cop{db};
    GreedyScheduler sched{cop};
    const ModelZoo &zoo = ModelZoo::shared();
};

TEST_F(SchedulerFixture, AvailableConfigsAreFeasible)
{
    const auto &resnet = zoo.get("ResNet-50");
    auto configs = sched.availableConfigs(resnet, 8, 200.0, msToTicks(200));
    EXPECT_FALSE(configs.empty());
    for (const auto &c : configs) {
        EXPECT_TRUE(execFeasible(c.execPredicted, msToTicks(200), 8));
        EXPECT_LE(c.bounds.low, 200.0); // saturation check passed
        EXPECT_TRUE(c.bounds.valid());
        EXPECT_EQ(c.config.batchSize, 8);
    }
}

TEST_F(SchedulerFixture, LowResidualRejectsBigBatches)
{
    const auto &resnet = zoo.get("ResNet-50");
    // 5 RPS cannot saturate batch-32 instances within the SLO.
    auto configs = sched.availableConfigs(resnet, 32, 5.0, msToTicks(200));
    EXPECT_TRUE(configs.empty());
}

TEST_F(SchedulerFixture, BatchOneIgnoresSaturation)
{
    const auto &resnet = zoo.get("ResNet-50");
    auto configs = sched.availableConfigs(resnet, 1, 0.5, msToTicks(200));
    EXPECT_FALSE(configs.empty());
}

TEST_F(SchedulerFixture, TightSloFiltersSlowConfigs)
{
    const auto &bert = zoo.get("Bert-v1");
    // 50ms SLO with batch 8: t_exec must be <= 25ms; BERT cannot do that
    // on the config grid.
    auto configs = sched.availableConfigs(bert, 8, 1000.0, msToTicks(50));
    EXPECT_TRUE(configs.empty());
}

TEST_F(SchedulerFixture, InstanceMemoryCoversModelAndRuntime)
{
    const auto &bert = zoo.get("Bert-v1");
    auto mem = sched.instanceMemoryMb(bert);
    EXPECT_GT(mem, static_cast<std::int64_t>(bert.sizeMb));
    EXPECT_LT(mem, 2000);
}

TEST_F(SchedulerFixture, EfficiencyPrefersSnugServers)
{
    const auto &resnet = zoo.get("ResNet-50");
    auto configs = sched.availableConfigs(resnet, 8, 500.0, msToTicks(200));
    ASSERT_FALSE(configs.empty());
    const auto &cand = configs.front();

    Server roomy(0, Resources{16'000, 200, 131'072});
    Server snug(1, Resources{16'000, 200, 131'072});
    // Pre-load the snug server so the candidate nearly fills it.
    Resources preload{16'000 - cand.config.resources.cpuMillicores - 500,
                      200 - cand.config.resources.gpuSmPercent - 5,
                      100'000};
    ASSERT_TRUE(snug.allocate(preload));

    double e_roomy = sched.efficiency(cand, roomy, 1.0, 500.0);
    double e_snug = sched.efficiency(cand, snug, 1.0, 500.0);
    EXPECT_GT(e_snug, e_roomy);
}

TEST_F(SchedulerFixture, EfficiencyNegativeWhenNoFit)
{
    const auto &resnet = zoo.get("ResNet-50");
    auto configs = sched.availableConfigs(resnet, 8, 500.0, msToTicks(200));
    ASSERT_FALSE(configs.empty());
    Server tiny(0, Resources{100, 1, 64});
    EXPECT_LT(sched.efficiency(configs.front(), tiny, 1.0, 500.0), 0.0);
}

TEST_F(SchedulerFixture, ScheduleCoversResidualRps)
{
    const auto &resnet = zoo.get("ResNet-50");
    Cluster cluster(8);
    auto plans =
        sched.schedule(resnet, 400.0, msToTicks(200), 32, cluster);
    ASSERT_FALSE(plans.empty());
    double covered = 0.0;
    for (const auto &plan : plans)
        covered += plan.bounds.up;
    EXPECT_GE(covered, 400.0);
}

TEST_F(SchedulerFixture, ScheduleCommitsAllocationsToCluster)
{
    const auto &resnet = zoo.get("ResNet-50");
    Cluster cluster(8);
    auto plans =
        sched.schedule(resnet, 200.0, msToTicks(200), 32, cluster);
    Resources allocated = cluster.totalAllocated();
    Resources expected;
    for (const auto &plan : plans)
        expected += plan.config.resources;
    EXPECT_EQ(allocated, expected);
}

TEST_F(SchedulerFixture, SchedulePrefersLargeBatchesAtHighRps)
{
    const auto &resnet = zoo.get("ResNet-50");
    Cluster cluster(8);
    auto plans =
        sched.schedule(resnet, 2000.0, msToTicks(200), 32, cluster);
    ASSERT_FALSE(plans.empty());
    // The first (largest-rate) placements use large batches.
    EXPECT_GE(plans.front().config.batchSize, 8);
}

TEST_F(SchedulerFixture, SchedulePicksSmallBatchesAtLowRps)
{
    const auto &resnet = zoo.get("ResNet-50");
    Cluster cluster(8);
    auto plans = sched.schedule(resnet, 3.0, msToTicks(200), 32, cluster);
    ASSERT_FALSE(plans.empty());
    for (const auto &plan : plans)
        EXPECT_LE(plan.config.batchSize, 4);
}

TEST_F(SchedulerFixture, ScheduleStopsWhenClusterExhausted)
{
    const auto &resnet = zoo.get("ResNet-50");
    Cluster cluster(1); // single server
    auto plans =
        sched.schedule(resnet, 100'000.0, msToTicks(200), 32, cluster);
    // Plans fit within one server's capacity, never beyond.
    Resources total = cluster.totalAllocated();
    EXPECT_TRUE(total.fitsIn(cluster.server(0).capacity()));
    EXPECT_FALSE(plans.empty());
}

TEST_F(SchedulerFixture, InfeasibleSloYieldsNoPlans)
{
    const auto &bert = zoo.get("Bert-v1");
    Cluster cluster(8);
    auto plans = sched.schedule(bert, 100.0, msToTicks(10), 32, cluster);
    EXPECT_TRUE(plans.empty());
    EXPECT_TRUE(cluster.totalAllocated().isZero());
}

TEST_F(SchedulerFixture, ThroughputOnlyAblationUsesFirstFit)
{
    SchedulerConfig cfg;
    cfg.throughputOnly = true;
    GreedyScheduler ablated(cop, cfg);
    const auto &resnet = zoo.get("ResNet-50");
    Cluster cluster(8);
    auto plans =
        ablated.schedule(resnet, 300.0, msToTicks(200), 32, cluster);
    ASSERT_FALSE(plans.empty());
    // First-fit places everything on the first server while it fits.
    EXPECT_EQ(plans.front().server, 0);
}

TEST_F(SchedulerFixture, UniformScheduleLaunchesCeilOfRate)
{
    CandidateConfig config;
    config.config = cluster::InstanceConfig{4, Resources{2000, 10, 1024}};
    config.execPredicted = msToTicks(50);
    config.bounds = {28.0, 80.0};
    Cluster cluster(4);
    auto plans = uniformSchedule(config, 200.0, cluster, false, 0.003,
                                 1024);
    EXPECT_EQ(plans.size(), 3u); // ceil(200/80)
    for (const auto &plan : plans)
        EXPECT_EQ(plan.config.batchSize, 4);
}

TEST_F(SchedulerFixture, UniformScheduleBestFitPacksTighter)
{
    CandidateConfig config;
    config.config = cluster::InstanceConfig{4, Resources{2000, 10, 1024}};
    config.bounds = {28.0, 80.0};
    Cluster cluster(4);
    // Preload server 2 so best-fit chooses it over empty servers.
    ASSERT_TRUE(cluster.allocate(2, Resources{12'000, 150, 1024}));
    auto plans =
        uniformSchedule(config, 50.0, cluster, true, 0.003, 1024);
    ASSERT_EQ(plans.size(), 1u);
    EXPECT_EQ(plans[0].server, 2);
}

/**
 * Bert-v1 on half a core, CPU only, takes over 1 s per request, so Eq. 1
 * floors its r_up to 0. An SLO of twice that admits the config, yet an
 * instance that serves nothing would never shrink the residual: the
 * greedy loop would place it until the fleet is full.
 */
struct ZeroThroughputFixture : SchedulerFixture
{
    const infless::models::ModelInfo &bert = zoo.get("Bert-v1");
    GreedyScheduler slow{cop, slowOnly()};
    infless::sim::Tick exec = cop.predict(
        bert, 1, Resources{500, 0, slow.instanceMemoryMb(bert)});
    infless::sim::Tick slo = 2 * exec;

    static SchedulerConfig
    slowOnly()
    {
        SchedulerConfig cfg;
        cfg.cpuChoices = {500};
        cfg.gpuChoices = {0};
        return cfg;
    }

    void
    SetUp() override
    {
        ASSERT_GT(exec, infless::sim::secToTicks(1.0));
        ASSERT_TRUE(execFeasible(exec, slo, 1));
        ASSERT_EQ(infless::core::rpsBounds(exec, slo, 1).up, 0.0);
    }
};

TEST_F(ZeroThroughputFixture, AvailableConfigsDropsZeroThroughput)
{
    for (int b : {1, 2, 4})
        EXPECT_TRUE(slow.availableConfigs(bert, b, 5.0, slo).empty())
            << "b=" << b;
}

TEST_F(ZeroThroughputFixture, ScheduleAndNaivePlanNothing)
{
    Cluster fast_fleet(50);
    Cluster naive_fleet(50);
    EXPECT_TRUE(slow.schedule(bert, 5.0, slo, 32, fast_fleet).empty());
    EXPECT_TRUE(
        slow.scheduleNaive(bert, 5.0, slo, 32, naive_fleet).empty());
    EXPECT_TRUE(fast_fleet.totalAllocated().isZero());
    EXPECT_TRUE(naive_fleet.totalAllocated().isZero());
}

TEST_F(ZeroThroughputFixture, UniformSchedulePlansNothing)
{
    CandidateConfig config;
    config.config = cluster::InstanceConfig{1, Resources{500, 0, 0}};
    config.execPredicted = exec;
    config.bounds = infless::core::rpsBounds(exec, slo, 1);
    Cluster fleet(50);
    for (bool best_fit : {false, true}) {
        EXPECT_TRUE(uniformSchedule(config, 5.0, fleet, best_fit, 0.003,
                                    slow.instanceMemoryMb(bert))
                        .empty());
    }
    EXPECT_TRUE(fleet.totalAllocated().isZero());
}

TEST(SpreadContextTest, DomainsComeFromTheTopology)
{
    // Without a topology no server has a domain: nothing is counted and
    // every penalty is 1.
    SpreadContext off;
    off.add(0);
    EXPECT_TRUE(off.zoneCount.empty());
    EXPECT_TRUE(off.rackCount.empty());
    EXPECT_DOUBLE_EQ(off.penalty(0, 0.5), 1.0);

    // Two zones of one rack each: servers {0, 1} in zone 0, {2, 3} in
    // zone 1, and server 4 wraps back onto zone 0.
    cluster::TopologyConfig topo;
    topo.zones = 2;
    topo.rackSize = 2;
    SpreadContext ctx{topo};
    ctx.add(0);
    ctx.add(3);
    ctx.add(2);
    EXPECT_EQ(ctx.zoneCount, (std::vector<int>{1, 2}));
    EXPECT_EQ(ctx.rackCount, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(ctx.penalty(1, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(ctx.penalty(4, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(ctx.penalty(2, 0.5), 3.0);
}

} // namespace
