/**
 * @file
 * Equivalence property of the scheduler fast path: the capacity-indexed
 * schedule() must produce LaunchPlan sequences bit-identical to the
 * O(servers)-per-placement scheduleNaive() reference, across randomized
 * (model, slo, rps, cluster-occupancy) cases and every ablation flag.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/topology.hh"
#include "core/scheduler.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace {

namespace cluster = infless::cluster;

using cluster::Cluster;
using cluster::Resources;
using infless::core::GreedyScheduler;
using infless::core::LaunchPlan;
using infless::core::SchedulerConfig;
using infless::models::ExecModel;
using infless::models::ModelZoo;
using infless::profiler::CopPredictor;
using infless::profiler::OpProfileDb;
using infless::sim::msToTicks;
using infless::sim::Rng;

void
expectIdenticalPlans(const std::vector<LaunchPlan> &fast,
                     const std::vector<LaunchPlan> &naive,
                     const std::string &context)
{
    ASSERT_EQ(fast.size(), naive.size()) << context;
    for (std::size_t i = 0; i < fast.size(); ++i) {
        SCOPED_TRACE(context + " plan #" + std::to_string(i));
        EXPECT_EQ(fast[i].server, naive[i].server);
        EXPECT_EQ(fast[i].config, naive[i].config);
        EXPECT_EQ(fast[i].execPredicted, naive[i].execPredicted);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(fast[i].bounds.up, naive[i].bounds.up);
        EXPECT_EQ(fast[i].bounds.low, naive[i].bounds.low);
    }
}

/** Occupy the cluster with random allocations so classes fragment. */
void
randomOccupancy(Cluster &c, Rng &rng, double fill_probability)
{
    for (cluster::ServerId id = 0;
         id < static_cast<cluster::ServerId>(c.size()); ++id) {
        while (rng.uniform() < fill_probability) {
            Resources req{rng.uniformInt(0, 7) * 1000,
                          rng.uniformInt(0, 8) * 10,
                          rng.uniformInt(1, 32) * 1024};
            if (req.isZero() || !c.server(id).canFit(req))
                break;
            ASSERT_TRUE(c.allocate(id, req));
        }
    }
    ASSERT_TRUE(c.capacityIndex().consistentWith(c));
}

/** A copy of @p c with a record for every server. */
Cluster
fullyMaterialized(Cluster c)
{
    // Quarantining the top id materializes every server; lifting it
    // again restores the state.
    const auto top = static_cast<cluster::ServerId>(c.size() - 1);
    const bool quarantined = c.serverQuarantined(top);
    c.quarantineServer(top);
    if (!quarantined)
        c.liftQuarantine(top);
    return c;
}

/**
 * A fleet of 2 to 800 servers of one random shape, most of them never
 * touched: some of ids 0-3 carry an allocation, one server anywhere
 * (often far past the frontier) is allocated and half the time released
 * back to pristine, and the never-touched top id is crashed or
 * quarantined half the time.
 */
Cluster
mostlyUntouchedFleet(Rng &rng)
{
    static const Resources kShapes[] = {cluster::testbedServerCapacity(),
                                        {8'000, 100, 64 * 1024},
                                        {32'000, 0, 256 * 1024}};
    auto servers = static_cast<std::size_t>(rng.uniformInt(2, 800));
    Cluster c(servers, kShapes[rng.uniformInt(0, 2)]);
    const auto top = static_cast<cluster::ServerId>(servers - 1);
    auto request = [&] {
        return Resources{rng.uniformInt(1, 7) * 1000,
                         rng.uniformInt(0, 8) * 10,
                         rng.uniformInt(1, 32) * 1024};
    };
    for (cluster::ServerId id = 0; id <= std::min(top - 1, 3); ++id) {
        if (rng.uniform() < 0.5)
            c.allocate(id, request());
    }
    const auto far =
        static_cast<cluster::ServerId>(rng.uniformInt(0, top - 1));
    const Resources req = request();
    if (c.allocate(far, req) && rng.uniform() < 0.5)
        c.release(far, req);
    const double r = rng.uniform();
    if (r < 0.25)
        c.setServerDown(top);
    else if (r < 0.5)
        c.quarantineServer(top);
    return c;
}

/** @p lazy and @p full, the same state with every record built, answer
 *  alike: totals, fragment ratio (bit for bit) and classes. */
void
expectSameState(const Cluster &lazy, const Cluster &full,
                const std::string &context)
{
    EXPECT_EQ(lazy.totalAllocated(), full.totalAllocated()) << context;
    EXPECT_EQ(lazy.activeServers(), full.activeServers()) << context;
    EXPECT_EQ(lazy.fragmentRatio(), full.fragmentRatio()) << context;
    EXPECT_EQ(lazy.capacityIndex().classCount(),
              full.capacityIndex().classCount())
        << context;
    EXPECT_TRUE(lazy.capacityIndex().consistentWith(lazy)) << context;
}

struct EquivalenceFixture : ::testing::Test
{
    ExecModel exec;
    OpProfileDb db{exec};
    CopPredictor cop{db};
    const ModelZoo &zoo = ModelZoo::shared();

    void
    runRandomizedCases(const SchedulerConfig &cfg, std::uint64_t seed,
                       int cases)
    {
        GreedyScheduler sched(cop, cfg);
        Rng rng(seed);
        const std::vector<const char *> names = {
            "ResNet-50", "MobileNet", "VGGNet", "LSTM-2365", "TextCNN-69"};
        const std::vector<int> slos_ms = {50, 100, 200, 500};
        for (int i = 0; i < cases; ++i) {
            const auto &model = zoo.get(
                names[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(names.size()) - 1))]);
            auto slo = msToTicks(slos_ms[static_cast<std::size_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(slos_ms.size()) -
                                   1))]);
            double rps = rng.uniform(0.5, 3000.0);
            int max_batch = 1 << rng.uniformInt(0, 5);
            auto servers = rng.uniformInt(1, 24);

            Cluster base(static_cast<std::size_t>(servers));
            randomOccupancy(base, rng, 0.4);

            Cluster for_fast = base;
            Cluster for_naive = base;
            auto fast =
                sched.schedule(model, rps, slo, max_batch, for_fast);
            auto naive = sched.scheduleNaive(model, rps, slo, max_batch,
                                             for_naive);
            std::string context =
                std::string(model.name) + " slo=" + std::to_string(slo) +
                " rps=" + std::to_string(rps) +
                " b<=" + std::to_string(max_batch) +
                " servers=" + std::to_string(servers) +
                " case=" + std::to_string(i);
            expectIdenticalPlans(fast, naive, context);
            // Both trajectories leave the cluster in the same state.
            EXPECT_EQ(for_fast.totalAllocated(),
                      for_naive.totalAllocated())
                << context;
            EXPECT_TRUE(for_fast.capacityIndex().consistentWith(for_fast))
                << context;
        }
        // Mostly untouched fleets: the fast path on the lazy fleet must
        // also match the fast path on a copy with every record built.
        for (int i = 0; i < cases / 2; ++i) {
            const auto &model = zoo.get(
                names[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(names.size()) - 1))]);
            auto slo = msToTicks(
                slos_ms[static_cast<std::size_t>(rng.uniformInt(0, 3))]);
            double rps = rng.uniform(0.5, 3000.0);
            int max_batch = 1 << rng.uniformInt(0, 5);
            Cluster base = mostlyUntouchedFleet(rng);

            Cluster for_fast = base;
            Cluster for_naive = base;
            Cluster for_full = fullyMaterialized(base);
            auto fast =
                sched.schedule(model, rps, slo, max_batch, for_fast);
            auto naive = sched.scheduleNaive(model, rps, slo, max_batch,
                                             for_naive);
            auto full =
                sched.schedule(model, rps, slo, max_batch, for_full);
            std::string context =
                std::string(model.name) + " rps=" + std::to_string(rps) +
                " servers=" + std::to_string(base.size()) +
                " materialized=" + std::to_string(base.materialized()) +
                " untouched case=" + std::to_string(i);
            expectIdenticalPlans(fast, naive, context);
            expectIdenticalPlans(fast, full, context + " full");
            expectSameState(for_fast, for_full, context);
            EXPECT_EQ(for_naive.totalAllocated(), for_full.totalAllocated())
                << context;
        }
    }
};

TEST_F(EquivalenceFixture, DefaultConfig)
{
    runRandomizedCases(SchedulerConfig{}, 1234, 60);
}

TEST_F(EquivalenceFixture, LargestBatchFirst)
{
    SchedulerConfig cfg;
    cfg.largestBatchFirst = true;
    runRandomizedCases(cfg, 2345, 40);
}

TEST_F(EquivalenceFixture, ThroughputOnly)
{
    SchedulerConfig cfg;
    cfg.throughputOnly = true;
    runRandomizedCases(cfg, 3456, 40);
}

TEST_F(EquivalenceFixture, UncappedEfficiency)
{
    SchedulerConfig cfg;
    cfg.uncappedEfficiency = true;
    runRandomizedCases(cfg, 4567, 40);
}

TEST_F(EquivalenceFixture, NoFragmentFloor)
{
    SchedulerConfig cfg;
    cfg.noFragmentFloor = true;
    runRandomizedCases(cfg, 5678, 40);
}

TEST_F(EquivalenceFixture, PaperLiteralAlgorithmOne)
{
    SchedulerConfig cfg;
    cfg.largestBatchFirst = true;
    cfg.uncappedEfficiency = true;
    cfg.noFragmentFloor = true;
    runRandomizedCases(cfg, 6789, 40);
}

TEST_F(EquivalenceFixture, SpreadScoringMatchesNaive)
{
    // Failure-domain anti-affinity: with a topology and a live
    // SpreadContext, the fast path must still match the reference
    // bit-for-bit — including the context mutations (each placement
    // feeds back into the next placement's penalty). Cases from 40 on
    // also take servers down or quarantine them. The last 30 cases run
    // on mostly untouched fleets.
    SchedulerConfig cfg;
    cfg.spreadWeight = 0.5;
    GreedyScheduler sched(cop, cfg);
    Rng rng(7890);
    const std::vector<const char *> names = {"ResNet-50", "MobileNet",
                                             "VGGNet"};
    for (int i = 0; i < 80; ++i) {
        const bool unfiled = i >= 40;
        const auto &model = zoo.get(
            names[static_cast<std::size_t>(rng.uniformInt(0, 2))]);
        auto slo = msToTicks(100 + 100 * rng.uniformInt(0, 4));
        double rps = rng.uniform(0.5, 2000.0);
        auto servers = rng.uniformInt(2, 24);

        cluster::TopologyConfig topo;
        topo.zones = static_cast<std::int32_t>(rng.uniformInt(2, 4));
        topo.racksPerZone = static_cast<std::int32_t>(rng.uniformInt(1, 2));
        topo.rackSize = static_cast<std::int32_t>(rng.uniformInt(1, 3));

        Cluster base(static_cast<std::size_t>(servers));
        randomOccupancy(base, rng, 0.3);
        if (unfiled) {
            for (cluster::ServerId s = 0;
                 s < static_cast<cluster::ServerId>(servers); ++s) {
                double r = rng.uniform();
                if (r < 0.15)
                    base.setServerDown(s);
                else if (r < 0.3)
                    base.quarantineServer(s);
            }
        }

        infless::core::SpreadContext spread{topo};
        // Pre-existing replicas bias some domains before this pass.
        for (int k = 0; k < rng.uniformInt(0, 6); ++k)
            spread.add(static_cast<cluster::ServerId>(
                rng.uniformInt(0, servers - 1)));

        Cluster for_fast = base;
        Cluster for_naive = base;
        infless::core::SpreadContext fast_ctx = spread;
        infless::core::SpreadContext naive_ctx = spread;
        auto fast =
            sched.schedule(model, rps, slo, 32, for_fast, &fast_ctx);
        auto naive = sched.scheduleNaive(model, rps, slo, 32, for_naive,
                                         &naive_ctx);
        std::string context = std::string(model.name) +
                              " rps=" + std::to_string(rps) +
                              " servers=" + std::to_string(servers) +
                              " spread case=" + std::to_string(i) +
                              (unfiled ? " unfiled" : "");
        expectIdenticalPlans(fast, naive, context);
        EXPECT_EQ(fast_ctx.zoneCount, naive_ctx.zoneCount) << context;
        EXPECT_EQ(fast_ctx.rackCount, naive_ctx.rackCount) << context;
        EXPECT_EQ(for_fast.totalAllocated(), for_naive.totalAllocated())
            << context;
    }

    // Spread on mostly untouched fleets: the spread scan visits
    // pristine servers by value, and must match the naive scan and the
    // fast path on a copy with every record built.
    for (int i = 0; i < 30; ++i) {
        const auto &model = zoo.get(
            names[static_cast<std::size_t>(rng.uniformInt(0, 2))]);
        auto slo = msToTicks(100 + 100 * rng.uniformInt(0, 4));
        double rps = rng.uniform(0.5, 2000.0);
        Cluster base = mostlyUntouchedFleet(rng);
        cluster::TopologyConfig topo;
        topo.zones = static_cast<std::int32_t>(rng.uniformInt(2, 4));
        topo.racksPerZone = static_cast<std::int32_t>(rng.uniformInt(1, 2));
        topo.rackSize = static_cast<std::int32_t>(rng.uniformInt(1, 3));

        Cluster for_fast = base;
        Cluster for_naive = base;
        Cluster for_full = fullyMaterialized(base);
        infless::core::SpreadContext fast_ctx{topo};
        infless::core::SpreadContext naive_ctx{topo};
        infless::core::SpreadContext full_ctx{topo};
        auto fast =
            sched.schedule(model, rps, slo, 32, for_fast, &fast_ctx);
        auto naive = sched.scheduleNaive(model, rps, slo, 32, for_naive,
                                         &naive_ctx);
        auto full =
            sched.schedule(model, rps, slo, 32, for_full, &full_ctx);
        std::string context = std::string(model.name) +
                              " rps=" + std::to_string(rps) +
                              " servers=" + std::to_string(base.size()) +
                              " untouched spread case=" + std::to_string(i);
        expectIdenticalPlans(fast, naive, context);
        expectIdenticalPlans(fast, full, context + " full");
        EXPECT_EQ(fast_ctx.rackCount, naive_ctx.rackCount) << context;
        EXPECT_EQ(fast_ctx.rackCount, full_ctx.rackCount) << context;
        expectSameState(for_fast, for_full, context);
    }
}

TEST_F(EquivalenceFixture, LargeHomogeneousClusterSingleClass)
{
    GreedyScheduler sched(cop);
    const auto &model = zoo.get("ResNet-50");
    Cluster base(256);
    EXPECT_EQ(base.capacityIndex().classCount(), 1u);

    Cluster for_fast = base;
    Cluster for_naive = base;
    auto fast =
        sched.schedule(model, 5000.0, msToTicks(200), 32, for_fast);
    auto naive = sched.scheduleNaive(model, 5000.0, msToTicks(200), 32,
                                     for_naive);
    expectIdenticalPlans(fast, naive, "homogeneous-256");
    EXPECT_FALSE(fast.empty());
}

TEST_F(EquivalenceFixture, LongLivedSchedulerMatchesNaiveAcrossKeys)
{
    // One scheduler serves interleaved (model, SLO, batch cap) keys over
    // one fleet that its own plans and random releases keep changing, so
    // most calls read a pool memoized by an earlier call. ResNet-50 at
    // 200 ms and cap 32 has a neighbour differing in each key component
    // alone: the model (VGGNet), the SLO (100 ms) and the cap (4). Caps
    // 4 and 5 share a batch ladder under different keys; caps 32 and 64
    // clamp to the same model cap.
    GreedyScheduler sched(cop);
    Rng rng(9012);
    struct Key
    {
        const char *model;
        int sloMs;
        int maxBatch;
    };
    const std::vector<Key> keys = {
        {"ResNet-50", 200, 32}, {"ResNet-50", 200, 64},
        {"VGGNet", 200, 32},    {"ResNet-50", 100, 32},
        {"ResNet-50", 200, 4},  {"ResNet-50", 200, 5},
        {"MobileNet", 50, 8},   {"MobileNet", 50, 1},
        {"LSTM-2365", 100, 32}};
    Cluster fleet(40);
    randomOccupancy(fleet, rng, 0.3);
    std::vector<LaunchPlan> live;
    for (int i = 0; i < 120; ++i) {
        const Key &key = keys[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(keys.size()) - 1))];
        const auto &model = zoo.get(key.model);
        double rps = rng.uniform(0.5, 400.0);

        Cluster for_naive = fleet;
        auto fast = sched.schedule(model, rps, msToTicks(key.sloMs),
                                   key.maxBatch, fleet);
        auto naive = sched.scheduleNaive(model, rps, msToTicks(key.sloMs),
                                         key.maxBatch, for_naive);
        std::string context = std::string(key.model) +
                              " slo=" + std::to_string(key.sloMs) +
                              " b<=" + std::to_string(key.maxBatch) +
                              " rps=" + std::to_string(rps) +
                              " call=" + std::to_string(i);
        expectIdenticalPlans(fast, naive, context);
        EXPECT_EQ(fleet.totalAllocated(), for_naive.totalAllocated())
            << context;
        live.insert(live.end(), fast.begin(), fast.end());

        // Scale-in churn: release about a third of the live instances.
        for (std::size_t k = 0; k < live.size();) {
            if (rng.uniform() < 0.3) {
                fleet.release(live[k].server, live[k].config.resources);
                live[k] = live.back();
                live.pop_back();
            } else {
                ++k;
            }
        }
    }
}

TEST_F(EquivalenceFixture, DistortionChangeRebuildsPools)
{
    // A mispredicting profiler reprices every config. A scheduler whose
    // pools were built at another factor must plan exactly like a fresh
    // scheduler at the current one, when the factor rises and when it
    // is restored.
    GreedyScheduler memoized(cop);
    const auto &model = zoo.get("ResNet-50");
    const auto slo = msToTicks(200);
    Cluster base(16);
    std::vector<LaunchPlan> at_faithful;
    for (double factor : {1.0, 1.5, 1.0}) {
        cop.setDistortion(factor);
        Cluster for_memoized = base;
        Cluster for_fresh = base;
        auto plans = memoized.schedule(model, 900.0, slo, 32, for_memoized);
        GreedyScheduler fresh(cop);
        auto expected = fresh.schedule(model, 900.0, slo, 32, for_fresh);
        std::string context = "distortion=" + std::to_string(factor);
        expectIdenticalPlans(plans, expected, context);
        ASSERT_FALSE(plans.empty()) << context;
        if (at_faithful.empty()) {
            at_faithful = plans;
        } else if (factor != 1.0) {
            EXPECT_NE(plans.front().execPredicted,
                      at_faithful.front().execPredicted)
                << context;
        }
    }
}

/**
 * Occupancy in 500-millicore and 5-SM steps: a fifth of the servers
 * untouched, about a third drained of nearly all CPU but left with GPU,
 * the rest anywhere. Memory takes three values, so most classes hold a
 * few servers: hundreds of classes spread over many CPU levels.
 */
void
fineGrainedOccupancy(Cluster &c, Rng &rng)
{
    for (cluster::ServerId id = 0;
         id < static_cast<cluster::ServerId>(c.size()); ++id) {
        const Resources cap = c.server(id).capacity();
        double kind = rng.uniform();
        Resources req;
        if (kind < 0.2) {
            continue;
        } else if (kind < 0.55) {
            req = Resources{cap.cpuMillicores - rng.uniformInt(0, 3) * 500,
                            rng.uniformInt(0, 20) * 5,
                            rng.uniformInt(0, 2) * 32 * 1024};
        } else {
            req = Resources{rng.uniformInt(0, 32) * 500,
                            rng.uniformInt(0, 40) * 5,
                            rng.uniformInt(0, 2) * 32 * 1024};
        }
        if (!req.isZero() && c.server(id).canFit(req)) {
            ASSERT_TRUE(c.allocate(id, req));
        }
    }
    ASSERT_TRUE(c.capacityIndex().consistentWith(c));
}

TEST_F(EquivalenceFixture, ManyClassesOverManyCpuLevels)
{
    // The covering scan skips whole CPU levels and the tails of levels;
    // on fleets with hundreds of classes it must still match the naive
    // scan bit for bit under every ablation flag.
    SchedulerConfig largest_batch;
    largest_batch.largestBatchFirst = true;
    SchedulerConfig throughput_only;
    throughput_only.throughputOnly = true;
    SchedulerConfig uncapped;
    uncapped.uncappedEfficiency = true;
    SchedulerConfig no_floor;
    no_floor.noFragmentFloor = true;
    SchedulerConfig paper_literal = largest_batch;
    paper_literal.uncappedEfficiency = true;
    paper_literal.noFragmentFloor = true;
    const std::vector<SchedulerConfig> configs = {
        SchedulerConfig{}, largest_batch, throughput_only,
        uncapped,          no_floor,      paper_literal};

    Rng rng(8901);
    const std::vector<const char *> names = {"ResNet-50", "MobileNet",
                                             "VGGNet", "LSTM-2365"};
    for (std::size_t k = 0; k < configs.size(); ++k) {
        GreedyScheduler sched(cop, configs[k]);
        for (int i = 0; i < 3; ++i) {
            auto servers = rng.uniformInt(500, 2000);
            Cluster base(static_cast<std::size_t>(servers));
            fineGrainedOccupancy(base, rng);
            std::set<std::int64_t> cpu_levels;
            base.capacityIndex().forEachCoveringClass(
                Resources{}, cluster::kDefaultBeta,
                [&](const Resources &avail, double, cluster::ServerId,
                    std::size_t) {
                    cpu_levels.insert(avail.cpuMillicores);
                    return true;
                });
            EXPECT_GE(base.capacityIndex().classCount(), 200u);
            EXPECT_GE(cpu_levels.size(), 25u);

            const auto &model = zoo.get(
                names[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(names.size()) - 1))]);
            auto slo = msToTicks(100 + 100 * rng.uniformInt(0, 3));
            double rps = rng.uniform(500.0, 6000.0);
            int max_batch = 1 << rng.uniformInt(0, 5);

            Cluster for_fast = base;
            Cluster for_naive = base;
            auto fast =
                sched.schedule(model, rps, slo, max_batch, for_fast);
            auto naive = sched.scheduleNaive(model, rps, slo, max_batch,
                                             for_naive);
            std::string context =
                std::string(model.name) + " rps=" + std::to_string(rps) +
                " servers=" + std::to_string(servers) +
                " config=" + std::to_string(k) +
                " case=" + std::to_string(i);
            expectIdenticalPlans(fast, naive, context);
            EXPECT_FALSE(fast.empty()) << context;
            EXPECT_EQ(for_fast.totalAllocated(),
                      for_naive.totalAllocated())
                << context;
        }
    }
}

TEST_F(EquivalenceFixture, FloorBandTieAcrossCpuLevelsGoesToLowestId)
{
    // One candidate: b=1, 1 core, 10 SMs. Server 5 is left with exactly
    // that (CPU level 1000), server 2 with 1.5 cores and 10 SMs (CPU
    // level 1500). Both lie in the fragment-floor band, so their e is
    // equal, and the lower id on the higher level must win even though
    // the lower level is scanned first.
    SchedulerConfig cfg;
    cfg.cpuChoices = {1000};
    cfg.gpuChoices = {10};
    GreedyScheduler sched(cop, cfg);
    const auto &model = zoo.get("ResNet-50");
    const Resources cap = cluster::testbedServerCapacity();

    Cluster base(8);
    ASSERT_TRUE(base.allocate(
        5, Resources{cap.cpuMillicores - 1000, cap.gpuSmPercent - 10, 0}));
    ASSERT_TRUE(base.allocate(
        2, Resources{cap.cpuMillicores - 1500, cap.gpuSmPercent - 10, 0}));
    const double cost = Resources{1000, 10, 0}.weighted(cluster::kDefaultBeta);
    for (cluster::ServerId id : {2, 5}) {
        double w = base.server(id).available().weighted(cluster::kDefaultBeta);
        ASSERT_LE(1.0 - cost / w, 0.05) << "server " << id;
    }

    Cluster for_fast = base;
    Cluster for_naive = base;
    auto fast = sched.schedule(model, 1.0, msToTicks(500), 1, for_fast);
    auto naive =
        sched.scheduleNaive(model, 1.0, msToTicks(500), 1, for_naive);
    expectIdenticalPlans(fast, naive, "floor-band tie");
    ASSERT_EQ(fast.size(), 1u);
    EXPECT_EQ(fast[0].server, 2);
}

} // namespace
