/**
 * @file
 * The compact ideal-fleet probe must equal the full-fleet probe.
 *
 * GreedyScheduler::scheduleOnEmpty() answers "what would Algorithm 1
 * place on an empty copy of this fleet?" from the lowest-id `cap`
 * servers of each capacity instead of a copy of every server. Over
 * heterogeneous capacity mixes (zero-capacity slots included), zoo
 * models, SLOs and rates from 1 rps to saturation, it must
 * return the same (config, bounds, execPredicted) sequence as schedule()
 * on an empty cluster of every server's capacity.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
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

/** Same plans up to server ids (the compact fleet renumbers servers). */
void
expectSamePlans(const std::vector<LaunchPlan> &compact,
                const std::vector<LaunchPlan> &full,
                const std::string &context)
{
    ASSERT_EQ(compact.size(), full.size()) << context;
    for (std::size_t i = 0; i < compact.size(); ++i) {
        SCOPED_TRACE(context + " plan #" + std::to_string(i));
        EXPECT_EQ(compact[i].config, full[i].config);
        EXPECT_EQ(compact[i].execPredicted, full[i].execPredicted);
        EXPECT_EQ(compact[i].bounds.up, full[i].bounds.up);
        EXPECT_EQ(compact[i].bounds.low, full[i].bounds.low);
    }
}

/** Machine shapes, a zero-capacity slot among them. */
Resources
randomCapacity(Rng &rng)
{
    static const Resources kShapes[] = {
        {16'000, 200, 128 * 1024}, {8'000, 100, 64 * 1024},
        {32'000, 0, 256 * 1024},   {4'000, 50, 16 * 1024},
        {2'000, 30, 8 * 1024},     {},
    };
    return kShapes[rng.uniformInt(0, 5)];
}

struct CompactProbeFixture : ::testing::Test
{
    ExecModel exec;
    OpProfileDb db{exec};
    CopPredictor cop{db};
    const ModelZoo &zoo = ModelZoo::shared();

    /** Full-fleet reference: schedule() on an empty copy of every slot. */
    std::vector<LaunchPlan>
    fullProbe(const GreedyScheduler &sched,
              const infless::models::ModelInfo &model, double rps,
              infless::sim::Tick slo, int max_batch, const Cluster &fleet)
    {
        std::vector<Resources> caps;
        fleet.forEachServer([&](const cluster::Server &s) {
            caps.push_back(s.capacity());
        });
        Cluster scratch(caps);
        return sched.schedule(model, rps, slo, max_batch, scratch);
    }

    /** @return How many cases placed >= 32 plans (forced a doubling). */
    int
    runRandomizedCases(const SchedulerConfig &cfg, std::uint64_t seed,
                       int cases)
    {
        GreedyScheduler sched(cop, cfg);
        Rng rng(seed);
        const std::vector<int> slos_ms = {50, 100, 200, 500};
        int doubled = 0;
        for (int i = 0; i < cases; ++i) {
            const auto &model = zoo.all()[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      zoo.all().size()) - 1))];
            auto slo = msToTicks(slos_ms[static_cast<std::size_t>(
                rng.uniformInt(0, 3))]);
            // Log-uniform from 1 rps to far past what the fleet holds.
            double rps = std::exp(rng.uniform(0.0, std::log(40'000.0)));
            int max_batch = 1 << rng.uniformInt(0, 5);

            auto n = static_cast<std::size_t>(rng.uniformInt(1, 160));
            std::vector<Resources> caps;
            for (std::size_t s = 0; s < n; ++s)
                caps.push_back(randomCapacity(rng));
            Cluster fleet(caps);
            // The live fleet's own state must not matter: busy, crashed
            // and quarantined servers all appear.
            for (cluster::ServerId id = 0;
                 id < static_cast<cluster::ServerId>(n); ++id) {
                double u = rng.uniform();
                if (u < 0.15 && !fleet.server(id).capacity().isZero()) {
                    fleet.allocate(id, Resources{500, 0, 1024});
                } else if (u < 0.20) {
                    fleet.setServerDown(id);
                } else if (u < 0.25) {
                    fleet.quarantineServer(id);
                }
            }

            auto compact =
                sched.scheduleOnEmpty(model, rps, slo, max_batch, fleet);
            auto full = fullProbe(sched, model, rps, slo, max_batch, fleet);
            expectSamePlans(compact, full,
                            std::string(model.name) +
                                " slo=" + std::to_string(slo) +
                                " rps=" + std::to_string(rps) +
                                " b<=" + std::to_string(max_batch) +
                                " servers=" + std::to_string(n) +
                                " case=" + std::to_string(i));
            doubled += full.size() >= 32 ? 1 : 0;
        }
        return doubled;
    }
};

TEST_F(CompactProbeFixture, DefaultConfigMatchesFullFleet)
{
    EXPECT_GT(runRandomizedCases(SchedulerConfig{}, 4242, 120), 0);
}

TEST_F(CompactProbeFixture, ThroughputOnlyMatchesFullFleet)
{
    // First-fit placement: the lowest-id fitting server must map too.
    SchedulerConfig cfg;
    cfg.throughputOnly = true;
    runRandomizedCases(cfg, 5353, 60);
}

TEST_F(CompactProbeFixture, PaperLiteralMatchesFullFleet)
{
    SchedulerConfig cfg;
    cfg.largestBatchFirst = true;
    cfg.uncappedEfficiency = true;
    cfg.noFragmentFloor = true;
    runRandomizedCases(cfg, 6464, 60);
}

TEST_F(CompactProbeFixture, SaturationDoublesUntilWholeFleet)
{
    // 300 small servers of one shape after three zero slots: a
    // saturating rate places far more than the first cap of 32 plans, so
    // the probe doubles to 64, 128, 256 and finally the whole fleet.
    GreedyScheduler sched(cop);
    std::vector<Resources> caps(3, Resources{});
    caps.resize(303, Resources{4'000, 50, 16 * 1024});
    Cluster fleet(caps);
    const auto &model = zoo.get("MobileNet");
    auto slo = msToTicks(200);
    auto compact = sched.scheduleOnEmpty(model, 1e8, slo, 32, fleet);
    auto full = fullProbe(sched, model, 1e8, slo, 32, fleet);
    EXPECT_GT(full.size(), 256u);
    expectSamePlans(compact, full, "saturated-300");
}

TEST_F(CompactProbeFixture, LowRateOnLargeFleetMatches)
{
    // The common case: a few plans on a big homogeneous fleet, answered
    // from the first 32 servers alone.
    GreedyScheduler sched(cop);
    Cluster fleet(20'000);
    const auto &model = zoo.get("ResNet-50");
    for (double rps : {1.0, 40.0, 400.0}) {
        auto compact =
            sched.scheduleOnEmpty(model, rps, msToTicks(200), 32, fleet);
        auto full = fullProbe(sched, model, rps, msToTicks(200), 32, fleet);
        EXPECT_LT(full.size(), 32u);
        expectSamePlans(compact, full, "rps=" + std::to_string(rps));
    }
}

} // namespace
