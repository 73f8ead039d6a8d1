/**
 * @file
 * Crash edge cases of the failure-aware control plane: crash mid-startup,
 * crash of an idle server, double-crash idempotency, retry exhaustion,
 * recovery, and the zero-rate-profile regression guarantee.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cluster/instance.hh"
#include "core/platform.hh"
#include "faults/domain_outage.hh"
#include "faults/retry_policy.hh"
#include "obs/slo_monitor.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/generators.hh"

namespace {

using infless::cluster::InstanceState;
using infless::cluster::ServerId;
using infless::core::FunctionSpec;
using infless::core::Platform;
using infless::core::PlatformOptions;
using infless::faults::RetryPolicy;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;
using infless::sim::Tick;
using infless::workload::uniformArrivals;

FunctionSpec
resnetSpec(Tick slo = msToTicks(200))
{
    FunctionSpec spec;
    spec.name = "resnet";
    spec.model = "ResNet-50";
    spec.sloTicks = slo;
    return spec;
}

TEST(PlatformFaultTest, CrashMidStartupKillsColdInstance)
{
    Platform p(4);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(50.0, 30 * kTicksPerSec));

    // The default cold start is ~1.5s+: shortly after the first arrival
    // the reactive scale-out has launched instances that are still cold.
    p.run(msToTicks(200));
    auto snapshots = p.instanceSnapshots(fn);
    ASSERT_FALSE(snapshots.empty());
    ASSERT_EQ(snapshots[0].state, InstanceState::ColdStarting);
    ServerId victim = snapshots[0].server;
    int live_before = p.liveInstanceCount(fn);

    p.injectServerCrash(victim);
    EXPECT_LT(p.liveInstanceCount(fn), live_before);
    EXPECT_EQ(p.totalMetrics().serverCrashes(), 1);

    // The pending onWarm event must dead-letter, not revive the corpse.
    p.run(35 * kTicksPerSec);
    const auto &m = p.totalMetrics();
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    EXPECT_GT(m.completions(), 0);
}

TEST(PlatformFaultTest, CrashOfIdleServerIsHarmless)
{
    Platform p(4);
    p.deploy(resnetSpec());
    // No traffic: no server hosts anything. Crashing one must not drop,
    // retry, or lose anything.
    p.run(kTicksPerSec);
    p.injectServerCrash(2);
    p.run(2 * kTicksPerSec);

    const auto &m = p.totalMetrics();
    EXPECT_EQ(m.serverCrashes(), 1);
    EXPECT_EQ(m.drops(), 0);
    EXPECT_EQ(m.retries(), 0);
    EXPECT_EQ(m.lostBatchRequests(), 0);
    EXPECT_EQ(p.cluster().downServers(), 1u);
    EXPECT_LT(p.clusterAvailability(), 1.0);
}

TEST(PlatformFaultTest, DoubleCrashIsIdempotent)
{
    Platform p(4);
    p.deploy(resnetSpec());
    p.run(kTicksPerSec);

    p.injectServerCrash(1);
    p.injectServerCrash(1); // second crash of a down server: no-op
    EXPECT_EQ(p.totalMetrics().serverCrashes(), 1);
    EXPECT_EQ(p.cluster().downServers(), 1u);

    p.injectServerRecovery(1);
    p.injectServerRecovery(1); // double recovery: no-op
    EXPECT_EQ(p.totalMetrics().serverRecoveries(), 1);
    EXPECT_EQ(p.cluster().downServers(), 0u);

    // A later, genuine second crash is counted again.
    p.injectServerCrash(1);
    EXPECT_EQ(p.totalMetrics().serverCrashes(), 2);
}

TEST(PlatformFaultTest, RecoveryRestoresCapacity)
{
    Platform p(2);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(40.0, kTicksPerMin));

    p.run(5 * kTicksPerSec);
    p.injectServerCrash(0);
    p.injectServerCrash(1);
    EXPECT_EQ(p.liveInstanceCount(), 0);
    EXPECT_EQ(p.cluster().downServers(), 2u);

    // A real outage takes wall time; time-to-restore must reflect it.
    p.run(10 * kTicksPerSec);
    p.injectServerRecovery(0);
    p.injectServerRecovery(1);
    EXPECT_EQ(p.cluster().downServers(), 0u);
    EXPECT_GT(p.totalMetrics().meanRestoreTicks(), 0);

    // With capacity restored the scaler re-provisions and traffic flows.
    p.run(kTicksPerMin + 10 * kTicksPerSec);
    const auto &m = p.totalMetrics();
    EXPECT_GT(m.completions(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    EXPECT_GT(p.liveInstanceCount(), 0);
}

/**
 * The availability formula as it stood when every server carried a
 * crash-start slot: completed downtime plus, per server in id order, the
 * open outage up to the horizon. Fed the same crash/recovery script as
 * the platform.
 */
class ReferenceAvailability
{
  public:
    explicit ReferenceAvailability(std::size_t servers)
        : downSince_(servers, infless::sim::kTickNever)
    {
    }

    void
    crash(ServerId id, Tick now)
    {
        Tick &since = downSince_[static_cast<std::size_t>(id)];
        if (since == infless::sim::kTickNever)
            since = now;
    }

    void
    recover(ServerId id, Tick now)
    {
        Tick &since = downSince_[static_cast<std::size_t>(id)];
        if (since != infless::sim::kTickNever) {
            accum_ += now - since;
            since = infless::sim::kTickNever;
        }
    }

    double
    at(Tick until) const
    {
        if (until <= 0)
            return 1.0;
        Tick down = accum_;
        for (Tick since : downSince_) {
            if (since != infless::sim::kTickNever && since < until)
                down += until - since;
        }
        double total = static_cast<double>(until) *
                       static_cast<double>(downSince_.size());
        return 1.0 - static_cast<double>(down) / total;
    }

  private:
    std::vector<Tick> downSince_;
    Tick accum_ = 0;
};

TEST(PlatformFaultTest, AvailabilityMatchesPerServerFormulaOnAScript)
{
    constexpr std::size_t kServers = 6;
    Platform p(kServers);
    p.deploy(resnetSpec());
    ReferenceAvailability ref(kServers);
    EXPECT_EQ(p.clusterAvailability(), 1.0);

    enum class Op { Crash, Recover };
    struct Step
    {
        Tick at;
        Op op;
        ServerId server;
    };
    const std::vector<Step> script = {
        {kTicksPerSec, Op::Crash, 2},
        {kTicksPerSec, Op::Crash, 2},       // double crash: no-op
        {2 * kTicksPerSec, Op::Recover, 4}, // recovery with no crash
        {3 * kTicksPerSec, Op::Crash, 0},
        {3 * kTicksPerSec, Op::Crash, 5},
        {4 * kTicksPerSec, Op::Recover, 2},
        {4 * kTicksPerSec, Op::Recover, 2}, // double recovery: no-op
        {5 * kTicksPerSec, Op::Crash, 2},   // second outage of server 2
        {6 * kTicksPerSec, Op::Recover, 0},
    };
    for (const Step &step : script) {
        p.run(step.at);
        if (step.op == Op::Crash) {
            p.injectServerCrash(step.server);
            ref.crash(step.server, step.at);
        } else {
            p.injectServerRecovery(step.server);
            ref.recover(step.server, step.at);
        }
        EXPECT_EQ(p.clusterAvailability(), ref.at(step.at));
    }
    // Servers 2 and 5 are still down at the horizon.
    const Tick horizon = 8 * kTicksPerSec;
    p.run(horizon);
    EXPECT_EQ(p.cluster().downServers(), 2u);
    EXPECT_EQ(p.clusterAvailability(), ref.at(horizon));
    EXPECT_LT(p.clusterAvailability(), 1.0);
}

TEST(PlatformFaultTest, AvailabilityMatchesPerServerFormulaOnRandomScripts)
{
    constexpr std::size_t kServers = 8;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Platform p(kServers);
        p.deploy(resnetSpec());
        ReferenceAvailability ref(kServers);
        infless::sim::Rng rng(seed);
        Tick now = 0;
        for (int step = 0; step < 60; ++step) {
            // Several operations may share a tick.
            now += rng.uniformInt(0, 2) * msToTicks(250);
            p.run(now);
            auto id = static_cast<ServerId>(
                rng.uniformInt(0, static_cast<std::int64_t>(kServers) - 1));
            if (rng.bernoulli(0.5)) {
                p.injectServerCrash(id);
                ref.crash(id, now);
            } else {
                p.injectServerRecovery(id);
                ref.recover(id, now);
            }
            EXPECT_EQ(p.clusterAvailability(), ref.at(now))
                << "seed " << seed << " step " << step;
        }
        p.run(now + kTicksPerSec);
        EXPECT_EQ(p.clusterAvailability(), ref.at(now + kTicksPerSec))
            << "seed " << seed;
    }
}

TEST(PlatformFaultTest, RetryExhaustionCountsExactlyOneDrop)
{
    PlatformOptions opts;
    opts.retry.maxAttempts = 2; // one retry per request
    Platform p(2, opts);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(60.0, 20 * kTicksPerSec));

    // Let requests queue, then take the whole cluster down and keep it
    // down: the in-flight/queued requests retry once, find no capacity,
    // and must then be dropped exactly once each.
    p.run(5 * kTicksPerSec);
    p.injectServerCrash(0);
    p.injectServerCrash(1);
    p.run(30 * kTicksPerSec);

    const auto &m = p.totalMetrics();
    EXPECT_GT(m.retries(), 0);
    EXPECT_GT(m.drops(), 0);
    // Conservation is the exactly-once guarantee: a double-counted drop
    // (or a vanished request) breaks the identity.
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    // Nothing completed after the crash, so no failovers succeeded.
    EXPECT_EQ(m.failovers(), 0);
}

TEST(PlatformFaultTest, RetriesDisabledDropsImmediately)
{
    PlatformOptions opts;
    opts.retry = RetryPolicy::none();
    Platform p(2, opts);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(60.0, 20 * kTicksPerSec));

    p.run(5 * kTicksPerSec);
    std::int64_t drops_before = p.totalMetrics().drops();
    p.injectServerCrash(0);
    p.injectServerCrash(1);
    // Queued and in-flight requests drop synchronously with the crash.
    EXPECT_GT(p.totalMetrics().drops(), drops_before);
    EXPECT_EQ(p.totalMetrics().retries(), 0);

    p.run(30 * kTicksPerSec);
    const auto &m = p.totalMetrics();
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(PlatformFaultTest, LostBatchRequestsAreFailedOver)
{
    Platform p(2); // default retry policy: 3 attempts
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(60.0, kTicksPerMin));

    // Crash while batches are executing: in-flight requests are lost,
    // failed over, and (on the surviving server) completed.
    p.run(10 * kTicksPerSec);
    auto snapshots = p.instanceSnapshots(fn);
    ASSERT_FALSE(snapshots.empty());
    p.injectServerCrash(snapshots[0].server);
    p.run(20 * kTicksPerSec);
    p.injectServerRecovery(snapshots[0].server);
    p.run(kTicksPerMin + 10 * kTicksPerSec);

    const auto &m = p.totalMetrics();
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    EXPECT_GT(m.retries(), 0);
    EXPECT_GT(m.failovers(), 0);
    // Successful failovers can't exceed re-dispatches.
    EXPECT_LE(m.failovers(), m.retries());
}

TEST(PlatformFaultTest, CrashMidBatchFailsOverTheRunningBatch)
{
    Platform p(2);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(60.0, kTicksPerMin));

    // Step past the cold start until some instance is executing a batch,
    // then crash its server: the running batch is the one at stake.
    ServerId victim = infless::cluster::kNoServer;
    Tick now = 0;
    while (victim == infless::cluster::kNoServer &&
           now < 30 * kTicksPerSec) {
        now += msToTicks(1);
        p.run(now);
        for (const auto &s : p.instanceSnapshots(fn)) {
            if (s.state == InstanceState::Busy) {
                victim = s.server;
                break;
            }
        }
    }
    ASSERT_NE(victim, infless::cluster::kNoServer);
    p.injectServerCrash(victim);
    EXPECT_GT(p.totalMetrics().lostBatchRequests(), 0);

    p.run(now + 20 * kTicksPerSec);
    p.injectServerRecovery(victim);
    p.run(kTicksPerMin + 30 * kTicksPerSec);

    const auto &m = p.totalMetrics();
    EXPECT_GT(m.lostBatchRequests(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(PlatformFaultTest, ZeroRateProfileIsBitIdentical)
{
    // The regression guarantee: a fault profile with every rate zero (and
    // any retry policy) must reproduce the default run bit-for-bit.
    auto run = [](PlatformOptions opts) {
        Platform p(4, std::move(opts));
        auto fn = p.deploy(resnetSpec());
        p.injectTrace(fn, uniformArrivals(80.0, kTicksPerMin));
        p.run(kTicksPerMin + 10 * kTicksPerSec);
        const auto &m = p.totalMetrics();
        return std::tuple(m.arrivals(), m.completions(), m.drops(),
                          m.batches(), m.launches(), m.sloViolations(),
                          m.latency().mean(), m.latency().percentile(99),
                          m.queueTime().mean(), p.totalLaunches(),
                          p.meanFragmentRatio());
    };

    PlatformOptions defaults;
    PlatformOptions zeroed;
    zeroed.faults.serverMtbfSec = 0.0;
    zeroed.faults.startupFailureProb = 0.0;
    zeroed.retry.maxAttempts = 5; // retry config alone must not matter

    EXPECT_EQ(run(defaults), run(zeroed));
}

TEST(PlatformDomainTest, ScriptedOutageCrashesAndRepairsWholeZone)
{
    PlatformOptions opts;
    opts.topology.zones = 2;
    opts.topology.racksPerZone = 1;
    opts.topology.rackSize = 2; // zone 0 = {0,1}, zone 1 = {2,3}
    opts.faults.domainOutageAt = 10 * kTicksPerSec;
    opts.faults.domainOutageTarget = 0;
    opts.faults.domainOutageMttrSec = 5.0;

    Platform p(4, opts);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(60.0, 40 * kTicksPerSec));

    p.run(10 * kTicksPerSec + 1);
    // The whole zone went down together; the other zone is untouched.
    EXPECT_TRUE(p.cluster().serverDown(0));
    EXPECT_TRUE(p.cluster().serverDown(1));
    EXPECT_FALSE(p.cluster().serverDown(2));
    EXPECT_FALSE(p.cluster().serverDown(3));
    EXPECT_EQ(p.totalMetrics().domainOutages(), 1);
    EXPECT_EQ(p.totalMetrics().serverCrashes(), 2);

    // ...and it repairs together after the scripted MTTR.
    p.run(15 * kTicksPerSec + 1);
    EXPECT_EQ(p.cluster().downServers(), 0u);
    EXPECT_EQ(p.totalMetrics().serverRecoveries(), 2);

    p.run(50 * kTicksPerSec);
    const auto &m = p.totalMetrics();
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    EXPECT_GT(m.completions(), 0);
}

TEST(PlatformDomainTest, ZeroRackTopologyIsDisabled)
{
    // Any zero dimension disables the topology: no server gets a
    // domain, and spread scoring on top of it changes nothing.
    auto run = [](PlatformOptions opts) {
        Platform p(4, std::move(opts));
        auto fn = p.deploy(resnetSpec());
        p.injectTrace(fn, uniformArrivals(80.0, 20 * kTicksPerSec));
        p.run(30 * kTicksPerSec);
        const auto &m = p.totalMetrics();
        EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
        return std::tuple(m.arrivals(), m.completions(), m.drops(),
                          m.launches(), m.latency().mean(),
                          p.meanFragmentRatio());
    };

    PlatformOptions zero_racks;
    zero_racks.topology.zones = 3;
    zero_racks.topology.racksPerZone = 0;
    zero_racks.scheduler.spreadWeight = 0.5;
    EXPECT_EQ(run(zero_racks), run(PlatformOptions{}));
}

TEST(PlatformDomainTest, OutageOnDisabledTopologyIsRejected)
{
    // Zones without racks of any size: the topology is disabled, so a
    // zone outage would crash no server. The platform refuses it
    // instead of counting an outage that has no effect.
    PlatformOptions opts;
    opts.topology.zones = 2;
    opts.topology.rackSize = 0;
    opts.faults.domainOutageAt = kTicksPerSec;
    EXPECT_THROW(Platform(4, opts), infless::sim::PanicError);

    opts.faults.domainOutageAt = infless::sim::kTickNever;
    opts.faults.domainOutageMtbfSec = 60.0;
    EXPECT_THROW(Platform(4, opts), infless::sim::PanicError);
}

TEST(PlatformDomainTest, SetGrayMultiplierRejectsUnknownServersAndSpeedups)
{
    Platform p(4);
    p.setGrayMultiplier(3, 4.0);
    EXPECT_EQ(p.grayMultiplier(3), 4.0);
    EXPECT_EQ(p.grayMultiplier(0), 1.0);
    EXPECT_THROW(p.setGrayMultiplier(-1, 2.0), infless::sim::PanicError);
    EXPECT_THROW(p.setGrayMultiplier(4, 2.0), infless::sim::PanicError);
    EXPECT_THROW(p.setGrayMultiplier(0, 0.5), infless::sim::PanicError);
}

TEST(PlatformDomainTest, GrayProfileOutOfRangePanics)
{
    auto build = [](double fraction, double factor) {
        PlatformOptions opts;
        opts.faults.grayFraction = fraction;
        opts.faults.grayFactor = factor;
        Platform p(2, std::move(opts));
    };
    EXPECT_NO_THROW(build(1.0, 1.0));
    EXPECT_THROW(build(-0.1, 4.0), infless::sim::PanicError);
    EXPECT_THROW(build(1.5, 4.0), infless::sim::PanicError);
    EXPECT_THROW(build(0.5, 0.5), infless::sim::PanicError);
}

TEST(PlatformDomainTest, GrayServerIsDetectedEjectedAndReadmitted)
{
    PlatformOptions opts;
    opts.faults.grayFraction = 0.4;
    opts.faults.grayFactor = 4.0;
    // Pick a seed whose gray draw hits server 0 — the first machine the
    // greedy packer fills, so the gray machine actually serves work.
    while (infless::faults::grayExecMultiplier(opts.faults, opts.seed,
                                               0) == 1.0)
        ++opts.seed;
    opts.health.enabled = true;

    Platform p(6, opts);
    EXPECT_EQ(p.grayMultiplier(0), 4.0);
    auto fn = p.deploy(resnetSpec());
    // Long enough for the 60 s probation to expire mid-run.
    p.injectTrace(fn, uniformArrivals(80.0, 150 * kTicksPerSec));
    p.run(160 * kTicksPerSec);

    const auto &m = p.totalMetrics();
    // The health engine spotted the silent slowdown and quarantined the
    // machine (a gray detection: its multiplier exceeds 1).
    EXPECT_GT(m.healthEjections(), 0);
    EXPECT_GT(m.grayDetections(), 0);
    ASSERT_NE(p.healthEjector(), nullptr);
    EXPECT_GT(p.healthEjector()->ejections(), 0);
    // Probation expired at least once mid-run: it came back (and, still
    // gray, re-ejected on fresh evidence).
    EXPECT_GT(m.healthReadmissions(), 0);
    // The guard held: floor(0.2 * 6) = 1 quarantine slot.
    EXPECT_LE(p.quarantinedServers(), 1u);
    // Quarantine is drain-first, never drop: conservation holds.
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
}

TEST(PlatformDomainTest, TopologyAloneIsBitIdentical)
{
    // Assigning domains without enabling spread scoring or health must
    // reproduce the default run bit-for-bit: the topology is pure
    // bookkeeping until a consumer is switched on.
    auto run = [](PlatformOptions opts) {
        Platform p(4, std::move(opts));
        auto fn = p.deploy(resnetSpec());
        p.injectTrace(fn, uniformArrivals(80.0, kTicksPerMin));
        p.run(kTicksPerMin + 10 * kTicksPerSec);
        const auto &m = p.totalMetrics();
        return std::tuple(m.arrivals(), m.completions(), m.drops(),
                          m.batches(), m.launches(), m.sloViolations(),
                          m.latency().mean(), m.latency().percentile(99),
                          m.queueTime().mean(), p.totalLaunches(),
                          p.meanFragmentRatio());
    };

    PlatformOptions with_topology;
    with_topology.topology.zones = 2;
    with_topology.topology.rackSize = 2;
    EXPECT_EQ(run(PlatformOptions{}), run(with_topology));
}

// A burn-rate alert raised by a zone outage must blame the latency on
// capacity loss — cold starts and queueing on the survivors — not on
// execution, which never slowed down.
TEST(PlatformDomainTest, OutageAlertAttributesColdAndQueueNotExec)
{
    PlatformOptions opts;
    opts.topology.zones = 2;
    opts.topology.rackSize = 2;
    opts.faults.domainOutageAt = 20 * kTicksPerSec;
    opts.faults.domainOutageTarget = 0;
    opts.faults.domainOutageMttrSec = 15.0;
    opts.obs.slo.enabled = true;

    Platform p(4, opts);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(60.0, 60 * kTicksPerSec));
    p.run(70 * kTicksPerSec);

    // The budget bled during the outage, loudly enough to page.
    ASSERT_GT(p.sloMonitor().alertsFired(), 0);
    bool post_outage_alert = false;
    for (const auto &alert : p.sloMonitor().alerts())
        post_outage_alert =
            post_outage_alert ||
            (alert.edge == infless::obs::AlertEdge::Firing &&
             alert.at > opts.faults.domainOutageAt);
    EXPECT_TRUE(post_outage_alert);

    // Attribution: against the pre-outage steady state, the damage is
    // cold-start + queue time (the capacity hole) — execution itself
    // never slowed down, so its per-completion share stays flat.
    double pre_cq = 0.0, pre_exec = 0.0, pre_n = 0.0;
    double out_cq = 0.0, out_exec = 0.0, out_n = 0.0;
    for (const auto &row : p.sloMonitor().closed(fn)) {
        if (row.completions == 0)
            continue;
        // Baseline: the steady state between the deploy-time warmup
        // (cold starts at t=0 bleed into the first windows) and the
        // outage.
        if (row.start >= 10 * kTicksPerSec &&
            row.start + infless::obs::kSloWindowTicks <=
                opts.faults.domainOutageAt) {
            pre_cq += row.coldSum + row.queueSum;
            pre_exec += row.execSum;
            pre_n += static_cast<double>(row.completions);
        } else if (row.start >= opts.faults.domainOutageAt &&
                   row.start <=
                       opts.faults.domainOutageAt + 10 * kTicksPerSec) {
            out_cq += row.coldSum + row.queueSum;
            out_exec += row.execSum;
            out_n += static_cast<double>(row.completions);
        }
    }
    ASSERT_GT(pre_n, 0.0);
    ASSERT_GT(out_n, 0.0);
    EXPECT_GT(out_cq / out_n, 2.0 * (pre_cq / pre_n));
    EXPECT_LT(out_exec / out_n, 1.5 * (pre_exec / pre_n));
    EXPECT_GT(out_exec / out_n, 0.5 * (pre_exec / pre_n));
}

TEST(PlatformFaultTest, InjectorDrivenChaosConservesRequests)
{
    PlatformOptions opts;
    opts.faults.serverMtbfSec = 30.0;
    opts.faults.serverMttrSec = 10.0;
    opts.faults.startupFailureProb = 0.05;
    // No crashes in the last stretch so retry chains can drain.
    opts.faults.crashHorizon = 2 * kTicksPerMin;

    Platform p(4, opts);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(60.0, 2 * kTicksPerMin));
    p.run(2 * kTicksPerMin + 30 * kTicksPerSec);

    const auto &m = p.totalMetrics();
    ASSERT_NE(p.faultInjector(), nullptr);
    EXPECT_GT(m.serverCrashes(), 0);
    EXPECT_GT(m.serverRecoveries(), 0);
    EXPECT_GT(m.completions(), 0);
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());
    double availability = p.clusterAvailability();
    EXPECT_GT(availability, 0.0);
    EXPECT_LT(availability, 1.0);
}

} // namespace
