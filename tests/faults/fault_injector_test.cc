/**
 * @file
 * Tests for the deterministic fault injector: event scheduling,
 * determinism, horizon handling and RNG stream isolation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "faults/fault_injector.hh"
#include "sim/simulation.hh"

namespace {

using infless::cluster::ServerId;
using infless::faults::FaultInjector;
using infless::faults::FaultProfile;
using infless::sim::kTicksPerSec;
using infless::sim::Simulation;
using infless::sim::Tick;

struct Recorded
{
    std::vector<std::pair<Tick, ServerId>> crashes;
    std::vector<std::pair<Tick, ServerId>> recoveries;
};

Recorded
runInjector(std::uint64_t seed, const FaultProfile &profile,
            std::size_t servers, Tick until)
{
    Simulation sim(seed);
    FaultInjector injector(sim, profile, seed, servers);
    Recorded rec;
    injector.start(FaultInjector::Hooks{
        [&](ServerId id) { rec.crashes.emplace_back(sim.now(), id); },
        [&](ServerId id) { rec.recoveries.emplace_back(sim.now(), id); },
        {}, {}});
    sim.runUntil(until);
    return rec;
}

FaultProfile
crashyProfile()
{
    FaultProfile profile;
    profile.serverMtbfSec = 20.0;
    profile.serverMttrSec = 5.0;
    return profile;
}

TEST(FaultProfileTest, EnabledFlags)
{
    FaultProfile off;
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.crashesEnabled());

    FaultProfile crash;
    crash.serverMtbfSec = 100.0;
    EXPECT_TRUE(crash.enabled());

    FaultProfile startup;
    startup.startupFailureProb = 0.1;
    EXPECT_TRUE(startup.enabled());
    EXPECT_FALSE(startup.crashesEnabled());
}

TEST(FaultInjectorTest, DisabledProfileSchedulesNothing)
{
    Recorded rec = runInjector(7, FaultProfile{}, 4, 600 * kTicksPerSec);
    EXPECT_TRUE(rec.crashes.empty());
    EXPECT_TRUE(rec.recoveries.empty());
}

TEST(FaultInjectorTest, CrashRecoveryCyclesAlternate)
{
    Recorded rec =
        runInjector(7, crashyProfile(), 4, 600 * kTicksPerSec);
    ASSERT_FALSE(rec.crashes.empty());
    ASSERT_FALSE(rec.recoveries.empty());
    // Every server alternates crash -> recovery -> crash...
    for (ServerId s = 0; s < 4; ++s) {
        std::vector<Tick> events;
        std::vector<bool> is_crash;
        for (const auto &[t, id] : rec.crashes)
            if (id == s) {
                events.push_back(t);
                is_crash.push_back(true);
            }
        for (const auto &[t, id] : rec.recoveries)
            if (id == s) {
                events.push_back(t);
                is_crash.push_back(false);
            }
        // Merge-sort by time and check alternation starting with a crash.
        std::vector<std::size_t> order(events.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return events[a] < events[b];
                  });
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(is_crash[order[i]], i % 2 == 0)
                << "server " << s << " event " << i;
    }
}

TEST(FaultInjectorTest, SameSeedSameSchedule)
{
    Recorded a = runInjector(42, crashyProfile(), 3, 300 * kTicksPerSec);
    Recorded b = runInjector(42, crashyProfile(), 3, 300 * kTicksPerSec);
    EXPECT_EQ(a.crashes, b.crashes);
    EXPECT_EQ(a.recoveries, b.recoveries);
    ASSERT_FALSE(a.crashes.empty());

    Recorded c = runInjector(43, crashyProfile(), 3, 300 * kTicksPerSec);
    EXPECT_NE(a.crashes, c.crashes);
}

TEST(FaultInjectorTest, CrashHorizonStopsNewCrashes)
{
    FaultProfile profile = crashyProfile();
    profile.crashHorizon = 100 * kTicksPerSec;
    Recorded rec = runInjector(7, profile, 4, 600 * kTicksPerSec);
    ASSERT_FALSE(rec.crashes.empty());
    for (const auto &[t, id] : rec.crashes)
        EXPECT_LE(t, profile.crashHorizon);
    // Recoveries may trail past the horizon (repairs always finish).
    EXPECT_GE(rec.recoveries.size(), rec.crashes.size() - 4u);
}

TEST(FaultInjectorTest, FaultStreamDoesNotTouchSimulationRng)
{
    // The workload streams fork off the simulation root RNG; constructing
    // and running an injector must leave that stream bit-identical.
    auto draws = [](bool with_faults) {
        Simulation sim(99);
        std::unique_ptr<FaultInjector> injector;
        if (with_faults) {
            FaultProfile profile;
            profile.serverMtbfSec = 20.0;
            profile.serverMttrSec = 5.0;
            profile.startupFailureProb = 0.5;
            injector =
                std::make_unique<FaultInjector>(sim, profile, 99, 4);
            injector->start({});
            // Consume fault draws too: they must come from the private
            // streams, not the root.
            injector->startupFails();
            sim.runUntil(60 * kTicksPerSec);
        }
        std::vector<std::uint64_t> out;
        auto rng = sim.forkRng(0x1234);
        for (int i = 0; i < 8; ++i)
            out.push_back(
                static_cast<std::uint64_t>(rng.uniformInt(0, 1 << 30)));
        return out;
    };
    EXPECT_EQ(draws(false), draws(true));
}

// Regression: crash substreams key on the server *id*, never on draw
// order, so growing the fleet must leave every existing server's whole
// crash/recovery history bit-identical. (The old fleet-size coupling
// drew all servers from one stream: adding a machine shifted everyone.)
TEST(FaultInjectorTest, FleetSizeDoesNotShiftExistingSchedules)
{
    Tick until = 600 * kTicksPerSec;
    Recorded small = runInjector(11, crashyProfile(), 4, until);
    Recorded big = runInjector(11, crashyProfile(), 9, until);
    ASSERT_FALSE(small.crashes.empty());

    auto only = [](const std::vector<std::pair<Tick, ServerId>> &events,
                   ServerId cap) {
        std::vector<std::pair<Tick, ServerId>> out;
        for (const auto &e : events)
            if (e.second < cap)
                out.push_back(e);
        return out;
    };
    EXPECT_EQ(small.crashes, only(big.crashes, 4));
    EXPECT_EQ(small.recoveries, only(big.recoveries, 4));
    // And the bigger fleet actually crashes its extra servers.
    EXPECT_GT(big.crashes.size(), small.crashes.size());
}

TEST(DomainOutageTest, ScriptedOutageIsExact)
{
    FaultProfile profile;
    profile.domainOutageAt = 40 * kTicksPerSec;
    profile.domainOutageTarget = 5; // wraps into [0, 3)
    profile.domainOutageMttrSec = 10.0;
    ASSERT_TRUE(profile.domainOutagesEnabled());

    infless::faults::DomainOutageStream stream(profile, 7, 3);
    auto ev = stream.next();
    ASSERT_TRUE(ev.valid());
    EXPECT_EQ(ev.at, 40 * kTicksPerSec);
    EXPECT_EQ(ev.zone, 2);
    EXPECT_EQ(ev.repairAt, 50 * kTicksPerSec);
    // One-shot: nothing follows without a stochastic rate.
    EXPECT_FALSE(stream.next().valid());
}

TEST(DomainOutageTest, StochasticStreamDeterministicAndSequential)
{
    FaultProfile profile;
    profile.domainOutageMtbfSec = 120.0;
    profile.domainOutageMttrSec = 30.0;
    profile.crashHorizon = 3600 * kTicksPerSec;

    auto collect = [&](std::uint64_t seed) {
        infless::faults::DomainOutageStream stream(profile, seed, 4);
        std::vector<infless::faults::DomainOutageEvent> out;
        for (auto ev = stream.next(); ev.valid(); ev = stream.next())
            out.push_back(ev);
        return out;
    };
    auto a = collect(42);
    auto b = collect(42);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].zone, b[i].zone);
        EXPECT_EQ(a[i].repairAt, b[i].repairAt);
        EXPECT_GE(a[i].zone, 0);
        EXPECT_LT(a[i].zone, 4);
        EXPECT_GT(a[i].repairAt, a[i].at);
        // Outages never overlap: the next one starts after the repair.
        if (i > 0) {
            EXPECT_GT(a[i].at, a[i - 1].repairAt);
        }
        EXPECT_LE(a[i].at, profile.crashHorizon);
    }
    EXPECT_NE(collect(43).front().at, a.front().at);
}

TEST(DomainOutageTest, InjectorDrivesDomainHooks)
{
    FaultProfile profile;
    profile.domainOutageAt = 20 * kTicksPerSec;
    profile.domainOutageTarget = 1;
    profile.domainOutageMttrSec = 5.0;

    Simulation sim(7);
    FaultInjector injector(sim, profile, 7, 6, 3);
    std::vector<std::pair<Tick, infless::cluster::DomainId>> outages;
    std::vector<std::pair<Tick, infless::cluster::DomainId>> repairs;
    FaultInjector::Hooks hooks;
    hooks.domainOutage = [&](infless::cluster::DomainId zone) {
        outages.emplace_back(sim.now(), zone);
    };
    hooks.domainRepair = [&](infless::cluster::DomainId zone) {
        repairs.emplace_back(sim.now(), zone);
    };
    injector.start(std::move(hooks));
    sim.runUntil(60 * kTicksPerSec);

    ASSERT_EQ(outages.size(), 1u);
    EXPECT_EQ(outages[0].first, 20 * kTicksPerSec);
    EXPECT_EQ(outages[0].second, 1);
    ASSERT_EQ(repairs.size(), 1u);
    EXPECT_EQ(repairs[0].first, 25 * kTicksPerSec);
    EXPECT_EQ(repairs[0].second, 1);
    EXPECT_EQ(injector.domainOutagesScheduled(), 1);
    EXPECT_EQ(injector.domainRepairsScheduled(), 1);
}

TEST(GrayFailureTest, MultiplierIsSeededPerServerAndPure)
{
    FaultProfile profile;
    profile.grayFraction = 0.3;
    profile.grayFactor = 4.0;
    ASSERT_TRUE(profile.grayEnabled());
    // Gray membership is a pure function of (seed, id): no shared state,
    // identical on every call, and values are only 1 or the factor.
    int gray = 0;
    for (infless::cluster::ServerId s = 0; s < 200; ++s) {
        double m = infless::faults::grayExecMultiplier(profile, 7, s);
        EXPECT_EQ(m, infless::faults::grayExecMultiplier(profile, 7, s));
        EXPECT_TRUE(m == 1.0 || m == 4.0);
        gray += m == 4.0 ? 1 : 0;
    }
    // ~Binomial(200, 0.3): far from 0 and from all-gray.
    EXPECT_GT(gray, 30);
    EXPECT_LT(gray, 90);

    // Disabled profile: always 1, regardless of seed and id.
    FaultProfile off;
    EXPECT_EQ(infless::faults::grayExecMultiplier(off, 7, 3), 1.0);
    off.grayFraction = 0.5; // factor still 1.0 -> disabled
    EXPECT_EQ(infless::faults::grayExecMultiplier(off, 7, 3), 1.0);
}

TEST(FaultInjectorTest, StartupFailureDraws)
{
    Simulation sim(5);
    FaultProfile profile;
    profile.startupFailureProb = 0.5;
    FaultInjector injector(sim, profile, 5, 2);

    int failures = 0;
    for (int i = 0; i < 200; ++i)
        failures += injector.startupFails() ? 1 : 0;
    EXPECT_GT(failures, 50);
    EXPECT_LT(failures, 150);
    EXPECT_EQ(injector.startupFailureDraws(), failures);
}

} // namespace
