/**
 * @file
 * Property-based sweeps over platform runs: invariants that must hold
 * for every system, workload and SLO combination.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "baselines/batch_otp.hh"
#include "baselines/batch_rs.hh"
#include "baselines/openfaas_plus.hh"
#include "core/platform.hh"
#include "workload/generators.hh"

namespace {

using infless::baselines::BatchOtp;
using infless::baselines::BatchRs;
using infless::baselines::OpenFaasPlus;
using infless::core::FunctionSpec;
using infless::core::Platform;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;
using infless::sim::Tick;
using infless::workload::uniformArrivals;

enum class System
{
    Infless,
    OpenFaas,
    Batch,
    BatchRs
};

const char *
systemName(System s)
{
    switch (s) {
      case System::Infless:
        return "infless";
      case System::OpenFaas:
        return "openfaas";
      case System::Batch:
        return "batch";
      case System::BatchRs:
        return "batchrs";
    }
    return "?";
}

std::unique_ptr<Platform>
makeSystem(System s, std::size_t servers)
{
    switch (s) {
      case System::Infless:
        return std::make_unique<Platform>(servers);
      case System::OpenFaas:
        return std::make_unique<OpenFaasPlus>(servers);
      case System::Batch:
        return std::make_unique<BatchOtp>(servers);
      case System::BatchRs:
        return std::make_unique<BatchRs>(servers);
    }
    return nullptr;
}

/** (system, model name, slo ms, rps) */
using PropertyParam = std::tuple<System, const char *, int, double>;

class PlatformProperties : public ::testing::TestWithParam<PropertyParam>
{
};

TEST_P(PlatformProperties, InvariantsHoldThroughoutARun)
{
    auto [system, model, slo_ms, rps] = GetParam();
    auto platform = makeSystem(system, 6);
    FunctionSpec spec{"fn", model, msToTicks(slo_ms), 32};
    auto fn = platform->deploy(spec);
    platform->injectTrace(fn, uniformArrivals(rps, kTicksPerMin));
    platform->run(kTicksPerMin + 15 * kTicksPerSec);

    const auto &m = platform->totalMetrics();

    // Conservation: every arrival either completed or dropped (the grace
    // window exceeds the largest batch wait + execution time).
    EXPECT_EQ(m.completions() + m.drops(), m.arrivals());

    // Resource conservation: nothing allocated without live instances.
    if (platform->liveInstanceCount() == 0) {
        EXPECT_TRUE(platform->cluster().totalAllocated().isZero());
    }

    // No server ever exceeded capacity (release() panics otherwise, so
    // this is a belt-and-braces check on availability bounds).
    platform->cluster().forEachServer(
        [](const infless::cluster::Server &server) {
            EXPECT_TRUE(server.available().fitsIn(server.capacity()));
            EXPECT_TRUE(server.allocated().fitsIn(server.capacity()));
        });

    // Latency decomposition: per-part means sum to the total mean.
    if (m.completions() > 0) {
        double parts = m.queueTime().mean() + m.execTime().mean() +
                       m.coldTime().mean();
        EXPECT_NEAR(parts / std::max(1.0, m.latency().mean()), 1.0, 0.05);
    }

    // Violation rate is a valid fraction.
    EXPECT_GE(m.sloViolationRate(), 0.0);
    EXPECT_LE(m.sloViolationRate(), 1.0);

    // Batches never exceed served requests.
    EXPECT_LE(m.batches(), m.completions() + m.drops() + 64);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlatformProperties,
    ::testing::Combine(
        ::testing::Values(System::Infless, System::OpenFaas, System::Batch,
                          System::BatchRs),
        ::testing::Values("ResNet-50", "LSTM-2365"),
        ::testing::Values(100, 300),
        ::testing::Values(20.0, 120.0)),
    [](const auto &info) {
        std::string name = systemName(std::get<0>(info.param));
        name += "_";
        for (char c : std::string(std::get<1>(info.param))) {
            if (c == '-')
                continue;
            name += c;
        }
        name += "_slo" + std::to_string(std::get<2>(info.param));
        name += "_rps" +
                std::to_string(static_cast<int>(std::get<3>(info.param)));
        return name;
    });

/** SLO monotonicity: a looser SLO never makes violations worse. */
class SloMonotonicity : public ::testing::TestWithParam<double>
{
};

TEST_P(SloMonotonicity, LooserSloDoesNotIncreaseViolations)
{
    double rps = GetParam();
    auto violation_at = [&](Tick slo) {
        Platform p(6);
        FunctionSpec spec{"fn", "ResNet-50", slo, 32};
        auto fn = p.deploy(spec);
        p.injectTrace(fn, uniformArrivals(rps, kTicksPerMin));
        p.run(kTicksPerMin + 10 * kTicksPerSec);
        return p.totalMetrics().sloViolationRate();
    };
    EXPECT_LE(violation_at(msToTicks(400)),
              violation_at(msToTicks(150)) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Rates, SloMonotonicity,
                         ::testing::Values(30.0, 90.0),
                         [](const auto &info) {
                             return "rps" +
                                    std::to_string(
                                        static_cast<int>(info.param));
                         });

} // namespace
