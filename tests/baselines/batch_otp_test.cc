/**
 * @file
 * Tests for the BATCH (OTP) baseline and BATCH+RS.
 */

#include <gtest/gtest.h>

#include <set>

#include "baselines/batch_otp.hh"
#include "baselines/batch_rs.hh"
#include "workload/generators.hh"

namespace {

using infless::baselines::BatchOtp;
using infless::baselines::BatchRs;
using infless::core::FunctionSpec;
using infless::sim::kTicksPerMin;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;
using infless::workload::uniformArrivals;

FunctionSpec
resnetSpec()
{
    return FunctionSpec{"resnet", "ResNet-50", msToTicks(200), 32};
}

/** BATCH without its OTP buffer layer: same policy, no ingress delay. */
class BatchWithoutOtp : public BatchOtp
{
  public:
    using BatchOtp::BatchOtp;

  protected:
    infless::sim::Tick ingressDelay() const override { return 0; }
};

TEST(BatchOtpTest, BatchesRequests)
{
    BatchOtp p(4);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(80.0, kTicksPerMin));
    p.run(kTicksPerMin + 5 * kTicksPerSec);
    const auto &m = p.totalMetrics();
    EXPECT_GT(m.completions(), 0);
    EXPECT_GT(m.meanBatchFill(), 1.5);
}

TEST(BatchOtpTest, UniformScalingUsesOneConfiguration)
{
    BatchOtp p(4);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(150.0, kTicksPerMin));
    p.run(kTicksPerMin);
    auto usage = p.configUsage(fn);
    // Adaptive but uniform: all launches share a single (b, c, g).
    EXPECT_EQ(usage.size(), 1u);
    EXPECT_GT(usage[0].launches, 0);
}

TEST(BatchOtpTest, OtpDelayInflatesLatency)
{
    auto median_latency = [](auto &&p) {
        auto fn = p.deploy(resnetSpec());
        p.injectTrace(fn, uniformArrivals(60.0, 30 * kTicksPerSec));
        p.run(40 * kTicksPerSec);
        return p.totalMetrics().latency().percentile(50);
    };
    EXPECT_GT(median_latency(BatchOtp(4)), median_latency(BatchWithoutOtp(4)));
}

TEST(BatchOtpTest, ConfigComesFromMenu)
{
    BatchOtp p(4);
    auto fn = p.deploy(resnetSpec());
    p.injectTrace(fn, uniformArrivals(100.0, 30 * kTicksPerSec));
    p.run(40 * kTicksPerSec);
    std::set<std::int64_t> menu_cpus, menu_gpus;
    for (const auto &res : BatchOtp::kConfigMenu) {
        menu_cpus.insert(res.cpuMillicores);
        menu_gpus.insert(res.gpuSmPercent);
    }
    for (const auto &u : p.configUsage(fn)) {
        EXPECT_TRUE(menu_cpus.count(u.config.resources.cpuMillicores));
        EXPECT_TRUE(menu_gpus.count(u.config.resources.gpuSmPercent));
        EXPECT_LE(u.config.batchSize, 8);
    }
}

TEST(BatchOtpTest, InflessOutperformsBatchOnThroughputPerResource)
{
    // The headline comparison, small scale: equal offered load, INFless
    // serves it with fewer weighted resource-seconds.
    auto tpr = [](auto &platform) {
        auto fn = platform.deploy(resnetSpec());
        platform.injectTrace(fn, uniformArrivals(120.0, kTicksPerMin));
        platform.run(kTicksPerMin + 5 * kTicksPerSec);
        return platform.totalMetrics().throughputPerResource(
            platform.endTime(), infless::cluster::kDefaultBeta);
    };
    BatchOtp batch(8);
    infless::core::Platform infl(8);
    EXPECT_GT(tpr(infl), tpr(batch));
}

TEST(BatchOtpTest, IngressDelayCountsAgainstTheSlo)
{
    // The OTP layer is unaware of its own added delay: a chunk of the
    // latency budget is consumed before the platform even sees the
    // request, so p99 sits closer to the SLO than INFless's.
    auto median_queue = [](auto &&p) {
        auto fn = p.deploy(resnetSpec());
        p.injectTrace(fn, uniformArrivals(80.0, kTicksPerMin));
        p.run(kTicksPerMin + 10 * kTicksPerSec);
        return p.totalMetrics().queueTime().percentile(50);
    };
    auto delayed = median_queue(BatchOtp(4));
    auto immediate = median_queue(BatchWithoutOtp(4));
    EXPECT_GE(delayed, immediate + BatchOtp::kOtpDelay * 2 / 3);
}

TEST(BatchRsTest, NameAndPlacementDiffer)
{
    BatchRs p(2);
    EXPECT_EQ(p.name(), "BATCH+RS");
}

TEST(BatchRsTest, BestFitReducesFragmentsVsFirstFit)
{
    auto frag = [](auto &platform) {
        auto fn = platform.deploy(resnetSpec());
        platform.injectTrace(fn, uniformArrivals(150.0, kTicksPerMin));
        platform.run(kTicksPerMin);
        return platform.meanFragmentRatio();
    };
    BatchOtp batch(8);
    BatchRs batch_rs(8);
    EXPECT_LE(frag(batch_rs), frag(batch) + 0.02);
}

} // namespace
