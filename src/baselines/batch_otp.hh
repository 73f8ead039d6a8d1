/**
 * @file
 * BATCH baseline — Ali et al., SC'20, re-hosted like the paper does.
 *
 * BATCH is an On-Top-of-Platform design: a buffer layer in front of the
 * serverless platform aggregates requests into uniform batches. Compared
 * to INFless it (1) adds OTP scheduling delay on the ingress path,
 * (2) is unaware of the platform's internal queuing when it sets its
 * batch timeout, (3) scales uniformly — every instance of a function gets
 * the same adaptively chosen (batch, resources) pair from a small fixed
 * menu — and (4) keeps instances alive for a fixed window.
 */

#ifndef INFLESS_BASELINES_BATCH_OTP_HH
#define INFLESS_BASELINES_BATCH_OTP_HH

#include <array>
#include <vector>

#include "core/platform.hh"

namespace infless::baselines {

/**
 * The BATCH comparison system.
 */
class BatchOtp : public core::Platform
{
  public:
    /**
     * Resource menu the OTP controller may pick from (CPU mc, GPU %).
     * Like the original BATCH's memory-indexed Lambda profiles, the menu
     * keeps a coarse proportional flavor: GPU share scales with the CPU
     * grant rather than being tuned per model.
     */
    static constexpr std::array<cluster::Resources, 3> kConfigMenu = {{
        {1000, 5, 0},
        {2000, 10, 0},
        {3000, 20, 0},
    }};
    /** Batchsizes the adaptive buffer supports. */
    static constexpr std::array<int, 4> kBatchChoices = {1, 2, 4, 8};
    /** Extra per-request delay through the OTP buffer layer. */
    static constexpr sim::Tick kOtpDelay = 10 * sim::kTicksPerMs;
    /** Fixed keep-alive window. */
    static constexpr sim::Tick kKeepAlive = 300 * sim::kTicksPerSec;

    BatchOtp(std::size_t num_servers, core::PlatformOptions opts = {});

    std::string name() const override { return "BATCH"; }

  protected:
    std::vector<core::LaunchPlan> planScaleOut(FunctionState &fn,
                                               double residual_rps) override;
    sim::Tick ingressDelay() const override { return kOtpDelay; }
    bool uniformScaling() const override { return true; }

    /** Whether placement uses the e_ij best-fit rule (BATCH+RS). */
    virtual bool bestFitPlacement() const { return false; }
};

} // namespace infless::baselines

#endif // INFLESS_BASELINES_BATCH_OTP_HH
