/**
 * @file
 * OpenFaaS+ baseline (§5.1, Table 3).
 *
 * The enhanced OpenFaaS the paper compares against: GPU-capable, but with
 * the "one-to-one mapping" request policy (each request needs its own
 * unoccupied instance), no batching, a single fixed instance
 * configuration (2 CPU cores + 10% GPU SMs), uniform scaling and a fixed
 * 300 s keep-alive window.
 */

#ifndef INFLESS_BASELINES_OPENFAAS_PLUS_HH
#define INFLESS_BASELINES_OPENFAAS_PLUS_HH

#include "core/platform.hh"

namespace infless::baselines {

/**
 * The OpenFaaS+ comparison system.
 */
class OpenFaasPlus : public core::Platform
{
  public:
    /** The uniform per-instance allocation (paper: 2 cores, 10% SM). */
    static constexpr cluster::Resources kInstanceResources{2000, 10, 0};
    /** Fixed keep-alive window. */
    static constexpr sim::Tick kKeepAlive = 300 * sim::kTicksPerSec;

    OpenFaasPlus(std::size_t num_servers, core::PlatformOptions opts = {});

    std::string name() const override { return "OpenFaaS+"; }

  protected:
    std::vector<core::LaunchPlan> planScaleOut(FunctionState &fn,
                                               double residual_rps) override;
    bool oneToOne() const override { return true; }
    bool uniformScaling() const override { return true; }
};

} // namespace infless::baselines

#endif // INFLESS_BASELINES_OPENFAAS_PLUS_HH
