#include "baselines/openfaas_plus.hh"

#include <utility>

#include "coldstart/fixed.hh"

namespace infless::baselines {

namespace {

core::PlatformOptions
withFixedKeepAlive(core::PlatformOptions opts)
{
    opts.keepAlive =
        coldstart::FixedKeepAlive::factory(OpenFaasPlus::kKeepAlive);
    return opts;
}

} // namespace

OpenFaasPlus::OpenFaasPlus(std::size_t num_servers,
                           core::PlatformOptions opts)
    : core::Platform(num_servers, withFixedKeepAlive(std::move(opts)))
{
}

std::vector<core::LaunchPlan>
OpenFaasPlus::planScaleOut(FunctionState &fn, double residual_rps)
{
    cluster::Resources res = kInstanceResources;
    res.memoryMb = scheduler().instanceMemoryMb(*fn.model);

    core::CandidateConfig config;
    config.config = cluster::InstanceConfig{1, res};
    config.execPredicted = predictor().predict(*fn.model, 1, res);
    // OpenFaaS is SLO-unaware: it launches its fixed configuration no
    // matter what; the capacity is simply 1/t_exec.
    config.bounds.up =
        1.0 / sim::ticksToSec(std::max<sim::Tick>(1, config.execPredicted));
    config.bounds.low = 0.0;

    return core::uniformSchedule(config, residual_rps, mutableCluster(),
                                 /*best_fit=*/false, cluster::kDefaultBeta,
                                 res.memoryMb);
}

} // namespace infless::baselines
