#include "baselines/batch_otp.hh"

#include <algorithm>
#include <utility>

#include "coldstart/fixed.hh"
#include "core/rps_bounds.hh"

namespace infless::baselines {

namespace {

core::PlatformOptions
withFixedKeepAlive(core::PlatformOptions opts)
{
    opts.keepAlive = coldstart::FixedKeepAlive::factory(BatchOtp::kKeepAlive);
    return opts;
}

} // namespace

BatchOtp::BatchOtp(std::size_t num_servers, core::PlatformOptions opts)
    : core::Platform(num_servers, withFixedKeepAlive(std::move(opts)))
{
}

std::vector<core::LaunchPlan>
BatchOtp::planScaleOut(FunctionState &fn, double residual_rps)
{
    // Adaptive uniform batching: among the menu entries whose predicted
    // execution time admits the SLO, pick the (batch, config) pair with
    // the best throughput per weighted resource. Unlike Algorithm 1 there
    // is no per-instance saturation (r_low) check and every instance gets
    // the same pair, so low-rate functions end up with oversized batches
    // that time out (the paper's Observation 5).
    const core::CandidateConfig *chosen = nullptr;
    core::CandidateConfig best;
    double best_value = -1.0;
    for (int b : kBatchChoices) {
        if (b > fn.spec.maxBatch)
            continue;
        for (cluster::Resources res : kConfigMenu) {
            res.memoryMb = scheduler().instanceMemoryMb(*fn.model);
            sim::Tick exec = predictor().predict(*fn.model, b, res);
            if (!core::execFeasible(exec, fn.spec.sloTicks, b))
                continue;
            core::RpsBounds bounds =
                core::rpsBounds(exec, fn.spec.sloTicks, b);
            double value = bounds.up / res.weighted(cluster::kDefaultBeta);
            if (value > best_value) {
                best_value = value;
                best.config = cluster::InstanceConfig{b, res};
                best.execPredicted = exec;
                best.bounds = bounds;
                chosen = &best;
            }
        }
    }
    if (!chosen)
        return {};

    return core::uniformSchedule(*chosen, residual_rps, mutableCluster(),
                                 bestFitPlacement(), cluster::kDefaultBeta,
                                 chosen->config.resources.memoryMb);
}

} // namespace infless::baselines
