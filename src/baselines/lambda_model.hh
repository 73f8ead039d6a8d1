/**
 * @file
 * AWS-Lambda-style commercial serverless model (§2.2, Fig. 2).
 *
 * Commercial platforms allocate CPU power in proportion to the configured
 * memory (about one vCPU per 1,769 MB on Lambda) and support no
 * accelerators. This analytic model reproduces the paper's motivation
 * observations: large models cannot meet 200 ms at any memory size
 * (Obs. 1), batching on CPU multiplies latency (Obs. 2), and meeting the
 * SLO forces memory over-provisioning well past actual consumption
 * (Obs. 3).
 */

#ifndef INFLESS_BASELINES_LAMBDA_MODEL_HH
#define INFLESS_BASELINES_LAMBDA_MODEL_HH

#include <cstdint>
#include <vector>

#include "cluster/resources.hh"
#include "models/exec_model.hh"
#include "models/latency_cache.hh"
#include "models/model_zoo.hh"
#include "sim/time.hh"

namespace infless::baselines {

/**
 * The proportional CPU-memory allocation model.
 */
class LambdaModel
{
  public:
    /** MB of function memory buying one vCPU worth of quota. */
    static constexpr double kMbPerVcpu = 1769.0;

    /** Standard memory sizes of the Fig. 2 sweep. */
    static const std::vector<std::int64_t> &memorySizesMb();

    /** CPU quota (millicores) the platform grants for @p memory_mb. */
    static std::int64_t cpuQuotaMillicores(std::int64_t memory_mb);

    /** CPU-only resource vector for a memory setting. */
    static cluster::Resources resourcesFor(std::int64_t memory_mb);

    /**
     * Actual memory footprint of serving the model (weights + framework
     * runtime), independent of the configured size.
     */
    static double actualConsumptionMb(const models::ModelInfo &model);

    /** Whether the model fits in the configured memory at all. */
    static bool canLoad(const models::ModelInfo &model,
                        std::int64_t memory_mb);

    /**
     * Invocation (batch execution) time at a memory setting.
     *
     * @return kTickNever when the model cannot be loaded.
     */
    sim::Tick invokeTicks(const models::ModelInfo &model,
                          std::int64_t memory_mb, int batch = 1) const;

    /**
     * Smallest standard memory size meeting @p slo.
     *
     * @return -1 when no size qualifies (Obs. 1's large models).
     */
    std::int64_t minMemoryForSlo(const models::ModelInfo &model,
                                 sim::Tick slo, int batch = 1) const;

    /**
     * Memory over-provisioning ratio for meeting @p slo: configured
     * memory minus actual consumption, over configured memory (Fig. 2c).
     *
     * @return -1 when the SLO is unreachable.
     */
    double overProvisionRatio(const models::ModelInfo &model, sim::Tick slo,
                              int batch = 1) const;

  private:
    models::ExecModel exec_;
    /** Fig. 2 sweeps re-price (model, memory, batch) points heavily. */
    mutable models::LatencyCache cache_;
};

} // namespace infless::baselines

#endif // INFLESS_BASELINES_LAMBDA_MODEL_HH
