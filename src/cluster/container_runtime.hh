/**
 * @file
 * Container cold-start cost model.
 *
 * Inference cold starts are dominated by container creation plus loading
 * the model and serving library; for large models the paper notes this can
 * exceed the query execution time itself (§3.5). The model here is:
 *
 *   t_cold = kContainerCreate + kLibraryInit + modelMb * kLoadPerMb
 *
 * A pre-warmed container (image loaded ahead of time by the keep-alive
 * policy) skips all of it.
 */

#ifndef INFLESS_CLUSTER_CONTAINER_RUNTIME_HH
#define INFLESS_CLUSTER_CONTAINER_RUNTIME_HH

#include "sim/time.hh"

namespace infless::cluster {

/** Container/pod creation (scheduler + containerd + cgroups). */
inline constexpr sim::Tick kContainerCreate = sim::msToTicks(900);
/** Serving-library initialization (TensorFlow Serving + CUDA ctx). */
inline constexpr sim::Tick kLibraryInit = sim::msToTicks(600);
/** Model weight load + warm-up per MiB of model size. */
inline constexpr sim::Tick kLoadPerMb = sim::msToTicks(6);

/**
 * Computes startup latencies for instances.
 */
class ContainerRuntime
{
  public:
    /**
     * Full cold-start latency for a model of @p model_mb MiB.
     */
    sim::Tick
    coldStartTicks(double model_mb) const
    {
        return kContainerCreate + kLibraryInit +
               static_cast<sim::Tick>(model_mb * kLoadPerMb);
    }

    /**
     * Startup latency when a pre-warmed container already holds the image
     * and model: effectively instantaneous routing setup.
     */
    sim::Tick warmStartTicks() const { return sim::msToTicks(2); }
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_CONTAINER_RUNTIME_HH
