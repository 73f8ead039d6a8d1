#include "models/exec_model.hh"

#include <algorithm>
#include <cmath>

#include "models/model_zoo.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace infless::models {

namespace {

/** Amdahl speedup over @p cores with parallel fraction @p p. Fractional
 *  core quotas below 1.0 slow the parallel part proportionally. */
double
amdahlSpeedup(double cores, double p)
{
    return 1.0 / ((1.0 - p) + p / cores);
}

} // namespace

double
ExecModel::gpuBatchUtil(int batch) const
{
    sim::simAssert(batch >= 1, "batch must be >= 1");
    double u0 = params_.gpuUtilBase;
    double scale = params_.gpuUtilBatchScale;
    return u0 + (1.0 - u0) * (1.0 - std::exp(-(batch - 1) / scale));
}

double
ExecModel::opMicros(const OpNode &op, int batch,
                    const cluster::Resources &res) const
{
    sim::simAssert(batch >= 1, "batch must be >= 1");
    const OpTraits &traits = opTraits(op.kind);
    double batch_gflops = batch * op.gflopsPerSample;

    bool on_gpu = res.gpuSmPercent > 0 && traits.gpuEfficiency > 0.0;
    if (on_gpu) {
        double throughput = params_.gpuGflopsFull * res.gpuDevices() *
                            gpuBatchUtil(batch) * traits.gpuEfficiency;
        sim::simAssert(throughput > 0.0, "zero GPU throughput");
        return static_cast<double>(traits.gpuOverhead) +
               batch_gflops / throughput * 1e6;
    }

    double cores = std::max(res.cpuCores(), params_.minCpuCores);
    double throughput = params_.cpuGflopsPerCore *
                        amdahlSpeedup(cores, traits.cpuParallelFraction);
    sim::simAssert(throughput > 0.0, "zero CPU throughput");
    return static_cast<double>(traits.cpuOverhead) +
           batch_gflops / throughput * 1e6;
}

double
ExecModel::composedMicros(const Dag &dag, int batch,
                          const cluster::Resources &res) const
{
    double path = dag.criticalPath(
        [&](const OpNode &op) { return opMicros(op, batch, res); });
    return path + params_.batchDispatchUs;
}

double
ExecModel::deviation(const ModelInfo &model, int batch,
                     const cluster::Resources &res) const
{
    // A deterministic pseudo-random draw keyed by (model, b, c, g): the
    // same configuration always deviates identically, as a real testbed's
    // systematic effects would, but the profiler cannot see it through
    // per-operator measurements alone.
    std::uint64_t key = model.noiseKey;
    key = sim::hashCombine(key, static_cast<std::uint64_t>(batch));
    key = sim::hashCombine(
        key, static_cast<std::uint64_t>(res.cpuMillicores));
    key = sim::hashCombine(
        key, static_cast<std::uint64_t>(res.gpuSmPercent) + 0x1234567ULL);
    double unit = static_cast<double>(key >> 11) * 0x1.0p-53; // [0, 1)
    double centered = 2.0 * unit - 1.0;                       // [-1, 1)

    // Branch-heavy graphs overlap execution paths; their composition rule
    // is less exact, so their deviation spread is larger (Fig. 8: LSTM-2365
    // errs most).
    double overlap = model.dag.branchOverlap();
    double spread = params_.noiseAmplitude * (0.5 + 1.3 * overlap);
    return 1.0 + centered * spread;
}

sim::Tick
ExecModel::trueTicks(const ModelInfo &model, int batch,
                     const cluster::Resources &res) const
{
    double micros =
        composedMicros(model.dag, batch, res) * deviation(model, batch, res);
    return std::max<sim::Tick>(1, static_cast<sim::Tick>(std::llround(micros)));
}

} // namespace infless::models
