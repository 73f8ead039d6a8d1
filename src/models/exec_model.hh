/**
 * @file
 * Analytic execution-time model (the simulator's ground truth).
 *
 * The paper evaluates on real hardware; here an analytic roofline-style
 * surface substitutes for it (see DESIGN.md). The surface reproduces the
 * three behaviours every INFless experiment depends on:
 *
 *  1. GPU batching is sub-linear: per-batch kernel-launch overheads
 *     amortize and SM utilization rises with batchsize, so
 *     throughput/resource grows with b.
 *  2. CPU batching is ~linear: batch b costs b times as long, so batching
 *     on CPU-only instances buys little (Fig. 2b).
 *  3. Large models on small CPU quotas cannot meet 200 ms (Fig. 2a).
 *
 * Offline profiling "measures" exact per-operator times from this model;
 * the ground truth a running batch is charged adds a deterministic
 * deviation that grows with the model's branch overlap, so COP's
 * composition error behaves like Fig. 8.
 */

#ifndef INFLESS_MODELS_EXEC_MODEL_HH
#define INFLESS_MODELS_EXEC_MODEL_HH

#include "cluster/resources.hh"
#include "models/dag.hh"
#include "models/model_zoo_fwd.hh"
#include "models/operator.hh"
#include "sim/time.hh"

namespace infless::models {

/** Tunables of the execution-time surface. */
struct ExecParams
{
    /**
     * Effective GFLOPS per CPU core, framework overheads included
     * (Xeon Silver 4215 under TensorFlow).
     */
    double cpuGflopsPerCore = 7.0;

    /** Effective GFLOPS of one whole GPU (RTX 2080Ti under TF Serving). */
    double gpuGflopsFull = 6'200.0;

    /** GPU utilization reached at batchsize 1. */
    double gpuUtilBase = 0.22;

    /** Batch scale over which utilization approaches 1 (exponential). */
    double gpuUtilBatchScale = 5.0;

    /** Smallest effective CPU share (quota throttling floor). */
    double minCpuCores = 0.05;

    /** Fixed per-batch dispatch cost (request unmarshal + queue pop). */
    double batchDispatchUs = 150.0;

    /**
     * Amplitude of the deterministic ground-truth deviation from the COP
     * composition (relative). Chosen so the mean absolute prediction error
     * lands under 10% as in Fig. 8.
     */
    double noiseAmplitude = 0.12;
};

/**
 * Computes operator, graph and whole-model execution times.
 */
class ExecModel
{
  public:
    ExecModel() = default;
    explicit ExecModel(const ExecParams &params) : params_(params) {}

    const ExecParams &params() const { return params_; }

    /**
     * GPU utilization factor at batchsize @p batch.
     */
    double gpuBatchUtil(int batch) const;

    /**
     * Idealized execution time of one operator call on a batch, in
     * microseconds. This is what offline operator profiling records.
     *
     * Operators with non-zero gpuEfficiency run on the GPU when the
     * instance holds any SM share; everything else uses the CPU quota.
     */
    double opMicros(const OpNode &op, int batch,
                    const cluster::Resources &res) const;

    /**
     * COP composition over a graph with exact operator times: longest
     * path (chain = sum, branches = max), plus batch dispatch overhead.
     * Returned in microseconds.
     */
    double composedMicros(const Dag &dag, int batch,
                          const cluster::Resources &res) const;

    /**
     * Ground-truth batch execution time for a model: composition times a
     * deterministic per-(model, b, c, g) deviation. This is the latency
     * the simulator charges when the batch actually runs.
     */
    sim::Tick trueTicks(const ModelInfo &model, int batch,
                        const cluster::Resources &res) const;

    /** The deviation factor applied by trueTicks (for tests/analysis). */
    double deviation(const ModelInfo &model, int batch,
                     const cluster::Resources &res) const;

  private:
    ExecParams params_;
};

} // namespace infless::models

#endif // INFLESS_MODELS_EXEC_MODEL_HH
