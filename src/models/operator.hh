/**
 * @file
 * DNN operator taxonomy.
 *
 * Inference functions decompose into a small shared set of operators
 * (Observation 6: the paper's 11 models contain >1,000 operator calls but
 * only 71 distinct operators, and a handful dominate execution time).
 * Each operator kind carries the traits the execution model needs: how well
 * it parallelizes on CPU, how efficiently it maps to a GPU, and its
 * per-call dispatch overheads.
 */

#ifndef INFLESS_MODELS_OPERATOR_HH
#define INFLESS_MODELS_OPERATOR_HH

#include <cstdint>

#include "sim/time.hh"

namespace infless::models {

/** The operator kinds used by the model zoo (subset of the paper's 71). */
enum class OpKind : std::uint8_t
{
    MatMul,
    FusedMatMul,
    Conv2D,
    DepthwiseConv2D,
    BiasAdd,
    Relu,
    Sigmoid,
    Tanh,
    Softmax,
    Pooling,
    BatchNorm,
    LayerNorm,
    ConcatV2,
    Mul,
    Sum,
    Embedding,
    Attention,
    Reshape,
    Pad,
    Identity,

    NumKinds
};

/** Number of distinct operator kinds. */
constexpr int kNumOpKinds = static_cast<int>(OpKind::NumKinds);

/**
 * Per-kind characteristics feeding the execution-time model.
 */
struct OpTraits
{
    /** Canonical TensorFlow-style name. */
    const char *name;

    /**
     * Amdahl parallel fraction on CPU. Dense math is highly parallel;
     * element-wise glue less so.
     */
    double cpuParallelFraction;

    /**
     * Relative efficiency on a GPU (fraction of device peak the operator
     * reaches at full batch utilization). Zero means the operator stays on
     * the CPU even in a GPU-equipped instance.
     */
    double gpuEfficiency;

    /** Per-call dispatch overhead when executed on CPU. */
    sim::Tick cpuOverhead;

    /** Per-call kernel-launch overhead when executed on GPU. */
    sim::Tick gpuOverhead;
};

/** Look up the traits of an operator kind. */
const OpTraits &opTraits(OpKind kind);

/** Canonical name of an operator kind. */
inline const char *
opName(OpKind kind)
{
    return opTraits(kind).name;
}

/**
 * One operator call inside a model graph.
 *
 * gflopsPerSample is the work of a single inference sample; a batch of b
 * samples does b times that work.
 */
struct OpNode
{
    OpKind kind = OpKind::Identity;
    double gflopsPerSample = 0.0;
};

} // namespace infless::models

#endif // INFLESS_MODELS_OPERATOR_HH
