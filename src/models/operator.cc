#include "models/operator.hh"

#include <array>

#include "sim/logging.hh"

namespace infless::models {

namespace {

using sim::msToTicks;

// Traits table. Overheads are microsecond-scale dispatch costs; the
// GPU launch overhead dominates for tiny kernels, which is why batching
// pays off disproportionately on accelerators.
constexpr std::array<OpTraits, kNumOpKinds> kTraits = {{
    // name            cpuPar  gpuEff  cpuOvh  gpuOvh
    {"MatMul",          0.92,   0.85,   8,      18},
    {"FusedMatMul",     0.92,   0.90,   8,      16},
    {"Conv2D",          0.93,   0.95,   10,     20},
    {"DepthwiseConv2D", 0.85,   0.55,   10,     20},
    {"BiasAdd",         0.75,   0.40,   3,      8},
    {"Relu",            0.80,   0.40,   2,      8},
    {"Sigmoid",         0.78,   0.40,   2,      8},
    {"Tanh",            0.78,   0.40,   2,      8},
    {"Softmax",         0.70,   0.35,   4,      10},
    {"Pooling",         0.82,   0.50,   4,      10},
    {"BatchNorm",       0.80,   0.45,   4,      10},
    {"LayerNorm",       0.78,   0.45,   4,      10},
    {"ConcatV2",        0.60,   0.30,   4,      10},
    {"Mul",             0.75,   0.40,   2,      8},
    {"Sum",             0.70,   0.35,   2,      8},
    {"Embedding",       0.50,   0.00,   6,      0},
    {"Attention",       0.90,   0.85,   12,     24},
    {"Reshape",         0.10,   0.00,   2,      0},
    {"Pad",             0.40,   0.25,   3,      8},
    {"Identity",        0.10,   0.00,   1,      0},
}};

} // namespace

const OpTraits &
opTraits(OpKind kind)
{
    auto idx = static_cast<std::size_t>(kind);
    sim::simAssert(idx < kTraits.size(), "bad OpKind ", idx);
    return kTraits[idx];
}

} // namespace infless::models
