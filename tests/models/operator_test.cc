/**
 * @file
 * Unit tests for the operator taxonomy.
 */

#include <gtest/gtest.h>

#include "models/operator.hh"

namespace {

using infless::models::kNumOpKinds;
using infless::models::OpKind;
using infless::models::opName;
using infless::models::opTraits;

TEST(OperatorTest, EveryKindHasConsistentTraits)
{
    for (int i = 0; i < kNumOpKinds; ++i) {
        auto kind = static_cast<OpKind>(i);
        const auto &t = opTraits(kind);
        EXPECT_NE(t.name, nullptr);
        EXPECT_GE(t.cpuParallelFraction, 0.0);
        EXPECT_LE(t.cpuParallelFraction, 1.0);
        EXPECT_GE(t.gpuEfficiency, 0.0);
        EXPECT_LE(t.gpuEfficiency, 1.0);
        EXPECT_GE(t.cpuOverhead, 0);
        EXPECT_GE(t.gpuOverhead, 0);
    }
}

TEST(OperatorTest, DenseMathIsGpuFriendly)
{
    // The dominant operators of Fig. 7 map efficiently to GPUs...
    EXPECT_GT(opTraits(OpKind::Conv2D).gpuEfficiency, 0.8);
    EXPECT_GT(opTraits(OpKind::MatMul).gpuEfficiency, 0.8);
    // ...while glue operators do not, and embeddings stay on CPU.
    EXPECT_LT(opTraits(OpKind::ConcatV2).gpuEfficiency, 0.5);
    EXPECT_EQ(opTraits(OpKind::Embedding).gpuEfficiency, 0.0);
}

TEST(OperatorTest, DenseMathParallelizesOnCpu)
{
    EXPECT_GT(opTraits(OpKind::Conv2D).cpuParallelFraction, 0.9);
    EXPECT_LT(opTraits(OpKind::Reshape).cpuParallelFraction, 0.5);
}

TEST(OperatorTest, NamesMatchTensorFlowConvention)
{
    EXPECT_STREQ(opName(OpKind::MatMul), "MatMul");
    EXPECT_STREQ(opName(OpKind::FusedMatMul), "FusedMatMul");
    EXPECT_STREQ(opName(OpKind::Conv2D), "Conv2D");
    EXPECT_STREQ(opName(OpKind::ConcatV2), "ConcatV2");
}

} // namespace
