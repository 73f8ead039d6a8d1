/**
 * @file
 * Unit tests for resource vectors.
 */

#include <gtest/gtest.h>

#include "cluster/resources.hh"
#include "sim/logging.hh"

namespace {

using infless::cluster::kDefaultBeta;
using infless::cluster::Resources;
using infless::sim::PanicError;

TEST(ResourcesTest, DefaultIsZeroAndValid)
{
    Resources r;
    EXPECT_TRUE(r.isZero());
    EXPECT_TRUE(r.isValid());
}

TEST(ResourcesTest, UnitConversions)
{
    Resources r{2500, 35, 1024};
    EXPECT_DOUBLE_EQ(r.cpuCores(), 2.5);
    EXPECT_DOUBLE_EQ(r.gpuDevices(), 0.35);
}

TEST(ResourcesTest, AdditionAndSubtraction)
{
    Resources a{1000, 10, 512};
    Resources b{500, 5, 256};
    Resources sum = a + b;
    EXPECT_EQ(sum, (Resources{1500, 15, 768}));
    EXPECT_EQ(sum - b, a);
}

TEST(ResourcesTest, SubtractionBelowZeroPanics)
{
    Resources a{100, 0, 0};
    Resources b{200, 0, 0};
    // The message is formatted only on failure, with operator<<'s
    // rendering.
    try {
        a -= b;
        FAIL() << "subtraction below zero did not panic";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: resource subtraction went negative: "
                               "cpu=-100mc gpu=0% mem=0MB");
    }
}

TEST(ResourcesTest, FitsInIsComponentWise)
{
    Resources cap{2000, 20, 1024};
    EXPECT_TRUE((Resources{2000, 20, 1024}).fitsIn(cap));
    EXPECT_TRUE((Resources{1, 0, 0}).fitsIn(cap));
    EXPECT_FALSE((Resources{2001, 0, 0}).fitsIn(cap));
    EXPECT_FALSE((Resources{0, 21, 0}).fitsIn(cap));
    EXPECT_FALSE((Resources{0, 0, 1025}).fitsIn(cap));
}

TEST(ResourcesTest, WeightedCombinesCpuAndGpu)
{
    Resources r{2000, 50, 0};
    double beta = 0.01;
    EXPECT_DOUBLE_EQ(r.weighted(beta), 0.01 * 2.0 + 0.5);
}

TEST(ResourcesTest, DefaultBetaReflectsFlopsRatio)
{
    // One CPU core is worth far less than one GPU.
    EXPECT_GT(kDefaultBeta, 0.0);
    EXPECT_LT(kDefaultBeta, 0.01);
}

} // namespace
