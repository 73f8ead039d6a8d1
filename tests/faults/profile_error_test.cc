/**
 * @file
 * Tests for the mispredicted-profile fault: one scalar factor on the
 * predictor — controller-visible predictions scale while the memoized
 * faithful composition (and thus ground truth) stays intact.
 */

#include <gtest/gtest.h>

#include "cluster/resources.hh"
#include "faults/fault_injector.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"
#include "sim/logging.hh"

namespace {

using infless::cluster::Resources;
using infless::faults::FaultProfile;
using infless::models::ExecModel;
using infless::models::ModelZoo;
using infless::profiler::CopPredictor;
using infless::profiler::OpProfileDb;

TEST(ProfileErrorTest, DefaultIsDisabledAndExactlyUnity)
{
    FaultProfile profile;
    EXPECT_EQ(profile.profileErrorFactor, 1.0);
    // The lie schedules no events: it never enables the injector.
    profile.profileErrorFactor = 1.5;
    EXPECT_FALSE(profile.enabled());
}

TEST(ProfileErrorTest, PureFactorIsExactForEveryModel)
{
    ExecModel exec;
    OpProfileDb db{exec};
    CopPredictor faithful{db};
    CopPredictor lying{db};
    lying.setDistortion(1.5);
    Resources res{2000, 10, 0};
    for (const auto &model : ModelZoo::shared().all()) {
        EXPECT_EQ(lying.rawMicros(model, 4, res),
                  1.5 * faithful.rawMicros(model, 4, res))
            << model.name;
    }
}

struct ProfileErrorPredictorFixture : ::testing::Test
{
    ExecModel exec;
    OpProfileDb db{exec};
    CopPredictor cop{db};
    const infless::models::ModelInfo &resnet =
        ModelZoo::shared().get("ResNet-50");
    Resources res{2000, 10, 0};
};

TEST_F(ProfileErrorPredictorFixture, DistortionScalesPredictions)
{
    double faithful_raw = cop.rawMicros(resnet, 4, res);
    double faithful_pred =
        static_cast<double>(cop.predict(resnet, 4, res));

    cop.setDistortion(1.5);
    EXPECT_NEAR(cop.rawMicros(resnet, 4, res), 1.5 * faithful_raw,
                1e-6 * faithful_raw);
    // The safety offset multiplies on top of the lie (predict() is
    // Tick-quantized, hence the 1-tick slack).
    EXPECT_NEAR(static_cast<double>(cop.predict(resnet, 4, res)),
                1.5 * faithful_pred, 2.0);
}

TEST_F(ProfileErrorPredictorFixture, MemoKeepsTheFaithfulComposition)
{
    // Warm the memo undistorted, then lie: the distortion applies
    // post-memo, so it takes effect immediately and swapping it back
    // restores the faithful bits without re-pricing.
    double faithful = cop.rawMicros(resnet, 8, res);
    cop.setDistortion(2.0);
    EXPECT_DOUBLE_EQ(cop.rawMicros(resnet, 8, res), 2.0 * faithful);
    cop.setDistortion(1.0);
    EXPECT_DOUBLE_EQ(cop.rawMicros(resnet, 8, res), faithful);
}

TEST_F(ProfileErrorPredictorFixture, GroundTruthErrorReflectsTheLie)
{
    // predictionError measures the raw estimate against the untouched
    // execution surface — a 1.5x distortion must surface as ~50% more
    // relative error, proving execution truth is not distorted along
    // with the prediction.
    double honest = cop.predictionError(exec, resnet, 4, res);
    cop.setDistortion(1.5);
    double lying = cop.predictionError(exec, resnet, 4, res);
    EXPECT_GT(lying, honest);
    EXPECT_GT(lying, 0.3);
}

TEST_F(ProfileErrorPredictorFixture, NonPositiveFactorPanics)
{
    EXPECT_THROW(cop.setDistortion(0.0), infless::sim::PanicError);
    EXPECT_THROW(cop.setDistortion(-1.5), infless::sim::PanicError);
}

} // namespace
