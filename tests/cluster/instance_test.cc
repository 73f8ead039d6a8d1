/**
 * @file
 * Unit tests for the Instance lifecycle state machine.
 */

#include <gtest/gtest.h>

#include "cluster/instance.hh"
#include "sim/logging.hh"

namespace {

using infless::cluster::Instance;
using infless::cluster::InstanceConfig;
using infless::cluster::InstanceState;
using infless::cluster::Resources;
using infless::sim::PanicError;

Instance
makeInstance(int batch = 4)
{
    return Instance(1, InstanceConfig{batch, Resources{2000, 10, 512}}, 0,
                    100, true);
}

TEST(InstanceTest, StartsColdStarting)
{
    Instance i = makeInstance();
    EXPECT_EQ(i.state(), InstanceState::ColdStarting);
    EXPECT_TRUE(i.wasCold());
    EXPECT_EQ(i.createdAt(), 100);
}

TEST(InstanceTest, HappyPathLifecycle)
{
    Instance i = makeInstance();
    i.becomeWarm(200);
    EXPECT_EQ(i.state(), InstanceState::Idle);
    i.startBatch(4);
    EXPECT_EQ(i.state(), InstanceState::Busy);
    i.finishBatch(350);
    EXPECT_EQ(i.state(), InstanceState::Idle);
    i.reap();
    EXPECT_EQ(i.state(), InstanceState::Reaped);
}

TEST(InstanceTest, AccountingTracksBatchesAndRequests)
{
    Instance i = makeInstance();
    i.becomeWarm(200);
    i.startBatch(4);
    i.finishBatch(350);
    i.startBatch(2);
    i.finishBatch(420);
    EXPECT_EQ(i.batchesExecuted(), 2);
    EXPECT_EQ(i.requestsServed(), 6);
}

TEST(InstanceTest, BatchFillMustRespectConfig)
{
    Instance i = makeInstance(4);
    i.becomeWarm(200);
    EXPECT_THROW(i.startBatch(0), PanicError);
    EXPECT_THROW(i.startBatch(5), PanicError);
    EXPECT_NO_THROW(i.startBatch(4));
}

TEST(InstanceTest, IllegalTransitionsPanic)
{
    Instance i = makeInstance();
    EXPECT_THROW(i.startBatch(1), PanicError); // not warm yet
    i.becomeWarm(200);
    EXPECT_THROW(i.becomeWarm(210), PanicError); // double warm
    i.startBatch(1);
    EXPECT_THROW(i.reap(), PanicError); // reap while busy
    i.finishBatch(240);
    EXPECT_THROW(i.finishBatch(250), PanicError); // double finish
}

TEST(InstanceTest, ReapFromColdStartingAllowed)
{
    Instance i = makeInstance();
    EXPECT_NO_THROW(i.reap());
    EXPECT_EQ(i.state(), InstanceState::Reaped);
}

TEST(InstanceTest, ConfigStrFormats)
{
    InstanceConfig cfg{8, Resources{2000, 10, 512}};
    EXPECT_EQ(cfg.str(), "(b=8, cpu=2000mc, gpu=10%)");
}

TEST(InstanceTest, BatchSizeBelowOneRejected)
{
    EXPECT_THROW(
        Instance(1, InstanceConfig{0, Resources{1, 0, 0}}, 0, 0, true),
        PanicError);
}

} // namespace
