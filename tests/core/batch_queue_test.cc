/**
 * @file
 * Unit tests for the per-instance batch queue.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include "core/batch_queue.hh"
#include "sim/time.hh"

namespace {

using infless::core::BatchQueue;
using infless::sim::kTickNever;
using infless::sim::msToTicks;

TEST(BatchQueueTest, StartsEmpty)
{
    BatchQueue q(4, msToTicks(100));
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.hasRoom());
    EXPECT_FALSE(q.hasFullBatch());
    EXPECT_EQ(q.headDeadline(), kTickNever);
    EXPECT_EQ(q.headArrival(), kTickNever);
}

TEST(BatchQueueTest, FillsToBatchSize)
{
    BatchQueue q(4, msToTicks(100));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.push(i, i * 10));
    EXPECT_TRUE(q.hasFullBatch());
    EXPECT_FALSE(q.hasRoom());
    // A fifth request is rejected: over-submission (Fig. 6a).
    EXPECT_FALSE(q.push(4, 40));
    EXPECT_EQ(q.size(), 4u);
}

TEST(BatchQueueTest, HeadDeadlineIsArrivalPlusMaxWait)
{
    BatchQueue q(4, msToTicks(100));
    q.push(0, msToTicks(5));
    q.push(1, msToTicks(50));
    EXPECT_EQ(q.headDeadline(), msToTicks(105));
    EXPECT_EQ(q.headArrival(), msToTicks(5));
}

TEST(BatchQueueTest, TakeBatchPopsInArrivalOrder)
{
    BatchQueue q(3, msToTicks(100));
    q.push(7, 0);
    q.push(8, 1);
    q.push(9, 2);
    auto batch = q.takeBatch();
    EXPECT_EQ(batch, (std::vector<infless::core::RequestIndex>{7, 8, 9}));
    EXPECT_TRUE(q.empty());
}

TEST(BatchQueueTest, TakeBatchOnPartialQueue)
{
    BatchQueue q(8, msToTicks(100));
    q.push(1, 0);
    q.push(2, 1);
    auto batch = q.takeBatch();
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_TRUE(q.empty());
}

TEST(BatchQueueTest, DeadlineAdvancesToNextHeadAfterTake)
{
    BatchQueue q(2, msToTicks(100));
    q.push(1, 0);
    q.push(2, msToTicks(30));
    q.takeBatch();
    EXPECT_EQ(q.headDeadline(), kTickNever);
    q.push(3, msToTicks(60));
    EXPECT_EQ(q.headDeadline(), msToTicks(160));
}

TEST(BatchQueueTest, DrainEmptiesEverything)
{
    BatchQueue q(4, msToTicks(100));
    q.push(1, 0);
    q.push(2, 0);
    q.push(3, 0);
    auto all = q.drain();
    EXPECT_EQ(all.size(), 3u);
    EXPECT_TRUE(q.empty());
}

TEST(BatchQueueTest, BatchSizeOneReleasesImmediately)
{
    BatchQueue q(1, msToTicks(100));
    EXPECT_TRUE(q.push(1, 0));
    EXPECT_TRUE(q.hasFullBatch());
    EXPECT_FALSE(q.hasRoom());
    EXPECT_FALSE(q.push(2, 1));
}

TEST(BatchQueueTest, ZeroMaxWaitMeansImmediateDeadline)
{
    BatchQueue q(4, 0);
    q.push(1, 500);
    EXPECT_EQ(q.headDeadline(), 500);
}

TEST(BatchQueueTest, InvalidConstructionPanics)
{
    EXPECT_THROW(BatchQueue(0, 100), infless::sim::PanicError);
    EXPECT_THROW(BatchQueue(4, -1), infless::sim::PanicError);
}

TEST(BatchQueueTest, ZeroDepthCapKeepsLegacyBound)
{
    // The queue holds at most one pending batch (§3.2, Fig. 6a
    // over-submission): the fifth request is refused until a batch
    // leaves.
    BatchQueue q(4, msToTicks(100));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.push(i, i));
    EXPECT_FALSE(q.hasRoom());
    EXPECT_FALSE(q.push(4, 4));
    EXPECT_EQ(q.takeBatch().size(), 4u);
    EXPECT_TRUE(q.hasRoom());
}

TEST(BatchQueueTest, EvictOldestPopsHeadInFifoOrder)
{
    BatchQueue q(4, msToTicks(100));
    q.push(7, 0);
    q.push(8, 10);
    q.push(9, 20);
    EXPECT_EQ(q.evictOldest(), 7);
    EXPECT_EQ(q.headArrival(), 10);
    EXPECT_EQ(q.evictOldest(), 8);
    EXPECT_EQ(q.evictOldest(), 9);
    EXPECT_TRUE(q.empty());
}

TEST(BatchQueueTest, EvictOldestOnEmptyPanics)
{
    BatchQueue q(4, msToTicks(100));
    EXPECT_THROW(q.evictOldest(), infless::sim::PanicError);
}

TEST(BatchQueueTest, ZeroSlackHeadExpiresAtEnqueueTick)
{
    // SLO slack of exactly zero at enqueue: the head's deadline is its
    // own arrival tick, forcing immediate submission rather than a
    // negative or never deadline.
    BatchQueue q(4, 0);
    q.push(1, msToTicks(5));
    EXPECT_EQ(q.headDeadline(), msToTicks(5));
    EXPECT_EQ(q.takeBatch().size(), 1u);
}

TEST(BatchQueueTest, EvictionAtDeadlineTickPromotesNextHead)
{
    // Eviction racing the head's timeout in the same tick: evicting the
    // expired head must leave the next request's (later) deadline, not
    // the stale one.
    BatchQueue q(4, msToTicks(100));
    q.push(1, 0);
    q.push(2, msToTicks(60));
    ASSERT_EQ(q.headDeadline(), msToTicks(100));
    EXPECT_EQ(q.evictOldest(), 1);
    EXPECT_EQ(q.headDeadline(), msToTicks(160));
    EXPECT_EQ(q.headArrival(), msToTicks(60));
}

} // namespace
