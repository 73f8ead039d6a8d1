/**
 * @file
 * Unit tests for the per-instance batch queue.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "sim/logging.hh"

#include "core/batch_queue.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace {

using infless::core::BatchQueue;
using infless::core::RequestIndex;
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
    std::vector<RequestIndex> batch;
    q.takeBatch(batch);
    EXPECT_EQ(batch, (std::vector<RequestIndex>{7, 8, 9}));
    EXPECT_TRUE(q.empty());
}

TEST(BatchQueueTest, TakeBatchOnPartialQueue)
{
    BatchQueue q(8, msToTicks(100));
    q.push(1, 0);
    q.push(2, 1);
    std::vector<RequestIndex> batch{99, 98, 97};
    q.takeBatch(batch);
    EXPECT_EQ(batch, (std::vector<RequestIndex>{1, 2}));
    EXPECT_TRUE(q.empty());
}

TEST(BatchQueueTest, DeadlineAdvancesToNextHeadAfterTake)
{
    BatchQueue q(2, msToTicks(100));
    q.push(1, 0);
    q.push(2, msToTicks(30));
    std::vector<RequestIndex> batch;
    q.takeBatch(batch);
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
    std::vector<RequestIndex> batch;
    q.takeBatch(batch);
    EXPECT_EQ(batch.size(), 4u);
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
    std::vector<RequestIndex> batch;
    q.takeBatch(batch);
    EXPECT_EQ(batch.size(), 1u);
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

TEST(BatchQueueTest, MatchesDequeModelAcrossWraparound)
{
    // Seeded push / takeBatch / evictOldest / drain sequences against a
    // std::deque reference bounded at one batch. Evictions followed by
    // pushes walk the ring's head and tail around its end.
    constexpr infless::sim::Tick kMaxWait = 40;
    for (int batch_size : {1, 3, 32}) {
        SCOPED_TRACE(batch_size);
        BatchQueue q(batch_size, kMaxWait);
        std::deque<std::pair<RequestIndex, infless::sim::Tick>> model;
        infless::sim::Rng rng(static_cast<std::uint64_t>(batch_size));
        RequestIndex next = 0;
        infless::sim::Tick now = 0;
        std::vector<RequestIndex> batch;

        auto take_model = [&model] {
            std::vector<RequestIndex> taken;
            for (const auto &entry : model)
                taken.push_back(entry.first);
            model.clear();
            return taken;
        };
        for (int step = 0; step < 5000; ++step) {
            SCOPED_TRACE(step);
            now += rng.uniformInt(0, 4);
            std::int64_t op = rng.uniformInt(0, 99);
            if (op < 60) {
                bool room = model.size() <
                            static_cast<std::size_t>(batch_size);
                EXPECT_EQ(q.push(next, now), room);
                if (room)
                    model.emplace_back(next, now);
                ++next;
            } else if (op < 85) {
                if (model.empty()) {
                    EXPECT_THROW(q.evictOldest(), infless::sim::PanicError);
                } else {
                    EXPECT_EQ(q.evictOldest(), model.front().first);
                    model.pop_front();
                }
            } else if (op < 97) {
                q.takeBatch(batch);
                EXPECT_EQ(batch, take_model());
            } else {
                EXPECT_EQ(q.drain(), take_model());
            }

            ASSERT_EQ(q.size(), model.size());
            EXPECT_EQ(q.empty(), model.empty());
            EXPECT_EQ(q.hasRoom(),
                      model.size() < static_cast<std::size_t>(batch_size));
            EXPECT_EQ(q.headArrival(), model.empty()
                                           ? kTickNever
                                           : model.front().second);
            EXPECT_EQ(q.headDeadline(),
                      model.empty() ? kTickNever
                                    : model.front().second + kMaxWait);
        }
    }
}

} // namespace
