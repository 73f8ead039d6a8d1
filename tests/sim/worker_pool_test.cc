#include "sim/worker_pool.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace infless::sim {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce)
{
    WorkerPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, SerialPoolRunsInline)
{
    WorkerPool pool(1);
    std::vector<int> order;
    pool.parallelFor(5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, ReusableAcrossJobs)
{
    WorkerPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<long>> out(17);
        pool.parallelFor(out.size(), [&](std::size_t i) {
            out[i].store(static_cast<long>(i) * round);
        });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i].load(), static_cast<long>(i) * round);
    }
}

TEST(WorkerPool, EmptyJobIsNoop)
{
    WorkerPool pool(4);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(WorkerPool, ResultsIndependentOfPoolSize)
{
    // The determinism contract the cell engine relies on: per-index
    // output slots make the result identical for any worker count.
    auto run = [](std::size_t threads) {
        WorkerPool pool(threads);
        std::vector<std::uint64_t> out(64);
        pool.parallelFor(out.size(), [&](std::size_t i) {
            std::uint64_t s = i;
            for (int k = 0; k < 1000; ++k)
                s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            out[i] = s;
        });
        return out;
    };
    auto serial = run(1);
    EXPECT_EQ(serial, run(2));
    EXPECT_EQ(serial, run(8));
}

TEST(WorkerPool, FirstExceptionRethrownOnCaller)
{
    WorkerPool pool(4);
    EXPECT_THROW(pool.parallelFor(32,
                                  [](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool survives a failed job.
    std::atomic<int> count{0};
    pool.parallelFor(8, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
}

TEST(WorkerPool, DefaultThreadsIsHardwareConcurrency)
{
    unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(WorkerPool::defaultThreads(), hw == 0 ? 1u : hw);
}

} // namespace
} // namespace infless::sim
