#include "sim/parallel_for.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace infless::sim {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(100);
    parallelFor(hits.size(), 4,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialPoolRunsInline)
{
    std::vector<int> order;
    parallelFor(5, 1, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ReusableAcrossJobs)
{
    // 50 back-to-back calls: each starts and joins its own threads.
    for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<long>> out(17);
        parallelFor(out.size(), 3, [&](std::size_t i) {
            out[i].store(static_cast<long>(i) * round);
        });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i].load(), static_cast<long>(i) * round);
    }
}

TEST(ParallelFor, EmptyJobIsNoop)
{
    parallelFor(0, 4, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, ResultsIndependentOfPoolSize)
{
    // The determinism contract the cell engine relies on: per-index
    // output slots make the result identical for any thread count.
    auto run = [](std::size_t threads) {
        std::vector<std::uint64_t> out(64);
        parallelFor(out.size(), threads, [&](std::size_t i) {
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

TEST(ParallelFor, FirstExceptionRethrownOnCaller)
{
    EXPECT_THROW(parallelFor(32, 4,
                             [](std::size_t i) {
                                 if (i == 7)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The next call runs every index.
    std::atomic<int> count{0};
    parallelFor(8, 4, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
}

TEST(ParallelFor, DefaultThreadsIsHardwareConcurrency)
{
    unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(defaultThreads(), hw == 0 ? 1u : hw);
}

} // namespace
} // namespace infless::sim
