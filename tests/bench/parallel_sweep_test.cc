/**
 * @file
 * ParallelSweep determinism and knee-search equivalence.
 *
 * The sweep runner's contract is that thread count never changes
 * results: outputs are stored by input index, and the knee search
 * replays the serial early-exit logic over the in-order goodputs. The
 * heavyweight pin — a real measureMaxRps sweep byte-identical at 1, 2,
 * and N threads — runs on a small cluster to stay test-sized.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/harness.hh"
#include "common/parallel_sweep.hh"
#include "models/model_zoo.hh"

namespace {

using namespace infless;
using bench::kneeFromGoodputs;
using bench::ParallelSweep;
using bench::stressLoadLadder;

TEST(ParallelSweepTest, ResultsComeBackInInputOrder)
{
    std::vector<int> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(i);
    auto doubled = ParallelSweep::map(
        items, [](int x) { return 2 * x; }, 8);
    ASSERT_EQ(doubled.size(), items.size());
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(doubled[static_cast<std::size_t>(i)], 2 * i);
}

TEST(ParallelSweepTest, ThreadCountDoesNotChangeResults)
{
    std::vector<std::uint64_t> items;
    for (std::uint64_t i = 0; i < 64; ++i)
        items.push_back(i);
    auto fn = [](std::uint64_t x) {
        // Deterministic but non-trivial per-item computation.
        std::uint64_t h = x + 0x9e3779b97f4a7c15ULL;
        for (int i = 0; i < 1000; ++i)
            h = h * 6364136223846793005ULL + 1442695040888963407ULL;
        return h;
    };
    auto serial = ParallelSweep::map(items, fn, 1);
    auto two = ParallelSweep::map(items, fn, 2);
    auto many = ParallelSweep::map(items, fn, 0);
    EXPECT_EQ(serial, two);
    EXPECT_EQ(serial, many);
}

TEST(ParallelSweepTest, EmptyInputYieldsEmptyOutput)
{
    std::vector<int> none;
    auto out = ParallelSweep::map(none, [](int x) { return x; });
    EXPECT_TRUE(out.empty());
}

TEST(ParallelSweepTest, UsesMultipleWorkersWhenAsked)
{
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    std::vector<int> items(32, 0);
    ParallelSweep::map(
        items,
        [&](int) {
            int now = ++concurrent;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            --concurrent;
            return 0;
        },
        4);
    EXPECT_GT(peak.load(), 1);
}

TEST(ParallelSweepTest, PropagatesTheFirstException)
{
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_THROW(ParallelSweep::map(
                     items,
                     [](int x) {
                         if (x == 5)
                             throw std::runtime_error("boom");
                         return x;
                     },
                     4),
                 std::runtime_error);
}

TEST(ParallelSweepTest, ZeroThreadsStaysWithinHardwareConcurrency)
{
    // threads == 0 sizes the pool by the hardware, never above it.
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    std::vector<int> items(64, 0);
    ParallelSweep::map(
        items,
        [&](int) {
            int now = ++concurrent;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            --concurrent;
            return 0;
        },
        0);
    unsigned hw = std::thread::hardware_concurrency();
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(static_cast<unsigned>(peak.load()), hw == 0 ? 1u : hw);
}

TEST(KneeFromGoodputsTest, ReplaysSerialEarlyExit)
{
    // Monotone rise then fall: the knee is the max.
    EXPECT_DOUBLE_EQ(kneeFromGoodputs({100, 200, 400, 300, 200, 900}),
                     400.0);
    // Two consecutive declines stop the search; a later recovery past
    // the stop point must not be seen (matches the serial break).
    EXPECT_DOUBLE_EQ(kneeFromGoodputs({100, 90, 80, 1000}), 100.0);
    // A single dip does not stop the search.
    EXPECT_DOUBLE_EQ(kneeFromGoodputs({100, 90, 200, 150, 120}), 200.0);
    // Still rising at the ladder's end.
    EXPECT_DOUBLE_EQ(kneeFromGoodputs({100, 200, 400}), 400.0);
    EXPECT_DOUBLE_EQ(kneeFromGoodputs({}), 0.0);
}

TEST(KneeFromGoodputsTest, LadderCoversTheConfiguredRange)
{
    auto ladder = stressLoadLadder(32'000.0);
    ASSERT_EQ(ladder.size(), 8u);
    EXPECT_DOUBLE_EQ(ladder.front(), 250.0);
    EXPECT_DOUBLE_EQ(ladder.back(), 32'000.0);
    EXPECT_TRUE(stressLoadLadder(200.0).empty());
}

TEST(ParallelSweepTest, MeasureMaxRpsByteIdenticalAcrossThreadCounts)
{
    // The real acceptance pin: a full knee sweep over fresh platforms
    // must produce bit-identical goodput regardless of worker count.
    // Small cluster + short duration keeps this test-sized while still
    // exercising platform construction inside worker threads.
    auto sweep = [](std::size_t threads) {
        auto ladder = stressLoadLadder(1'000.0);
        auto goodputs = ParallelSweep::map(
            ladder,
            [](double offered) {
                auto platform = bench::makeSystem(
                    bench::SystemKind::Infless, 2);
                return bench::measureMaxRps(
                    *platform, {"ResNet-50"}, 200 * sim::kTicksPerMs,
                    offered, 5 * sim::kTicksPerSec, 32);
            },
            threads);
        return goodputs;
    };
    auto serial = sweep(1);
    auto two = sweep(2);
    auto many = sweep(0);
    ASSERT_EQ(serial.size(), 3u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], two[i]) << "level " << i;
        EXPECT_EQ(serial[i], many[i]) << "level " << i;
    }
    EXPECT_EQ(kneeFromGoodputs(serial), kneeFromGoodputs(many));
}

} // namespace
