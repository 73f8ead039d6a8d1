/**
 * @file
 * Unit tests for the delta-encoded, chunked TickLog.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/tick_log.hh"
#include "sim/time.hh"

namespace {

using infless::sim::kTicksPerHour;
using infless::sim::kTicksPerSec;
using infless::sim::Rng;
using infless::sim::Tick;
using infless::sim::TickLog;

constexpr Tick kBig = Tick{1} << 40; // > 2^32 µs

std::vector<Tick>
drain(TickLog &log, std::size_t c)
{
    std::vector<Tick> out;
    while (!log.done(c))
        out.push_back(log.take(c).tick);
    return out;
}

TEST(TickLogTest, RoundTripsZeroAndHugeGaps)
{
    std::vector<Tick> ticks = {-5, -5, 0, 0, 0, 1, kBig, kBig, 2 * kBig + 3,
                               (Tick{1} << 62), (Tick{1} << 62)};
    TickLog log;
    for (Tick t : ticks)
        log.push(t);
    EXPECT_EQ(log.unread(0), ticks.size());
    EXPECT_EQ(log.peek(0).tick, -5);
    EXPECT_EQ(drain(log, 0), ticks);
    EXPECT_TRUE(log.done(0));
    EXPECT_THROW(log.take(0), infless::sim::PanicError);
}

TEST(TickLogTest, AppendMatchesPushOneByOne)
{
    std::vector<Tick> head = {-kBig, 0, 0, 7};
    std::vector<Tick> tail;
    for (Tick t = 8; t < 20'000; ++t)
        tail.push_back(t * 9 + (t / 1'000) * kBig);
    TickLog pushed;
    TickLog appended;
    for (Tick t : head)
        pushed.push(t);
    for (Tick t : tail)
        pushed.push(t);
    appended.append(head);
    appended.append({});
    appended.append(tail);
    EXPECT_EQ(appended.heldBytes(), pushed.heldBytes());
    std::vector<Tick> all = head;
    all.insert(all.end(), tail.begin(), tail.end());
    EXPECT_EQ(drain(pushed, 0), all);
    EXPECT_EQ(drain(appended, 0), all);
    EXPECT_THROW(appended.append(std::vector<Tick>{1}),
                 infless::sim::PanicError);
}

TEST(TickLogTest, TaggedRecordsMayStepBack)
{
    struct Sample
    {
        Tick tick;
        std::uint32_t tag;
    };
    std::vector<Sample> samples = {{100, 0},    {100, 7},  {40, 65535},
                                   {kBig, 1},   {0, 2},    {-kBig, 3},
                                   {kBig, 0xffffffffu}};
    TickLog log(1, /*tagged=*/true);
    for (const Sample &s : samples)
        log.push(s.tick, s.tag);
    for (const Sample &s : samples) {
        ASSERT_FALSE(log.done(0));
        TickLog::Record r = log.take(0);
        EXPECT_EQ(r.tick, s.tick);
        EXPECT_EQ(r.tag, s.tag);
    }
    EXPECT_TRUE(log.done(0));
}

TEST(TickLogTest, UntaggedLogRejectsBackwardTicksAndTags)
{
    TickLog log;
    log.push(10);
    EXPECT_THROW(log.push(9), infless::sim::PanicError);
    EXPECT_THROW(log.push(11, 1), infless::sim::PanicError);
    EXPECT_THROW(TickLog(0), infless::sim::PanicError);
}

TEST(TickLogTest, DenseArrivalsCostAboutTwoBytes)
{
    // 1 kHz arrivals: 1,000 µs gaps are two-byte varints.
    TickLog log;
    constexpr int kN = 100'000;
    for (int i = 0; i < kN; ++i)
        log.push(Tick{i} * 1'000);
    EXPECT_LE(log.heldBytes(), std::size_t{kN} * 2 * 102 / 100 +
                                   TickLog::kChunkBytes);
}

TEST(TickLogTest, TwoCursorsTrimIndependently)
{
    // The LSTH shape: cursor 0 is a 1 h window, cursor 1 a 24 h one,
    // over a 30 rps Poisson stream of tagged samples.
    TickLog log(2, /*tagged=*/true);
    Rng rng(5);
    std::vector<Tick> stamps;
    Tick now = 0;
    while (now < 3 * kTicksPerHour) {
        now += static_cast<Tick>(rng.exponential(30.0) * kTicksPerSec);
        log.push(now, static_cast<std::uint32_t>(stamps.size() % 5));
        stamps.push_back(now);
    }
    std::size_t fast = 0;
    std::size_t slow = 0;
    auto trim = [&](std::size_t c, std::size_t &read, Tick cutoff) {
        while (!log.done(c) && log.peek(c).tick < cutoff) {
            TickLog::Record r = log.take(c);
            ASSERT_EQ(r.tick, stamps[read]);
            ASSERT_EQ(r.tag, read % 5);
            ++read;
        }
    };
    std::size_t full = log.heldBytes();
    trim(0, fast, now - kTicksPerHour);
    // The 24 h cursor has read nothing, so every chunk stays.
    EXPECT_EQ(log.heldBytes(), full);
    EXPECT_EQ(log.unread(1), stamps.size());
    EXPECT_LT(log.unread(0), stamps.size() / 2);

    trim(1, slow, now - 2 * kTicksPerHour);
    // Chunks behind the 24 h cursor (behind both) are gone; the 1 h
    // cursor's lead does not free more.
    std::size_t after = log.heldBytes();
    EXPECT_LT(after, full * 3 / 4);
    EXPECT_GT(after, full / 2);

    trim(1, slow, now - kTicksPerHour + 1);
    EXPECT_LT(log.heldBytes(), full * 2 / 5);
    trim(0, fast, now + 1);
    trim(1, slow, now + 1);
    EXPECT_EQ(fast, stamps.size());
    EXPECT_EQ(slow, stamps.size());
    EXPECT_EQ(log.heldBytes(), 0u);
}

TEST(TickLogTest, CursorParkedAtChunkEndReadsLaterPushes)
{
    // Cursor 1 never reads, so no chunk is freed; cursor 0 reads every
    // record as soon as it lands, parking at the end of each chunk until
    // a push opens the next.
    TickLog log(2);
    std::vector<Tick> seen;
    std::vector<Tick> pushed;
    Tick t = 0;
    while (log.heldBytes() <= 3 * TickLog::kChunkBytes) {
        t += (pushed.size() % 3 == 0) ? kBig : 70;
        log.push(t);
        pushed.push_back(t);
        ASSERT_FALSE(log.done(0));
        seen.push_back(log.take(0).tick);
        ASSERT_TRUE(log.done(0));
    }
    EXPECT_EQ(seen, pushed);
    EXPECT_EQ(drain(log, 1), pushed);
}

TEST(TickLogTest, FullyReadLogRestartsAfterFreeingEverything)
{
    TickLog log;
    for (Tick t = 0; t < 5'000; ++t)
        log.push(t * 3);
    EXPECT_GE(log.heldBytes(), TickLog::kChunkBytes);
    EXPECT_EQ(drain(log, 0).size(), 5'000u);
    EXPECT_EQ(log.heldBytes(), 0u);
    // Later pushes continue the delta chain from the last tick.
    log.push(20'000);
    log.push(20'000 + kBig);
    EXPECT_EQ(log.heldBytes(), TickLog::kChunkBytes);
    EXPECT_EQ(drain(log, 0), (std::vector<Tick>{20'000, 20'000 + kBig}));
    EXPECT_EQ(log.heldBytes(), 0u);
}

TEST(TickLogTest, ChunksFreeOnlyOnceEveryCursorPassed)
{
    TickLog log(3);
    constexpr int kN = 40'000;
    for (int i = 0; i < kN; ++i)
        log.push(Tick{i} * 200); // two bytes per tick
    std::size_t full = log.heldBytes();
    ASSERT_GE(full, 10 * TickLog::kChunkBytes);
    auto advance = [&](std::size_t c, int n) {
        for (int i = 0; i < n; ++i)
            log.take(c);
    };
    advance(0, kN / 2);
    advance(1, kN / 2);
    EXPECT_EQ(log.heldBytes(), full); // cursor 2 still at the start
    advance(2, kN / 4);
    std::size_t quarter = log.heldBytes();
    EXPECT_LT(quarter, full);
    EXPECT_GE(quarter, full * 3 / 4 - TickLog::kChunkBytes);
    advance(2, kN / 2);
    // Cursor 2 leads now; cursors 0 and 1 hold the log at kN / 2.
    EXPECT_LE(log.heldBytes(), full / 2 + TickLog::kChunkBytes);
    advance(0, kN / 2);
    advance(1, kN / 2);
    advance(2, kN / 4);
    EXPECT_TRUE(log.done(0) && log.done(1) && log.done(2));
    EXPECT_EQ(log.heldBytes(), 0u);
}

} // namespace
