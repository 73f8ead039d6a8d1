/**
 * @file
 * The request table: arrival-order ids that are never reused, retire
 * exactly once, chunks freed once fully retired so held memory follows
 * in-flight work, and — on a full platform under crashes,
 * a zone outage, sheds, evictions, failovers and a 3-stage chain — one
 * live record per in-flight request at every scaler tick.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/platform.hh"
#include "core/request_table.hh"
#include "sim/logging.hh"
#include "workload/generators.hh"

namespace {

using infless::core::ChainSpec;
using infless::core::FunctionSpec;
using infless::core::Platform;
using infless::core::PlatformOptions;
using infless::core::RequestIndex;
using infless::core::RequestRecord;
using infless::core::RequestTable;
using infless::overload::OverloadConfig;
using infless::sim::kTicksPerSec;
using infless::sim::msToTicks;
using infless::sim::PanicError;
using infless::workload::uniformArrivals;

constexpr auto kChunk = static_cast<RequestIndex>(RequestTable::kChunkRecords);
constexpr std::size_t kChunkBytes =
    RequestTable::kChunkRecords * sizeof(RequestRecord);

RequestRecord
recordFor(RequestIndex id)
{
    RequestRecord r;
    r.function = static_cast<infless::core::FunctionId>(id % 7);
    r.arrival = id * 3;
    return r;
}

TEST(RequestTableTest, IdsAreArrivalOrderAndNeverReused)
{
    RequestTable table;
    for (RequestIndex i = 0; i < 3 * kChunk + 5; ++i) {
        ASSERT_EQ(table.add(recordFor(i)), i);
        // Retiring immediately frees whole chunks, yet ids keep counting.
        if (i % 2 == 1) {
            table.retire(i - 1);
            table.retire(i);
        }
    }
    EXPECT_EQ(table.add(recordFor(0)), 3 * kChunk + 5);
}

TEST(RequestTableTest, DoubleRetirePanics)
{
    RequestTable table;
    RequestIndex id = table.add(recordFor(0));
    table.add(recordFor(1));
    table.retire(id);
    EXPECT_THROW(table.retire(id), PanicError);
    EXPECT_EQ(table.live(), 1);
}

TEST(RequestTableTest, UnknownIdPanics)
{
    RequestTable table;
    EXPECT_THROW(table[0], PanicError);
    table.add(recordFor(0));
    EXPECT_THROW(table[1], PanicError);
    EXPECT_THROW(table[-1], PanicError);
    EXPECT_THROW(table.retire(1), PanicError);
}

TEST(RequestTableTest, ReadingRetiredIdPanicsEvenAfterRecycle)
{
    RequestTable table;
    for (RequestIndex i = 0; i < kChunk; ++i)
        table.add(recordFor(i));
    table.retire(5);
    EXPECT_THROW(table[5], PanicError);
    EXPECT_EQ(table[6].arrival, 18); // neighbours unaffected
    for (RequestIndex i = 0; i < kChunk; ++i) {
        if (i != 5)
            table.retire(i);
    }
    // The chunk left the index; its ids stay dead once it is reused.
    EXPECT_THROW(table[5], PanicError);
    EXPECT_THROW(table.retire(5), PanicError);
    for (RequestIndex i = 0; i < kChunk; ++i)
        table.add(recordFor(kChunk + i));
    EXPECT_THROW(table[5], PanicError);
    EXPECT_THROW(table[0], PanicError);
    EXPECT_EQ(table[kChunk + 5].arrival, (kChunk + 5) * 3);
}

TEST(RequestTableTest, FullyRetiredChunksAreFreed)
{
    RequestTable table;
    for (RequestIndex i = 0; i < kChunk; ++i)
        table.add(recordFor(i));
    EXPECT_EQ(table.heldBytes(), kChunkBytes);
    for (RequestIndex i = 0; i < kChunk; ++i)
        table.retire(i);
    EXPECT_EQ(table.heldBytes(), 0u);
    // The next id opens a new chunk with a live record in it.
    RequestIndex next = table.add(recordFor(kChunk));
    EXPECT_EQ(table.heldBytes(), kChunkBytes);
    EXPECT_EQ(table[next].arrival, kChunk * 3);
    EXPECT_FALSE(table[next].retired);
}

TEST(RequestTableTest, PartiallyFilledTailIsNeverReleased)
{
    RequestTable table;
    RequestIndex a = table.add(recordFor(0));
    table.retire(a);
    // Every issued id of the tail chunk retired, but it is still filling.
    RequestIndex b = table.add(recordFor(1));
    EXPECT_EQ(table[b].arrival, 3);
    EXPECT_EQ(table.live(), 1);
}

TEST(RequestTableTest, LiveMatchesAModelUnderRandomChurn)
{
    RequestTable table;
    std::set<RequestIndex> model;
    std::mt19937_64 rng(7);
    RequestIndex next = 0;
    for (int step = 0; step < 60000; ++step) {
        // Bias toward adds early and retires late, so chunks fill, drain
        // and recycle while some stragglers stay live across many chunks.
        bool add = model.empty() ||
                   std::uniform_int_distribution<int>(0, 99)(rng) <
                       (step < 40000 ? 55 : 30);
        if (add) {
            ASSERT_EQ(table.add(recordFor(next)), next);
            model.insert(next++);
        } else {
            auto it = model.begin();
            std::advance(it, std::uniform_int_distribution<std::size_t>(
                                 0, std::min<std::size_t>(model.size(), 64) -
                                        1)(rng));
            table.retire(*it);
            model.erase(it);
        }
        ASSERT_EQ(table.live(), static_cast<std::int64_t>(model.size()));
    }
    for (RequestIndex id : model)
        ASSERT_EQ(table[id].arrival, id * 3);
    for (RequestIndex id : model)
        table.retire(id);
    EXPECT_EQ(table.live(), 0);
}

TEST(RequestTableMemoryTest, HeldBytesFollowInFlightWork)
{
    // 100k requests, about 200 in flight, and one straggler (id 0) that
    // retires only at the end: the table holds the straggler's chunk
    // plus the chunks the in-flight window spans, however many ids were
    // issued.
    RequestTable table;
    RequestIndex straggler = table.add(recordFor(0));
    std::deque<RequestIndex> in_flight;
    std::size_t peak = 0;
    for (RequestIndex i = 1; i < 100'000; ++i) {
        in_flight.push_back(table.add(recordFor(i)));
        if (in_flight.size() > 200) {
            table.retire(in_flight.front());
            in_flight.pop_front();
        }
        peak = std::max(peak, table.heldBytes());
    }
    EXPECT_LE(peak, 3 * kChunkBytes);
    // A chunk is small enough to come from malloc's arena rather than
    // its own mapping (glibc's default mmap threshold is 128 KiB).
    EXPECT_LT(kChunkBytes, 128u * 1024);

    // The straggler's chunk and the tail chunk, which is still filling.
    for (RequestIndex id : in_flight)
        table.retire(id);
    EXPECT_EQ(table.heldBytes(), 2 * kChunkBytes);
    table.retire(straggler);
    EXPECT_EQ(table.heldBytes(), kChunkBytes);
    EXPECT_EQ(table.live(), 0);
}

// ---------------------------------------------------------------------------

TEST(PlatformRequestTableTest, RecordsTrackInFlightThroughChaos)
{
    PlatformOptions opts;
    opts.topology.zones = 3;
    opts.topology.racksPerZone = 1;
    opts.topology.rackSize = 2;
    opts.faults.serverMtbfSec = 20.0;
    opts.faults.serverMttrSec = 5.0;
    opts.faults.startupFailureProb = 0.05;
    opts.faults.domainOutageAt = 15 * kTicksPerSec;
    opts.faults.domainOutageTarget = 0;
    opts.faults.domainOutageMttrSec = 8.0;
    // No new crashes in the last stretch so failover chains can drain.
    opts.faults.crashHorizon = 40 * kTicksPerSec;
    // Breaker sheds instead of admission sheds, so queues fill with
    // doomed heads for eviction.
    opts.overload = OverloadConfig::fullStack();
    opts.overload.admission.enabled = false;

    Platform p(6, std::move(opts));
    FunctionSpec spec;
    spec.name = "resnet";
    spec.model = "ResNet-50";
    spec.sloTicks = msToTicks(200);
    auto fn = p.deploy(spec);
    ChainSpec chain;
    chain.name = "osvt";
    chain.models = {"SSD", "MobileNet", "ResNet-50"};
    chain.sloTicks = msToTicks(400);
    auto ch = p.deployChain(chain);
    p.injectTrace(fn, uniformArrivals(1500.0, 40 * kTicksPerSec));
    p.injectTrace(p.chainStages(ch).front(),
                  uniformArrivals(40.0, 40 * kTicksPerSec));

    int audits = 0;
    std::vector<std::string> failures;
    auto audit = p.simulation().every(kTicksPerSec, [&] {
        ++audits;
        // The audit includes live records == Σ in-flight.
        std::string diag;
        if (!p.auditConservation(&diag))
            failures.push_back(diag);
    });
    p.run(70 * kTicksPerSec);
    audit->stop();

    EXPECT_GE(audits, 60);
    EXPECT_TRUE(failures.empty()) << failures.front();
    const auto &m = p.totalMetrics();
    EXPECT_GT(m.serverCrashes(), 0);
    EXPECT_GT(m.domainOutages(), 0);
    EXPECT_GT(m.sheds() + m.breakerSheds(), 0);
    EXPECT_GT(m.queueEvictions(), 0);
    EXPECT_GT(m.retries(), 0);
    EXPECT_GT(p.chainMetrics(ch).completions(), 0);
    // Drained: nothing in flight, so no record is left.
    EXPECT_EQ(p.inFlightRequests(), 0);
    EXPECT_EQ(p.liveRequestRecords(), 0);
    EXPECT_TRUE(p.auditConservation());
}

} // namespace
