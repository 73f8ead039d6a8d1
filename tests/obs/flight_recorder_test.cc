/**
 * @file
 * Unit tests for the flight recorder: always-on bounded ring, freeze-on-
 * first-trigger semantics, and the Perfetto-loadable dump format.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mini_json.hh"
#include "obs/trace_recorder.hh"

namespace {

using infless::obs::FlightConfig;
using infless::obs::FlightRecorder;
using infless::obs::FlightTrigger;
using infless::obs::kFlightCapacity;
using infless::obs::SpanKind;
using infless::sim::Tick;

FlightRecorder
makeRecorder()
{
    FlightConfig cfg;
    cfg.enabled = true;
    FlightRecorder recorder;
    recorder.configure(cfg);
    return recorder;
}

void
recordExec(FlightRecorder &recorder, std::int64_t request, Tick start)
{
    recorder.record(SpanKind::Exec, request, /*function=*/0, /*server=*/1,
                    /*instance=*/request, start, /*duration=*/10);
}

TEST(FlightRecorderTest, DisabledByDefaultAndIgnoresTriggers)
{
    FlightRecorder recorder;
    recorder.configure(FlightConfig{});
    EXPECT_FALSE(recorder.enabled());
    recorder.trigger(FlightTrigger::Manual, 100);
    EXPECT_FALSE(recorder.triggered());
    EXPECT_EQ(recorder.triggerCount(), 0u);
    EXPECT_TRUE(recorder.dump().empty());
    EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(FlightRecorderTest, NoneTriggerIsANoOp)
{
    FlightRecorder recorder = makeRecorder();
    recorder.trigger(FlightTrigger::None, 100);
    EXPECT_FALSE(recorder.triggered());
    EXPECT_EQ(recorder.triggerCount(), 0u);
}

TEST(FlightRecorderTest, RecordsEverySpanWithoutSampling)
{
    FlightRecorder recorder = makeRecorder();
    for (std::int64_t r = 0; r < 5; ++r)
        recordExec(recorder, r, 100 * r);
    EXPECT_EQ(recorder.recorded(), 5u);
    EXPECT_FALSE(recorder.triggered());
    EXPECT_TRUE(recorder.dump().empty());
}

TEST(FlightRecorderTest, FirstTriggerFreezesTheDump)
{
    FlightRecorder recorder = makeRecorder();
    recordExec(recorder, 0, 100);
    recordExec(recorder, 1, 200);
    recorder.trigger(FlightTrigger::Manual, 250);

    ASSERT_TRUE(recorder.triggered());
    EXPECT_EQ(recorder.triggerCause(), FlightTrigger::Manual);
    EXPECT_EQ(recorder.triggerAt(), 250);
    // Dump = the two spans + the FlightDump marker at the incident,
    // encoding the cause in the request field.
    ASSERT_EQ(recorder.dump().size(), 3u);
    EXPECT_EQ(recorder.dump().back().kind, SpanKind::FlightDump);
    EXPECT_EQ(recorder.dump().back().start, 250);
    EXPECT_EQ(recorder.dump().back().request,
              static_cast<std::int64_t>(FlightTrigger::Manual));

    // Later spans and triggers never change the frozen dump: it always
    // shows the FIRST incident.
    recordExec(recorder, 2, 300);
    recorder.trigger(FlightTrigger::ServerCrash, 400);
    EXPECT_EQ(recorder.dump().size(), 3u);
    EXPECT_EQ(recorder.triggerCause(), FlightTrigger::Manual);
    EXPECT_EQ(recorder.triggerAt(), 250);
    EXPECT_EQ(recorder.triggerCount(), 2u);
    EXPECT_EQ(recorder.recorded(), 3u);
}

TEST(FlightRecorderTest, SpansAfterTheFreezeAreOnlyCounted)
{
    FlightRecorder recorder = makeRecorder();
    recordExec(recorder, 0, 100);
    recorder.clusterEvent(SpanKind::ServerCrash, /*server=*/1, 150);
    recorder.trigger(FlightTrigger::ServerCrash, 150);
    const std::vector<infless::obs::SpanRecord> frozen = recorder.dump();
    std::ostringstream before;
    recorder.writeChromeTrace(before);

    // More than a ring's worth, so a ring still being written would
    // have wrapped past everything the dump was taken from.
    const auto after = static_cast<std::int64_t>(kFlightCapacity) + 3;
    for (std::int64_t r = 1; r <= after; ++r)
        recordExec(recorder, r, 200 + r);
    recorder.clusterEvent(SpanKind::ServerRecovery, /*server=*/1, 900);

    ASSERT_EQ(recorder.dump().size(), frozen.size());
    for (std::size_t i = 0; i < frozen.size(); ++i) {
        EXPECT_EQ(recorder.dump()[i].kind, frozen[i].kind);
        EXPECT_EQ(recorder.dump()[i].request, frozen[i].request);
        EXPECT_EQ(recorder.dump()[i].start, frozen[i].start);
    }
    EXPECT_EQ(recorder.recorded(), static_cast<std::uint64_t>(2 + after + 1));
    std::ostringstream later;
    recorder.writeChromeTrace(later);
    EXPECT_EQ(later.str(), before.str());
}

TEST(FlightRecorderTest, RingBoundsTheEvidence)
{
    FlightRecorder recorder = makeRecorder();
    const auto total = static_cast<std::int64_t>(kFlightCapacity) + 6;
    for (std::int64_t r = 0; r < total; ++r)
        recordExec(recorder, r, 100 * r);
    recorder.trigger(FlightTrigger::SloFastBurn, 100 * total);
    // Last kFlightCapacity spans (requests 6..total-1) + marker, oldest
    // first.
    ASSERT_EQ(recorder.dump().size(), kFlightCapacity + 1);
    EXPECT_EQ(recorder.dump().front().request, 6);
    EXPECT_EQ(recorder.dump()[kFlightCapacity - 1].request, total - 1);
    EXPECT_EQ(recorder.recorded(), static_cast<std::uint64_t>(total));
}

TEST(FlightRecorderTest, ClusterEventsLandInTheRing)
{
    FlightRecorder recorder = makeRecorder();
    recorder.clusterEvent(SpanKind::ServerCrash, /*server=*/3, 500);
    recorder.trigger(FlightTrigger::ServerCrash, 500);
    ASSERT_EQ(recorder.dump().size(), 2u);
    EXPECT_EQ(recorder.dump()[0].kind, SpanKind::ServerCrash);
    EXPECT_EQ(recorder.dump()[0].server, 3);
}

TEST(FlightRecorderTest, DumpWritesValidChromeTraceWithMarker)
{
    FlightRecorder recorder = makeRecorder();
    recordExec(recorder, 0, 100);
    recorder.clusterEvent(SpanKind::ServerCrash, 1, 150);
    recorder.trigger(FlightTrigger::ServerCrash, 150);

    std::ostringstream os;
    recorder.writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_TRUE(infless::testing::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"flight_dump\""), std::string::npos);
    EXPECT_NE(json.find("\"server_crash\""), std::string::npos);
    // The marker carries the trigger cause for the Perfetto args pane.
    std::ostringstream want;
    want << "\"trigger\": "
         << static_cast<int>(FlightTrigger::ServerCrash);
    EXPECT_NE(json.find(want.str()), std::string::npos) << json;
}

TEST(FlightRecorderTest, UntriggeredWriteEmitsTheLiveRing)
{
    FlightRecorder recorder = makeRecorder();
    recordExec(recorder, 0, 100);
    std::ostringstream os;
    recorder.writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_TRUE(infless::testing::jsonValid(json)) << json;
    EXPECT_EQ(json.find("flight_dump"), std::string::npos);
    EXPECT_NE(json.find("\"exec\""), std::string::npos);
}

TEST(FlightRecorderTest, ReconfigureResetsTriggerState)
{
    FlightRecorder recorder = makeRecorder();
    recordExec(recorder, 0, 100);
    recorder.trigger(FlightTrigger::Manual, 200);
    ASSERT_TRUE(recorder.triggered());
    recordExec(recorder, 1, 300);
    ASSERT_EQ(recorder.recorded(), 2u);

    FlightConfig cfg;
    cfg.enabled = true;
    recorder.configure(cfg);
    EXPECT_FALSE(recorder.triggered());
    EXPECT_EQ(recorder.triggerCause(), FlightTrigger::None);
    EXPECT_EQ(recorder.triggerCount(), 0u);
    EXPECT_TRUE(recorder.dump().empty());
    EXPECT_EQ(recorder.recorded(), 0u);
}

} // namespace
