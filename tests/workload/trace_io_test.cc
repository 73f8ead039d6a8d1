/**
 * @file
 * Tests for Azure-style trace CSV reading and writing.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/logging.hh"

#include "workload/azure_synth.hh"
#include "workload/trace_io.hh"

namespace {

using infless::sim::FatalError;
using infless::sim::kTicksPerMin;
using infless::workload::RateSeries;
using infless::workload::readAzureCsv;
using infless::workload::TraceSet;
using infless::workload::writeAzureCsv;

RateSeries
minuteSeries(std::vector<double> rps)
{
    RateSeries series;
    series.binWidth = kTicksPerMin;
    series.rps = std::move(rps);
    return series;
}

TEST(TraceIoTest, RoundTripPreservesCounts)
{
    TraceSet out;
    out["fn-a"] = minuteSeries({1.0, 2.0, 0.5});
    out["fn-b"] = minuteSeries({0.0, 10.0, 3.0});
    std::stringstream buffer;
    writeAzureCsv(buffer, out);
    TraceSet in = readAzureCsv(buffer);

    ASSERT_EQ(in.size(), 2u);
    ASSERT_EQ(in["fn-a"].rps.size(), 3u);
    // Counts are integral per minute: 1.0 RPS -> 60/min -> 1.0 RPS back.
    EXPECT_DOUBLE_EQ(in["fn-a"].rps[0], 1.0);
    EXPECT_DOUBLE_EQ(in["fn-a"].rps[1], 2.0);
    EXPECT_DOUBLE_EQ(in["fn-b"].rps[1], 10.0);
}

TEST(TraceIoTest, ShorterSeriesPadWithZeros)
{
    TraceSet out;
    out["long"] = minuteSeries({1.0, 1.0, 1.0, 1.0});
    out["short"] = minuteSeries({2.0});
    std::stringstream buffer;
    writeAzureCsv(buffer, out);
    TraceSet in = readAzureCsv(buffer);
    ASSERT_EQ(in["short"].rps.size(), 4u);
    EXPECT_DOUBLE_EQ(in["short"].rps[0], 2.0);
    EXPECT_DOUBLE_EQ(in["short"].rps[3], 0.0);
}

TEST(TraceIoTest, HeaderFormat)
{
    TraceSet out;
    out["f"] = minuteSeries({1.0, 2.0});
    std::stringstream buffer;
    writeAzureCsv(buffer, out);
    std::string header;
    std::getline(buffer, header);
    EXPECT_EQ(header, "function,1,2");
}

TEST(TraceIoTest, EmptyInputYieldsEmptySet)
{
    std::stringstream buffer("");
    EXPECT_TRUE(readAzureCsv(buffer).empty());
}

TEST(TraceIoTest, RaggedRowsAreFatal)
{
    std::stringstream buffer("function,1,2\nfn,5\n");
    EXPECT_THROW(readAzureCsv(buffer), FatalError);
}

TEST(TraceIoTest, NonNumericCountsAreFatal)
{
    for (const char *count : {"many", "nan", "inf", "-inf"}) {
        std::stringstream buffer(std::string("function,1\nfn,") + count +
                                 "\n");
        EXPECT_THROW(readAzureCsv(buffer), FatalError) << count;
    }
}

TEST(TraceIoTest, DuplicateFunctionRowsAreFatal)
{
    std::stringstream buffer("function,1,2\nfn,1,2\nfn,3,4\n");
    EXPECT_THROW(readAzureCsv(buffer), FatalError);
}

TEST(TraceIoTest, NegativeCountsAreFatal)
{
    std::stringstream buffer("function,1\nfn,-3\n");
    EXPECT_THROW(readAzureCsv(buffer), FatalError);
}

TEST(TraceIoTest, NonMinuteBinsAreRejectedOnWrite)
{
    TraceSet out;
    RateSeries bad;
    bad.binWidth = kTicksPerMin / 2;
    bad.rps = {1.0};
    out["bad"] = bad;
    std::stringstream buffer;
    EXPECT_THROW(writeAzureCsv(buffer, out), infless::sim::PanicError);
}

TEST(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_THROW(readAzureCsv("/nonexistent/dir/trace.csv"), FatalError);
}

TEST(TraceIoTest, SynthesizedTraceSurvivesRoundTrip)
{
    TraceSet out;
    out["periodic"] = infless::workload::synthesizeTrace(
        infless::workload::TracePattern::Periodic, 5.0, 0.1, 3);
    std::stringstream buffer;
    writeAzureCsv(buffer, out);
    TraceSet in = readAzureCsv(buffer);
    ASSERT_EQ(in["periodic"].rps.size(), out["periodic"].rps.size());
    // Counts quantize to whole invocations per minute: within 1/60 RPS.
    for (std::size_t i = 0; i < in["periodic"].rps.size(); ++i) {
        EXPECT_NEAR(in["periodic"].rps[i], out["periodic"].rps[i],
                    1.0 / 60.0 + 1e-9);
    }
}

} // namespace
