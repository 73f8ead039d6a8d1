/**
 * @file
 * Tests for Azure-style trace CSV reading.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "workload/trace_io.hh"

namespace {

using infless::sim::FatalError;
using infless::sim::kTicksPerMin;
using infless::workload::readAzureCsv;
using infless::workload::TraceSet;

TEST(TraceIoTest, CountsPerMinuteBecomeRps)
{
    std::stringstream buffer("function,1,2,3\n"
                             "fn-a,60,120,30\n"
                             "fn-b,0,600,180\n");
    TraceSet in = readAzureCsv(buffer);

    ASSERT_EQ(in.size(), 2u);
    ASSERT_EQ(in["fn-a"].rps.size(), 3u);
    EXPECT_EQ(in["fn-a"].binWidth, kTicksPerMin);
    EXPECT_DOUBLE_EQ(in["fn-a"].rps[0], 1.0);
    EXPECT_DOUBLE_EQ(in["fn-a"].rps[1], 2.0);
    EXPECT_DOUBLE_EQ(in["fn-a"].rps[2], 0.5);
    EXPECT_DOUBLE_EQ(in["fn-b"].rps[0], 0.0);
    EXPECT_DOUBLE_EQ(in["fn-b"].rps[1], 10.0);
    EXPECT_DOUBLE_EQ(in["fn-b"].rps[2], 3.0);
}

TEST(TraceIoTest, ZeroPaddedRowsKeepEveryMinute)
{
    // A series shorter than the file carries zero counts to the end.
    std::stringstream buffer("function,1,2,3,4\n"
                             "long,60,60,60,60\n"
                             "short,120,0,0,0\n");
    TraceSet in = readAzureCsv(buffer);
    ASSERT_EQ(in["short"].rps.size(), 4u);
    EXPECT_DOUBLE_EQ(in["short"].rps[0], 2.0);
    EXPECT_DOUBLE_EQ(in["short"].rps[1], 0.0);
    EXPECT_DOUBLE_EQ(in["short"].rps[3], 0.0);
}

TEST(TraceIoTest, EachRowBecomesItsOwnNamedSeries)
{
    // Rows map to series by name whatever their order, and one row's
    // counts never leak into another's.
    std::stringstream buffer("function,1,2\n"
                             "periodic,300,0\n"
                             "bursty,0,6000\n"
                             "sporadic,6,6\n");
    TraceSet in = readAzureCsv(buffer);
    ASSERT_EQ(in.size(), 3u);
    EXPECT_EQ(in["periodic"].rps, (std::vector<double>{5.0, 0.0}));
    EXPECT_EQ(in["bursty"].rps, (std::vector<double>{0.0, 100.0}));
    EXPECT_EQ(in["sporadic"].rps, (std::vector<double>{0.1, 0.1}));
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

TEST(TraceIoTest, MissingFileIsFatal)
{
    EXPECT_THROW(readAzureCsv("/nonexistent/dir/trace.csv"), FatalError);
}

} // namespace
