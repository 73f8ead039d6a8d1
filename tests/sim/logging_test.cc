/**
 * @file
 * Unit tests for the panic/fatal/warn helpers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace {

using infless::sim::fatal;
using infless::sim::FatalError;
using infless::sim::panic;
using infless::sim::PanicError;
using infless::sim::setWarnHandler;
using infless::sim::simAssert;
using infless::sim::warn;

/** RAII capture of the warning sink. */
class WarnCapture
{
  public:
    WarnCapture()
        : prevHandler_(setWarnHandler(
              [this](const std::string &msg) { lines.push_back(msg); }))
    {
    }

    ~WarnCapture() { setWarnHandler(prevHandler_); }

    std::vector<std::string> lines;

  private:
    std::function<void(const std::string &)> prevHandler_;
};

TEST(LoggingTest, PanicThrowsWithMessage)
{
    try {
        panic("bad thing ", 42);
        FAIL() << "panic did not throw";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: bad thing 42");
    }
}

TEST(LoggingTest, FatalThrowsWithMessage)
{
    try {
        fatal("user error: ", "missing model");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: user error: missing model");
    }
}

TEST(LoggingTest, SimAssertPassesOnTrue)
{
    EXPECT_NO_THROW(simAssert(true, "never shown"));
}

TEST(LoggingTest, SimAssertPanicsOnFalse)
{
    EXPECT_THROW(simAssert(false, "invariant broken"), PanicError);
}

TEST(LoggingTest, PanicIsALogicError)
{
    EXPECT_THROW(panic("x"), std::logic_error);
}

TEST(LoggingTest, FatalIsARuntimeError)
{
    EXPECT_THROW(fatal("x"), std::runtime_error);
}

TEST(LoggingTest, WarnReachesTheHandlerWithItsPrefix)
{
    WarnCapture capture;
    warn("legacy ", 7);
    EXPECT_EQ(capture.lines, (std::vector<std::string>{"warn: legacy 7"}));
}

TEST(LoggingTest, SetWarnHandlerReturnsPrevious)
{
    std::vector<std::string> first;
    std::vector<std::string> second;
    auto original = setWarnHandler(
        [&](const std::string &msg) { first.push_back(msg); });
    auto previous = setWarnHandler(
        [&](const std::string &msg) { second.push_back(msg); });
    // The returned handler is the one installed before.
    previous("direct");
    warn("routed");
    setWarnHandler(original);
    EXPECT_EQ(first, (std::vector<std::string>{"direct"}));
    EXPECT_EQ(second, (std::vector<std::string>{"warn: routed"}));
}

TEST(LoggingTest, MessagesFormatMultipleParts)
{
    WarnCapture capture;
    warn("fault: server ", 3, " crashed at t=", 1.5, "s");
    ASSERT_EQ(capture.lines.size(), 1u);
    EXPECT_EQ(capture.lines[0], "warn: fault: server 3 crashed at t=1.5s");
}

} // namespace
