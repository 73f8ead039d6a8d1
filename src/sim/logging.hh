/**
 * @file
 * Error-reporting and leveled logging in the gem5 idiom.
 *
 * panic() flags an internal invariant violation (a bug in this library);
 * fatal() flags a user error (bad configuration or arguments). Both raise
 * exceptions rather than aborting so unit tests can assert on them.
 *
 * Everything non-throwing goes through the leveled logger: logError(),
 * logWarn() (alias warn()), logInfo() and logDebug() format a message and
 * hand it to the swappable sink when the level passes the threshold. The
 * threshold defaults to Warn and is read once from the INFLESS_LOG_LEVEL
 * environment variable ("error" | "warn" | "info" | "debug"); tests and
 * tools can override it at runtime with setLogLevel(). The sink defaults
 * to stderr; tests can intercept every level through setWarnHandler().
 */

#ifndef INFLESS_SIM_LOGGING_HH
#define INFLESS_SIM_LOGGING_HH

#include <cctype>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace infless::sim {

/** Raised by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Raised by fatal(): the caller supplied an unusable configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Logger severities, most severe first. */
enum class LogLevel : int
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

namespace detail {

inline void
appendAll(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
appendAll(std::ostringstream &os, const T &value, const Rest &...rest)
{
    os << value;
    appendAll(os, rest...);
}

/** Message prefix of a level ("warn: " keeps the historical format). */
inline const char *
levelPrefix(LogLevel level)
{
    switch (level) {
      case LogLevel::Error:
        return "error: ";
      case LogLevel::Warn:
        return "warn: ";
      case LogLevel::Info:
        return "info: ";
      case LogLevel::Debug:
        return "debug: ";
    }
    return "";
}

/** Parse an INFLESS_LOG_LEVEL value; unknown strings keep the default. */
inline LogLevel
parseLogLevel(const char *text, LogLevel fallback)
{
    if (!text)
        return fallback;
    std::string s(text);
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (s == "error" || s == "0")
        return LogLevel::Error;
    if (s == "warn" || s == "warning" || s == "1")
        return LogLevel::Warn;
    if (s == "info" || s == "2")
        return LogLevel::Info;
    if (s == "debug" || s == "3")
        return LogLevel::Debug;
    return fallback;
}

/** Threshold: messages above it are suppressed. Seeded once from the
 *  environment; setLogLevel() overrides. */
inline LogLevel &
logThreshold()
{
    static LogLevel level = parseLogLevel(std::getenv("INFLESS_LOG_LEVEL"),
                                          LogLevel::Warn);
    return level;
}

/** Message sink for every passing level; defaults to stderr. Tests may
 *  swap it to capture. */
inline std::function<void(const std::string &)> &
warnHandler()
{
    static std::function<void(const std::string &)> handler =
        [](const std::string &msg) { std::cerr << msg << "\n"; };
    return handler;
}

} // namespace detail

/**
 * Report an internal invariant violation.
 *
 * @param parts Message fragments, streamed together.
 */
template <typename... Parts>
[[noreturn]] void
panic(const Parts &...parts)
{
    std::ostringstream os;
    os << "panic: ";
    detail::appendAll(os, parts...);
    throw PanicError(os.str());
}

/**
 * Report an unusable user-supplied configuration.
 *
 * @param parts Message fragments, streamed together.
 */
template <typename... Parts>
[[noreturn]] void
fatal(const Parts &...parts)
{
    std::ostringstream os;
    os << "fatal: ";
    detail::appendAll(os, parts...);
    throw FatalError(os.str());
}

/** Override the logging threshold; returns the previous one. */
inline LogLevel
setLogLevel(LogLevel level)
{
    LogLevel previous = detail::logThreshold();
    detail::logThreshold() = level;
    return previous;
}

/**
 * Install a custom message sink (pass nullptr-like empty to restore the
 * stderr default). The sink receives every level that passes the
 * threshold, not only warnings. Returns the previous handler.
 */
inline std::function<void(const std::string &)>
setWarnHandler(std::function<void(const std::string &)> handler)
{
    auto previous = detail::warnHandler();
    detail::warnHandler() =
        handler ? std::move(handler)
                : [](const std::string &msg) { std::cerr << msg << "\n"; };
    return previous;
}

/**
 * Emit a message at @p level; filtered against the threshold, prefixed
 * ("warn: ", "info: ", ...) and handed to the sink.
 */
template <typename... Parts>
void
logMessage(LogLevel level, const Parts &...parts)
{
    if (level > detail::logThreshold())
        return;
    std::ostringstream os;
    os << detail::levelPrefix(level);
    detail::appendAll(os, parts...);
    detail::warnHandler()(os.str());
}

/** A non-recoverable-but-survivable condition (always of interest). */
template <typename... Parts>
void
logError(const Parts &...parts)
{
    logMessage(LogLevel::Error, parts...);
}

/** A recoverable anomaly. */
template <typename... Parts>
void
logWarn(const Parts &...parts)
{
    logMessage(LogLevel::Warn, parts...);
}

/** Operational progress (fault injections, lifecycle transitions). */
template <typename... Parts>
void
logInfo(const Parts &...parts)
{
    logMessage(LogLevel::Info, parts...);
}

/** High-volume diagnostics. */
template <typename... Parts>
void
logDebug(const Parts &...parts)
{
    logMessage(LogLevel::Debug, parts...);
}

/**
 * Report a recoverable anomaly and continue (historical name; identical
 * to logWarn()).
 */
template <typename... Parts>
void
warn(const Parts &...parts)
{
    logMessage(LogLevel::Warn, parts...);
}

/** Assert an invariant, panicking with a message when it does not hold. */
template <typename... Parts>
void
simAssert(bool condition, const Parts &...parts)
{
    if (!condition)
        panic(parts...);
}

} // namespace infless::sim

#endif // INFLESS_SIM_LOGGING_HH
