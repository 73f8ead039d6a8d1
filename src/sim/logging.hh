/**
 * @file
 * Error reporting in the gem5 idiom.
 *
 * panic() flags an internal invariant violation (a bug in this library);
 * fatal() flags a user error (bad configuration or arguments). Both raise
 * exceptions rather than aborting so unit tests can assert on them.
 *
 * warn() reports a recoverable anomaly and continues: it formats a
 * "warn: " message and hands it to a sink that defaults to stderr; tests
 * intercept it through setWarnHandler().
 */

#ifndef INFLESS_SIM_LOGGING_HH
#define INFLESS_SIM_LOGGING_HH

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

/** Warning sink; defaults to stderr. Tests may swap it to capture. */
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

/**
 * Install a custom warning sink (pass nullptr-like empty to restore the
 * stderr default). Returns the previous handler.
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

/** Report a recoverable anomaly and continue. */
template <typename... Parts>
void
warn(const Parts &...parts)
{
    std::ostringstream os;
    os << "warn: ";
    detail::appendAll(os, parts...);
    detail::warnHandler()(os.str());
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
