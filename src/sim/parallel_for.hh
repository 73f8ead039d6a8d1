/**
 * @file
 * Fork-join loop for cell parallelism and the bench sweeps.
 *
 * The sharded platform runs its independent cells side by side in one
 * parallelFor per run() call, and the bench sweeps run their points the
 * same way. Each call starts its helper threads, hands out indices
 * through one atomic counter and joins the helpers before it returns;
 * nothing outlives the call.
 *
 * Determinism contract: parallelFor(n, threads, body) invokes body(i)
 * exactly once for every i in [0, n) and returns only after all
 * invocations finished. Which thread runs which index is unspecified, so
 * body(i) must touch only state owned by index i (each cell owns its
 * platform); under that discipline results are byte-identical for every
 * thread count, including the serial one.
 */

#ifndef INFLESS_SIM_PARALLEL_FOR_HH
#define INFLESS_SIM_PARALLEL_FOR_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace infless::sim {

/** The thread count that parallelFor's threads == 0 stands for: the
 *  hardware concurrency, at least 1. */
inline std::size_t
defaultThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Run body(i) for every i in [0, n) on min(threads, n) threads, the
 * caller included, and return once all invocations completed.
 *
 * @p threads of 0 picks defaultThreads(); 1 runs every index serially on
 * the caller, in order. The first exception thrown by any invocation is
 * rethrown on the caller after the helpers joined; no index is claimed
 * after it.
 */
template <typename Body>
void
parallelFor(std::size_t n, std::size_t threads, Body &&body)
{
    if (threads == 0)
        threads = defaultThreads();
    threads = std::min(threads, n);
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr error;
    auto claim = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
                // Exhaust the counter so no thread claims another index.
                next.store(n);
            }
        }
    };
    {
        // jthread joins on destruction, so the helpers are joined even
        // when starting one of them throws.
        std::vector<std::jthread> helpers;
        helpers.reserve(threads - 1);
        for (std::size_t t = 1; t < threads; ++t)
            helpers.emplace_back(claim);
        claim();
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace infless::sim

#endif // INFLESS_SIM_PARALLEL_FOR_HH
