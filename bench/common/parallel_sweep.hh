/**
 * @file
 * Deterministic fan-out of independent sweep points across threads.
 *
 * The bench sweeps (load ladders, MTBF grids, system line-ups) evaluate
 * many mutually independent grid points, each of which constructs its own
 * Platform and runs a fully seeded simulation. ParallelSweep::map runs
 * those points in one sim::parallelFor and stores every result at the index
 * of its input item, so the output vector is byte-identical to a serial
 * loop regardless of thread count or scheduling order.
 *
 * Requirements on the mapped function: it must be safe to call
 * concurrently (each grid point builds its own platform; the simulator
 * core keeps no mutable globals) and its result type must be
 * default-constructible (results are materialized in place by index).
 */

#ifndef INFLESS_BENCH_COMMON_PARALLEL_SWEEP_HH
#define INFLESS_BENCH_COMMON_PARALLEL_SWEEP_HH

#include <cstddef>
#include <type_traits>
#include <vector>

#include "sim/parallel_for.hh"

namespace infless::bench {

class ParallelSweep
{
  public:
    /**
     * Apply @p fn to every element of @p items, possibly concurrently,
     * and return the results in input order.
     *
     * @p threads of 0 picks sim::defaultThreads(); 1 runs
     * serially on the calling thread. The first exception thrown by any
     * invocation is rethrown on the caller after all invocations
     * finished.
     */
    template <typename Item, typename Fn>
    static auto map(const std::vector<Item> &items, Fn &&fn,
                    std::size_t threads = 0)
        -> std::vector<std::decay_t<decltype(fn(items.front()))>>
    {
        std::vector<std::decay_t<decltype(fn(items.front()))>> results(
            items.size());
        sim::parallelFor(items.size(), threads,
                         [&](std::size_t i) { results[i] = fn(items[i]); });
        return results;
    }
};

} // namespace infless::bench

#endif // INFLESS_BENCH_COMMON_PARALLEL_SWEEP_HH
