/**
 * @file
 * Memoized latency surface.
 *
 * ExecModel::trueTicks and COP raw predictions are pure functions of
 * (model, batch, cpu millicores, gpu SM percent) — memory never enters
 * the surface — and resource configurations are drawn from a small
 * discrete menu. The simulator prices the same few hundred points
 * millions of times per run, so each consumer keeps a LatencyCache in
 * front of the computation: Platform's ground-truth charging and the
 * Lambda baseline through trueTicks(), CopPredictor's raw predictions
 * through memo():
 *
 *  - an open-addressing hash table maps the quantized configuration
 *    (model key, cpu, gpu) to a cache line — no per-lookup allocation,
 *    exact key comparison (no silent hash-collision aliasing);
 *  - each line holds a flat array indexed by batchsize, so the batch
 *    ladder the scheduler walks is a single pointer chase plus an array
 *    load.
 *
 * A cache instance memoizes exactly one pure function; consumers own one
 * instance per function they cache. Hit/miss counters are exported
 * through metrics::RunMetrics (see Platform::run).
 */

#ifndef INFLESS_MODELS_LATENCY_CACHE_HH
#define INFLESS_MODELS_LATENCY_CACHE_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/resources.hh"
#include "models/exec_model.hh"
#include "models/model_zoo_fwd.hh"
#include "sim/time.hh"

namespace infless::models {

/** Lookup counters of one LatencyCache. */
struct LatencyCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * Per-(model, config) memo table over the batch dimension.
 */
class LatencyCache
{
  public:
    LatencyCache();

    /**
     * Memoized value for (model_key, cpu, gpu, batch); on a miss @p
     * compute() supplies the value, which is cached verbatim — lookups
     * are bit-identical to direct computation.
     */
    template <typename Fn>
    double
    memo(std::uint64_t model_key, std::int64_t cpu_millicores,
         std::int64_t gpu_sm_percent, int batch, Fn &&compute)
    {
        double &cell =
            cellFor(model_key, cpu_millicores, gpu_sm_percent, batch);
        if (!std::isnan(cell)) {
            ++stats_.hits;
            return cell;
        }
        ++stats_.misses;
        cell = compute();
        ++values_;
        return cell;
    }

    /** Cached ExecModel::trueTicks (ground-truth batch pricing). */
    sim::Tick trueTicks(const ExecModel &exec, const ModelInfo &model,
                        int batch, const cluster::Resources &res);

    const LatencyCacheStats &stats() const { return stats_; }

    /** Distinct (model, config) lines resident. */
    std::size_t configCount() const { return usedLines_; }

    /** Memoized values resident (across all lines and batches). */
    std::size_t size() const { return values_; }

  private:
    /** One (model, config) class: latencies indexed by batchsize. */
    struct Line
    {
        std::uint64_t modelKey = 0;
        std::int64_t cpu = 0;
        std::int64_t gpu = 0;
        bool used = false;
        /** NaN = not yet computed; grows on demand. */
        std::vector<double> byBatch;
    };

    /** Locate (inserting if absent) the value cell for a key. */
    double &cellFor(std::uint64_t model_key, std::int64_t cpu,
                    std::int64_t gpu, int batch);

    Line &findLine(std::uint64_t model_key, std::int64_t cpu,
                   std::int64_t gpu);

    void grow();

    /** Open-addressing table, power-of-two capacity, linear probing. */
    std::vector<Line> lines_;
    std::size_t usedLines_ = 0;
    std::size_t values_ = 0;
    LatencyCacheStats stats_;
};

} // namespace infless::models

#endif // INFLESS_MODELS_LATENCY_CACHE_HH
