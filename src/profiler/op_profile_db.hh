/**
 * @file
 * Operator profile database.
 *
 * §3.3: each operator's profile is the 5-tuple <p, b, c, g, t> — input
 * size, batchsize, CPU resources, GPU resources, execution time — sampled
 * at discrete values of each dimension. Profiling every model offline
 * would be prohibitive; profiling the shared operator set once is cheap.
 *
 * In this reproduction, "measuring" an operator means evaluating the
 * ground-truth execution surface at a snapped grid point; predictions for
 * off-grid requests interpolate from the nearest profile, which is one of
 * COP's real error sources.
 */

#ifndef INFLESS_PROFILER_OP_PROFILE_DB_HH
#define INFLESS_PROFILER_OP_PROFILE_DB_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/resources.hh"
#include "models/exec_model.hh"
#include "models/operator.hh"

namespace infless::profiler {

/**
 * Grid definition for the discrete profile dimensions.
 */
struct ProfileGrid
{
    /** CPU allocations profiled, in millicores. */
    std::vector<std::int64_t> cpuMillicores = {125,  250,  500,  750,
                                               1000, 1500, 2000, 3000,
                                               4000, 6000, 8000, 16000};
    /** GPU SM shares profiled, in percent. */
    std::vector<std::int64_t> gpuSmPercent = {0,  5,  10, 15, 20, 25,
                                              30, 40, 50, 75, 100};
    /** Batchsizes profiled (powers of two, as in §3.3). */
    std::vector<int> batchSizes = {1, 2, 4, 8, 16, 32, 64};
};

/**
 * The identity a profile is filed under: an operator kind and its
 * per-sample work quantized to a log-spaced bucket. Operator calls that
 * share a signature share one measurement per grid point.
 */
struct OpSignature
{
    models::OpKind kind = models::OpKind::Identity;
    int gflopsBucket = 0;

    bool operator==(const OpSignature &) const = default;
};

/**
 * Memoized store of measured operator execution times.
 */
class OpProfileDb
{
  public:
    /**
     * @param truth The execution surface profiling measures against.
     * @param grid Discrete dimensions to snap onto.
     */
    explicit OpProfileDb(const models::ExecModel &truth,
                         ProfileGrid grid = {});

    /**
     * Measured (memoized) execution time of one operator call, in
     * microseconds, with the operator's work and the resource request
     * snapped onto the profile grid and the result rescaled linearly in
     * the work ratio — the interpolation a real profile table performs.
     */
    double lookupMicros(const models::OpNode &op, int batch,
                        const cluster::Resources &res);

    /**
     * Measured (memoized) execution time of one signature at a point
     * already on the grid (see snapBatch() and snapResources()); memory
     * is ignored. The one place profiles are keyed and measured.
     */
    double measuredMicros(OpSignature sig, int snapped_batch,
                          const cluster::Resources &snapped);

    /** The signature @p op's profile is filed under. */
    static OpSignature signatureOf(const models::OpNode &op);

    /**
     * Factor turning its signature's measurement into @p op's time: the
     * node's work over its bucket's representative work, or exactly 1
     * (unscaled) when either is non-positive.
     */
    static double workRatio(const models::OpNode &op);

    /** Snap a resource vector to the profiled grid. */
    cluster::Resources snapResources(const cluster::Resources &res) const;

    /** Snap a batchsize to the profiled grid. */
    int snapBatch(int batch) const;

    /** Number of distinct profiles measured so far. */
    std::size_t size() const { return cache_.size(); }

    /** The execution surface this database profiles. */
    const models::ExecModel &truth() const { return truth_; }

  private:
    struct Key
    {
        std::uint64_t packed;
        bool operator==(const Key &o) const { return packed == o.packed; }
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return std::hash<std::uint64_t>()(k.packed);
        }
    };

    /** Quantize gflops-per-sample into a log-spaced bucket index. */
    static int gflopsBucket(double gflops);

    /** Representative gflops value of a bucket. */
    static double bucketGflops(int bucket);

    const models::ExecModel &truth_;
    ProfileGrid grid_;
    std::unordered_map<Key, double, KeyHash> cache_;
};

} // namespace infless::profiler

#endif // INFLESS_PROFILER_OP_PROFILE_DB_HH
