#include "profiler/op_profile_db.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace infless::profiler {

namespace {

/** Nearest element of a sorted grid. */
std::int64_t
snapTo(const std::vector<std::int64_t> &grid, std::int64_t value)
{
    sim::simAssert(!grid.empty(), "empty profile grid dimension");
    std::int64_t best = grid.front();
    std::int64_t best_dist = std::llabs(value - best);
    for (std::int64_t g : grid) {
        std::int64_t dist = std::llabs(value - g);
        if (dist < best_dist) {
            best = g;
            best_dist = dist;
        }
    }
    return best;
}

} // namespace

OpProfileDb::OpProfileDb(const models::ExecModel &truth, ProfileGrid grid)
    : truth_(truth), grid_(std::move(grid))
{
    sim::simAssert(!grid_.cpuMillicores.empty() &&
                       !grid_.gpuSmPercent.empty() &&
                       !grid_.batchSizes.empty(),
                   "profile grid must be non-empty in every dimension");
}

int
OpProfileDb::gflopsBucket(double gflops)
{
    if (gflops <= 0.0)
        return -1000;
    // Quarter-octave buckets: fine enough that linear rescaling inside a
    // bucket stays below a percent of error.
    return static_cast<int>(std::lround(std::log2(gflops) * 4.0));
}

double
OpProfileDb::bucketGflops(int bucket)
{
    if (bucket == -1000)
        return 0.0;
    return std::exp2(bucket / 4.0);
}

cluster::Resources
OpProfileDb::snapResources(const cluster::Resources &res) const
{
    cluster::Resources snapped;
    snapped.cpuMillicores = snapTo(grid_.cpuMillicores, res.cpuMillicores);
    snapped.gpuSmPercent =
        res.gpuSmPercent == 0
            ? 0
            : snapTo(grid_.gpuSmPercent, res.gpuSmPercent);
    snapped.memoryMb = res.memoryMb;
    return snapped;
}

int
OpProfileDb::snapBatch(int batch) const
{
    int best = grid_.batchSizes.front();
    for (int b : grid_.batchSizes) {
        if (std::abs(b - batch) < std::abs(best - batch))
            best = b;
    }
    return best;
}

OpSignature
OpProfileDb::signatureOf(const models::OpNode &op)
{
    return OpSignature{op.kind, gflopsBucket(op.gflopsPerSample)};
}

double
OpProfileDb::workRatio(const models::OpNode &op)
{
    // Interpolate linearly in the work ratio, as a profile table would.
    double bucket_work = bucketGflops(gflopsBucket(op.gflopsPerSample));
    if (bucket_work <= 0.0 || op.gflopsPerSample <= 0.0)
        return 1.0;
    return op.gflopsPerSample / bucket_work;
}

double
OpProfileDb::measuredMicros(OpSignature sig, int snapped_batch,
                            const cluster::Resources &snapped)
{
    // Pack (kind, gbucket, b, cpu, gpu) into one word.
    std::uint64_t packed = static_cast<std::uint64_t>(sig.kind);
    packed = packed * 4096 +
             static_cast<std::uint64_t>(sig.gflopsBucket + 2000);
    packed = packed * 128 + static_cast<std::uint64_t>(snapped_batch);
    packed = packed * 65536 +
             static_cast<std::uint64_t>(snapped.cpuMillicores / 5);
    packed = packed * 256 + static_cast<std::uint64_t>(snapped.gpuSmPercent);

    Key key{packed};
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    // Memory does not shape operator latency here.
    cluster::Resources probe_res{snapped.cpuMillicores, snapped.gpuSmPercent,
                                 0};
    models::OpNode probe{sig.kind, bucketGflops(sig.gflopsBucket)};
    double measured = truth_.opMicros(probe, snapped_batch, probe_res);
    cache_.emplace(key, measured);
    return measured;
}

double
OpProfileDb::lookupMicros(const models::OpNode &op, int batch,
                          const cluster::Resources &res)
{
    return measuredMicros(signatureOf(op), snapBatch(batch),
                          snapResources(res)) *
           workRatio(op);
}

} // namespace infless::profiler
