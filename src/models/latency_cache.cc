#include "models/latency_cache.hh"

#include <limits>

#include "models/model_zoo.hh"
#include "sim/rng.hh"

namespace infless::models {

namespace {

/** Initial table capacity (power of two). */
constexpr std::size_t kInitialLines = 64;

/** Grow when the table passes this load factor. */
constexpr double kMaxLoad = 0.5;

std::uint64_t
probeHash(std::uint64_t model_key, std::int64_t cpu, std::int64_t gpu)
{
    return sim::hashCombine(
        sim::hashCombine(model_key, static_cast<std::uint64_t>(cpu)),
        static_cast<std::uint64_t>(gpu));
}

} // namespace

LatencyCache::LatencyCache() : lines_(kInitialLines) {}

LatencyCache::Line &
LatencyCache::findLine(std::uint64_t model_key, std::int64_t cpu,
                       std::int64_t gpu)
{
    std::size_t mask = lines_.size() - 1;
    std::size_t idx = probeHash(model_key, cpu, gpu) & mask;
    for (;;) {
        Line &line = lines_[idx];
        if (!line.used) {
            line.used = true;
            line.modelKey = model_key;
            line.cpu = cpu;
            line.gpu = gpu;
            ++usedLines_;
            if (static_cast<double>(usedLines_) >
                kMaxLoad * static_cast<double>(lines_.size())) {
                grow();
                return findLine(model_key, cpu, gpu);
            }
            return line;
        }
        if (line.modelKey == model_key && line.cpu == cpu &&
            line.gpu == gpu) {
            return line;
        }
        idx = (idx + 1) & mask;
    }
}

void
LatencyCache::grow()
{
    std::vector<Line> old = std::move(lines_);
    lines_.assign(old.size() * 2, Line{});
    std::size_t mask = lines_.size() - 1;
    for (Line &line : old) {
        if (!line.used)
            continue;
        std::size_t idx =
            probeHash(line.modelKey, line.cpu, line.gpu) & mask;
        while (lines_[idx].used)
            idx = (idx + 1) & mask;
        lines_[idx] = std::move(line);
    }
}

double &
LatencyCache::cellFor(std::uint64_t model_key, std::int64_t cpu,
                      std::int64_t gpu, int batch)
{
    Line &line = findLine(model_key, cpu, gpu);
    auto slot = static_cast<std::size_t>(batch);
    if (line.byBatch.size() <= slot) {
        line.byBatch.resize(slot + 1,
                            std::numeric_limits<double>::quiet_NaN());
    }
    return line.byBatch[slot];
}

sim::Tick
LatencyCache::trueTicks(const ExecModel &exec, const ModelInfo &model,
                        int batch, const cluster::Resources &res)
{
    double ticks =
        memo(model.noiseKey, res.cpuMillicores, res.gpuSmPercent, batch,
             [&] {
                 return static_cast<double>(
                     exec.trueTicks(model, batch, res));
             });
    return static_cast<sim::Tick>(ticks);
}

} // namespace infless::models
