#include "metrics/collector.hh"

namespace infless::metrics {

void
RunMetrics::recordCompletion(sim::Tick, const LatencyBreakdown &parts,
                             sim::Tick slo)
{
    add(Counter::Completions);
    latency_.record(parts.total());
    queueTime_.record(parts.queue);
    execTime_.record(parts.exec);
    coldTime_.record(parts.coldStart);
    batchTime_.record(parts.batchWait);
    if (slo > 0 && parts.total() > slo)
        add(Counter::SloViolations);
}

void
RunMetrics::recordBatch(int fill)
{
    add(Counter::Batches);
    batchFillSum_ += fill;
}

void
RunMetrics::recordAllocation(sim::Tick now, const cluster::Resources &alloc)
{
    cpuCores_.update(now, alloc.cpuCores());
    gpuDevices_.update(now, alloc.gpuDevices());
    memoryMb_.update(now, static_cast<double>(alloc.memoryMb));
}

void
RunMetrics::recordInstanceCount(sim::Tick now, int count)
{
    instances_.update(now, static_cast<double>(count));
}

void
RunMetrics::recordServerRecovery(sim::Tick restore_ticks)
{
    add(Counter::ServerRecoveries);
    restoreTicksSum_ += restore_ticks;
}

sim::Tick
RunMetrics::meanRestoreTicks() const
{
    std::int64_t recoveries = serverRecoveries();
    return recoveries == 0 ? 0 : restoreTicksSum_ / recoveries;
}

void
RunMetrics::recordExecCache(std::uint64_t hits, std::uint64_t misses)
{
    counts_[static_cast<std::size_t>(Counter::ExecCacheHits)] =
        static_cast<std::int64_t>(hits);
    counts_[static_cast<std::size_t>(Counter::ExecCacheMisses)] =
        static_cast<std::int64_t>(misses);
}

double
RunMetrics::execCacheHitRate() const
{
    std::uint64_t total = execCacheHits() + execCacheMisses();
    return total == 0 ? 0.0
                      : static_cast<double>(execCacheHits()) /
                            static_cast<double>(total);
}

double
RunMetrics::meanBatchFill() const
{
    return batches() == 0 ? 0.0
                          : static_cast<double>(batchFillSum_) /
                                static_cast<double>(batches());
}

double
RunMetrics::sloViolationRate() const
{
    std::int64_t finished = completions() + drops();
    if (finished == 0)
        return 0.0;
    return static_cast<double>(sloViolations() + drops()) /
           static_cast<double>(finished);
}

double
RunMetrics::coldLaunchRate() const
{
    std::int64_t total = launches();
    return total == 0 ? 0.0
                      : static_cast<double>(coldLaunches()) /
                            static_cast<double>(total);
}

double
RunMetrics::throughputRps(sim::Tick duration) const
{
    if (duration <= 0)
        return 0.0;
    return static_cast<double>(completions()) / sim::ticksToSec(duration);
}

double
RunMetrics::cpuCoreSeconds(sim::Tick now) const
{
    return cpuCores_.integralUntil(now) / sim::kTicksPerSec;
}

double
RunMetrics::gpuDeviceSeconds(sim::Tick now) const
{
    return gpuDevices_.integralUntil(now) / sim::kTicksPerSec;
}

double
RunMetrics::meanCpuCores(sim::Tick now) const
{
    return cpuCores_.meanUntil(now);
}

double
RunMetrics::meanGpuDevices(sim::Tick now) const
{
    return gpuDevices_.meanUntil(now);
}

double
RunMetrics::meanInstances(sim::Tick now) const
{
    return instances_.meanUntil(now);
}

double
RunMetrics::memoryGbSeconds(sim::Tick now) const
{
    return memoryMb_.integralUntil(now) / sim::kTicksPerSec / 1024.0;
}

double
RunMetrics::throughputPerResource(sim::Tick duration, double beta) const
{
    double weighted_seconds =
        beta * cpuCoreSeconds(duration) + gpuDeviceSeconds(duration);
    if (weighted_seconds <= 0.0)
        return 0.0;
    // completions / weighted-resource-seconds: requests served per unit of
    // (beta-weighted) resource-time occupied.
    return static_cast<double>(completions()) / weighted_seconds;
}

void
RunMetrics::mergeShard(const RunMetrics &other, sim::Tick now)
{
    for (std::size_t i = 0; i < kCounterCount; ++i)
        counts_[i] += other.counts_[i];
    batchFillSum_ += other.batchFillSum_;
    restoreTicksSum_ += other.restoreTicksSum_;
    latency_.merge(other.latency_);
    queueTime_.merge(other.queueTime_);
    execTime_.merge(other.execTime_);
    coldTime_.merge(other.coldTime_);
    batchTime_.merge(other.batchTime_);
    cpuCores_.merge(other.cpuCores_, now);
    gpuDevices_.merge(other.gpuDevices_, now);
    memoryMb_.merge(other.memoryMb_, now);
    instances_.merge(other.instances_, now);
}

} // namespace infless::metrics
