#include "metrics/collector.hh"

namespace infless::metrics {

RunMetrics::RunMetrics() = default;

void
RunMetrics::recordArrival(sim::Tick)
{
    ++arrivals_;
}

void
RunMetrics::recordCompletion(sim::Tick, const LatencyBreakdown &parts,
                             sim::Tick slo)
{
    ++completions_;
    latency_.record(parts.total());
    queueTime_.record(parts.queue);
    execTime_.record(parts.exec);
    coldTime_.record(parts.coldStart);
    batchTime_.record(parts.batchWait);
    if (slo > 0 && parts.total() > slo)
        ++sloViolations_;
}

void
RunMetrics::recordDrop(sim::Tick)
{
    ++drops_;
}

void
RunMetrics::recordLaunch(bool cold)
{
    if (cold)
        ++coldLaunches_;
    else
        ++warmLaunches_;
}

void
RunMetrics::recordBatch(int fill)
{
    ++batches_;
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
RunMetrics::recordServerCrash(sim::Tick)
{
    ++serverCrashes_;
}

void
RunMetrics::recordServerRecovery(sim::Tick restore_ticks)
{
    ++serverRecoveries_;
    restoreTicksSum_ += restore_ticks;
}

void
RunMetrics::recordStartupFailure()
{
    ++startupFailures_;
}

void
RunMetrics::recordRetry(sim::Tick)
{
    ++retries_;
}

void
RunMetrics::recordFailover()
{
    ++failovers_;
}

void
RunMetrics::recordLostBatch(int requests)
{
    lostBatch_ += requests;
}

void
RunMetrics::recordShed(sim::Tick)
{
    ++sheds_;
}

void
RunMetrics::recordBreakerShed(sim::Tick)
{
    ++breakerSheds_;
}

void
RunMetrics::recordQueueEviction()
{
    ++queueEvictions_;
}

void
RunMetrics::recordRetryBudgetExhausted()
{
    ++retryBudgetExhausted_;
}

void
RunMetrics::recordBreakerOpen()
{
    ++breakerOpens_;
}

void
RunMetrics::recordBreakerClose()
{
    ++breakerCloses_;
}

void
RunMetrics::recordBrownoutEntry()
{
    ++brownoutEntries_;
}

void
RunMetrics::recordBrownoutExit()
{
    ++brownoutExits_;
}

void
RunMetrics::recordHealthEjection()
{
    ++healthEjections_;
}

void
RunMetrics::recordHealthReadmission()
{
    ++healthReadmissions_;
}

void
RunMetrics::recordGrayDetection()
{
    ++grayDetections_;
}

void
RunMetrics::recordDomainOutage()
{
    ++domainOutages_;
}

sim::Tick
RunMetrics::meanRestoreTicks() const
{
    return serverRecoveries_ == 0 ? 0
                                  : restoreTicksSum_ / serverRecoveries_;
}

void
RunMetrics::recordExecCache(std::uint64_t hits, std::uint64_t misses)
{
    execCacheHits_ = hits;
    execCacheMisses_ = misses;
}

double
RunMetrics::execCacheHitRate() const
{
    std::uint64_t total = execCacheHits_ + execCacheMisses_;
    return total == 0 ? 0.0
                      : static_cast<double>(execCacheHits_) /
                            static_cast<double>(total);
}

double
RunMetrics::meanBatchFill() const
{
    return batches_ == 0 ? 0.0
                         : static_cast<double>(batchFillSum_) /
                               static_cast<double>(batches_);
}

double
RunMetrics::sloViolationRate() const
{
    std::int64_t finished = completions_ + drops_;
    if (finished == 0)
        return 0.0;
    return static_cast<double>(sloViolations_ + drops_) /
           static_cast<double>(finished);
}

double
RunMetrics::coldLaunchRate() const
{
    std::int64_t total = launches();
    return total == 0 ? 0.0
                      : static_cast<double>(coldLaunches_) /
                            static_cast<double>(total);
}

double
RunMetrics::throughputRps(sim::Tick duration) const
{
    if (duration <= 0)
        return 0.0;
    return static_cast<double>(completions_) / sim::ticksToSec(duration);
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
    return static_cast<double>(completions_) / weighted_seconds;
}

void
RunMetrics::mergeCounters(const RunMetrics &other)
{
    arrivals_ += other.arrivals_;
    completions_ += other.completions_;
    drops_ += other.drops_;
    sloViolations_ += other.sloViolations_;
    coldLaunches_ += other.coldLaunches_;
    warmLaunches_ += other.warmLaunches_;
    batches_ += other.batches_;
    batchFillSum_ += other.batchFillSum_;
    serverCrashes_ += other.serverCrashes_;
    serverRecoveries_ += other.serverRecoveries_;
    startupFailures_ += other.startupFailures_;
    retries_ += other.retries_;
    failovers_ += other.failovers_;
    lostBatch_ += other.lostBatch_;
    sheds_ += other.sheds_;
    breakerSheds_ += other.breakerSheds_;
    queueEvictions_ += other.queueEvictions_;
    retryBudgetExhausted_ += other.retryBudgetExhausted_;
    breakerOpens_ += other.breakerOpens_;
    breakerCloses_ += other.breakerCloses_;
    brownoutEntries_ += other.brownoutEntries_;
    brownoutExits_ += other.brownoutExits_;
    healthEjections_ += other.healthEjections_;
    healthReadmissions_ += other.healthReadmissions_;
    grayDetections_ += other.grayDetections_;
    domainOutages_ += other.domainOutages_;
    restoreTicksSum_ += other.restoreTicksSum_;
    latency_.merge(other.latency_);
    queueTime_.merge(other.queueTime_);
    execTime_.merge(other.execTime_);
    coldTime_.merge(other.coldTime_);
    batchTime_.merge(other.batchTime_);
}

void
RunMetrics::mergeShard(const RunMetrics &other, sim::Tick now)
{
    mergeCounters(other);
    cpuCores_.merge(other.cpuCores_, now);
    gpuDevices_.merge(other.gpuDevices_, now);
    memoryMb_.merge(other.memoryMb_, now);
    instances_.merge(other.instances_, now);
    execCacheHits_ += other.execCacheHits_;
    execCacheMisses_ += other.execCacheMisses_;
}

} // namespace infless::metrics
