/**
 * @file
 * Per-run metric aggregation.
 *
 * Every quantity the paper's evaluation reports — throughput per occupied
 * resource, SLO violation rate, cold-start rate, latency breakdown,
 * resource-seconds — derives from one RunMetrics filled in by the
 * platform while the simulation runs.
 */

#ifndef INFLESS_METRICS_COLLECTOR_HH
#define INFLESS_METRICS_COLLECTOR_HH

#include <cstdint>
#include <map>
#include <string>

#include "cluster/resources.hh"
#include "metrics/stats.hh"
#include "sim/time.hh"

namespace infless::metrics {

/** Latency decomposition of one completed request (Fig. 15b/c). */
struct LatencyBreakdown
{
    sim::Tick coldStart = 0; ///< instance startup the request waited for
    sim::Tick queue = 0;     ///< time waiting in the batch queue
    sim::Tick exec = 0;      ///< batch execution time
    /** Portion of @ref queue spent blocked behind the instance's running
     *  batch (the batching tax, a refinement — NOT a fourth addend). */
    sim::Tick batchWait = 0;

    sim::Tick total() const { return coldStart + queue + exec; }
};

/**
 * Aggregated counters and distributions for one run (or one function).
 */
class RunMetrics
{
  public:
    RunMetrics();

    /** A request entered the system. */
    void recordArrival(sim::Tick now);

    /** A request finished; @p slo of 0 disables violation accounting. */
    void recordCompletion(sim::Tick now, const LatencyBreakdown &parts,
                          sim::Tick slo);

    /** A request was dropped (queue overrun). */
    void recordDrop(sim::Tick now);

    /** An instance launch happened; @p cold tells whether it paid a cold
     *  start. */
    void recordLaunch(bool cold);

    /** A batch of @p fill requests started executing. */
    void recordBatch(int fill);

    /** The total allocated resources changed to @p allocated at @p now. */
    void recordAllocation(sim::Tick now, const cluster::Resources &alloc);

    /** The live instance count changed. */
    void recordInstanceCount(sim::Tick now, int count);

    // Failure accounting (fault injection) --------------------------------

    /** A server crashed. */
    void recordServerCrash(sim::Tick now);

    /** A crashed server recovered after @p restore_ticks of downtime. */
    void recordServerRecovery(sim::Tick restore_ticks);

    /** A cold-start attempt aborted and restarted. */
    void recordStartupFailure();

    /** A lost request was re-dispatched (one retry attempt). */
    void recordRetry(sim::Tick now);

    /** A retried request completed (successful failover). */
    void recordFailover();

    /** @p requests were mid-batch on an instance killed by a crash. */
    void recordLostBatch(int requests);

    // Overload control plane ----------------------------------------------

    /** Admission control shed a request at ingress (fail-fast). */
    void recordShed(sim::Tick now);

    /** An open/half-open circuit breaker shed a request at ingress. */
    void recordBreakerShed(sim::Tick now);

    /** The oldest queued request was evicted for a newcomer. */
    void recordQueueEviction();

    /** A circuit breaker tripped open. */
    void recordBreakerOpen();

    /** A circuit breaker closed again after successful probes. */
    void recordBreakerClose();

    /** A function entered brownout mode. */
    void recordBrownoutEntry();

    /** A function left brownout mode. */
    void recordBrownoutExit();

    // Health / failure domains --------------------------------------------

    /** The outlier ejector quarantined a degraded server. */
    void recordHealthEjection();
    /** A quarantined server finished probation and was re-admitted. */
    void recordHealthReadmission();
    /** An ejected server turned out to be ground-truth gray. */
    void recordGrayDetection();
    /** A correlated failure-domain outage hit. */
    void recordDomainOutage();

    // Latency-surface cache (simulation engine) ---------------------------

    /** Snapshot the exec-model memo's hit/miss counters (absolute values;
     *  re-recording overwrites, so repeated run() calls stay correct). */
    void recordExecCache(std::uint64_t hits, std::uint64_t misses);

    // Raw counters -------------------------------------------------------

    std::int64_t arrivals() const { return arrivals_; }
    std::int64_t completions() const { return completions_; }
    std::int64_t drops() const { return drops_; }
    std::int64_t sloViolations() const { return sloViolations_; }
    std::int64_t coldLaunches() const { return coldLaunches_; }
    std::int64_t warmLaunches() const { return warmLaunches_; }
    std::int64_t launches() const { return coldLaunches_ + warmLaunches_; }
    std::int64_t batches() const { return batches_; }
    std::int64_t serverCrashes() const { return serverCrashes_; }
    std::int64_t serverRecoveries() const { return serverRecoveries_; }
    std::int64_t startupFailures() const { return startupFailures_; }
    std::int64_t retries() const { return retries_; }
    std::int64_t failovers() const { return failovers_; }
    std::int64_t lostBatchRequests() const { return lostBatch_; }
    std::int64_t sheds() const { return sheds_; }
    std::int64_t breakerSheds() const { return breakerSheds_; }
    std::int64_t queueEvictions() const { return queueEvictions_; }
    std::int64_t breakerOpens() const { return breakerOpens_; }
    std::int64_t breakerCloses() const { return breakerCloses_; }
    std::int64_t brownoutEntries() const { return brownoutEntries_; }
    std::int64_t brownoutExits() const { return brownoutExits_; }
    /** Always 0: nothing sheds on a concurrency limit any more. Kept
     *  only because benchmark/infless_bench.cc folds it into its output
     *  digest and its `overload.sheds` metric; it goes when that file
     *  stops reading it. */
    std::int64_t limiterSheds() const { return 0; }
    std::int64_t healthEjections() const { return healthEjections_; }
    std::int64_t healthReadmissions() const { return healthReadmissions_; }
    std::int64_t grayDetections() const { return grayDetections_; }
    std::int64_t domainOutages() const { return domainOutages_; }
    std::uint64_t execCacheHits() const { return execCacheHits_; }
    std::uint64_t execCacheMisses() const { return execCacheMisses_; }

    /** Fraction of exec-model pricings served from the memo. */
    double execCacheHitRate() const;

    /** Mean crash-to-recovery time (time to restore capacity); 0 when no
     *  recovery has completed. */
    sim::Tick meanRestoreTicks() const;

    const LatencyHistogram &latency() const { return latency_; }
    const LatencyHistogram &queueTime() const { return queueTime_; }
    const LatencyHistogram &execTime() const { return execTime_; }
    const LatencyHistogram &coldTime() const { return coldTime_; }
    const LatencyHistogram &batchTime() const { return batchTime_; }

    /** Mean batch fill (served requests per executed batch). */
    double meanBatchFill() const;

    // Derived quantities --------------------------------------------------

    /** Fraction of completed requests that missed their SLO (drops count
     *  as violations too). */
    double sloViolationRate() const;

    /** Fraction of instance launches that were cold. */
    double coldLaunchRate() const;

    /** Completed requests per second of simulated time. */
    double throughputRps(sim::Tick duration) const;

    /** Allocated CPU integral in core-seconds up to @p now. */
    double cpuCoreSeconds(sim::Tick now) const;

    /** Allocated GPU integral in device-seconds up to @p now. */
    double gpuDeviceSeconds(sim::Tick now) const;

    /** Time-averaged CPU cores allocated. */
    double meanCpuCores(sim::Tick now) const;

    /** Time-averaged GPU devices allocated. */
    double meanGpuDevices(sim::Tick now) const;

    /** Time-averaged live instances. */
    double meanInstances(sim::Tick now) const;

    /** Allocated memory integral in GB-seconds (Fig. 3a's metric). */
    double memoryGbSeconds(sim::Tick now) const;

    /**
     * The paper's normalized throughput: completed RPS divided by the
     * weighted resources occupied (Fig. 12, Fig. 18).
     */
    double throughputPerResource(sim::Tick duration, double beta) const;

    /** Merge counters of another collector (per-function -> total). */
    void mergeCounters(const RunMetrics &other);

    /**
     * Absorb a sibling cell's shard completely: counters, histograms,
     * the time-weighted resource/instance signals (summed — cells
     * partition the fleet) and the exec-cache tallies. Both shards'
     * signals are closed at @p now, the common end of the run.
     */
    void mergeShard(const RunMetrics &other, sim::Tick now);

  private:
    std::int64_t arrivals_ = 0;
    std::int64_t completions_ = 0;
    std::int64_t drops_ = 0;
    std::int64_t sloViolations_ = 0;
    std::int64_t coldLaunches_ = 0;
    std::int64_t warmLaunches_ = 0;
    std::int64_t batches_ = 0;
    std::int64_t batchFillSum_ = 0;
    std::int64_t serverCrashes_ = 0;
    std::int64_t serverRecoveries_ = 0;
    std::int64_t startupFailures_ = 0;
    std::int64_t retries_ = 0;
    std::int64_t failovers_ = 0;
    std::int64_t lostBatch_ = 0;
    std::int64_t sheds_ = 0;
    std::int64_t breakerSheds_ = 0;
    std::int64_t queueEvictions_ = 0;
    std::int64_t breakerOpens_ = 0;
    std::int64_t breakerCloses_ = 0;
    std::int64_t brownoutEntries_ = 0;
    std::int64_t brownoutExits_ = 0;
    std::int64_t healthEjections_ = 0;
    std::int64_t healthReadmissions_ = 0;
    std::int64_t grayDetections_ = 0;
    std::int64_t domainOutages_ = 0;
    sim::Tick restoreTicksSum_ = 0;
    std::uint64_t execCacheHits_ = 0;
    std::uint64_t execCacheMisses_ = 0;

    LatencyHistogram latency_;
    LatencyHistogram queueTime_;
    LatencyHistogram execTime_;
    LatencyHistogram coldTime_;
    LatencyHistogram batchTime_;

    TimeWeightedMean cpuCores_;
    TimeWeightedMean gpuDevices_;
    TimeWeightedMean memoryMb_;
    TimeWeightedMean instances_;
};

} // namespace infless::metrics

#endif // INFLESS_METRICS_COLLECTOR_HH
