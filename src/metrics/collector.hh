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

#include <array>
#include <cstddef>
#include <cstdint>

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
 * The run counters, in telemetry export order: one slot each in
 * RunMetrics' counter table and one row each in kCounterRows. Drops
 * include sheds.
 */
enum class Counter : std::uint8_t
{
    Arrivals,
    Completions,
    Drops,
    SloViolations,
    ColdLaunches,
    WarmLaunches,
    Batches,
    ServerCrashes,
    ServerRecoveries,
    StartupFailures,
    Retries,
    Failovers,
    LostBatchRequests,
    ExecCacheHits,
    ExecCacheMisses,
    Sheds,
    BreakerSheds,
    QueueEvictions,
    BreakerOpens,
    BreakerCloses,
    BrownoutEntries,
    BrownoutExits,
    HealthEjections,
    HealthReadmissions,
    GrayDetections,
    DomainOutages,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::DomainOutages) + 1;

/** Telemetry name and help text of one counter. */
struct CounterRow
{
    Counter counter;
    const char *name;
    const char *help;
};

inline constexpr std::array<CounterRow, kCounterCount> kCounterRows = {{
    {Counter::Arrivals, "arrivals_total", "Requests that entered the system"},
    {Counter::Completions, "completions_total", "Requests completed"},
    {Counter::Drops, "drops_total", "Requests dropped"},
    {Counter::SloViolations, "slo_violations_total",
     "Completions that missed their SLO"},
    {Counter::ColdLaunches, "cold_launches_total",
     "Instance launches paying a cold start"},
    {Counter::WarmLaunches, "warm_launches_total",
     "Instance launches from the pre-warmed pool"},
    {Counter::Batches, "batches_total", "Batches executed"},
    {Counter::ServerCrashes, "server_crashes_total",
     "Injected server crashes"},
    {Counter::ServerRecoveries, "server_recoveries_total",
     "Crashed servers restored"},
    {Counter::StartupFailures, "startup_failures_total",
     "Aborted cold-start attempts"},
    {Counter::Retries, "retries_total", "Crash-lost requests re-dispatched"},
    {Counter::Failovers, "failovers_total", "Retried requests that completed"},
    {Counter::LostBatchRequests, "lost_batch_requests_total",
     "Requests mid-batch on crash-killed instances"},
    {Counter::ExecCacheHits, "exec_cache_hits_total",
     "Latency-cache pricings served from the memo"},
    {Counter::ExecCacheMisses, "exec_cache_misses_total",
     "Latency-cache pricings computed from the surface"},
    {Counter::Sheds, "sheds_total",
     "Requests shed by deadline-aware admission control"},
    {Counter::BreakerSheds, "breaker_sheds_total",
     "Requests shed by an open circuit breaker"},
    {Counter::QueueEvictions, "queue_evictions_total",
     "Queued requests evicted to seat fresher arrivals"},
    {Counter::BreakerOpens, "breaker_opens_total",
     "Circuit breaker open transitions"},
    {Counter::BreakerCloses, "breaker_closes_total",
     "Circuit breaker close transitions"},
    {Counter::BrownoutEntries, "brownout_entries_total",
     "Functions entering degraded (brownout) mode"},
    {Counter::BrownoutExits, "brownout_exits_total",
     "Functions leaving degraded (brownout) mode"},
    {Counter::HealthEjections, "health_ejections_total",
     "Servers quarantined by the outlier ejector"},
    {Counter::HealthReadmissions, "health_readmissions_total",
     "Quarantined servers re-admitted after probation"},
    {Counter::GrayDetections, "gray_detections_total",
     "Ejected servers that were ground-truth gray failures"},
    {Counter::DomainOutages, "domain_outages_total",
     "Correlated failure-domain outages injected"},
}};

static_assert(
    [] {
        for (std::size_t i = 0; i < kCounterRows.size(); ++i)
            if (static_cast<std::size_t>(kCounterRows[i].counter) != i)
                return false;
        return true;
    }(),
    "kCounterRows must list every Counter once, in enum order");

/**
 * Aggregated counters and distributions for one run (or one function).
 */
class RunMetrics
{
  public:
    /** Add @p n to counter @p c. */
    void add(Counter c, std::int64_t n = 1)
    {
        counts_[static_cast<std::size_t>(c)] += n;
    }

    /** Current value of counter @p c. */
    std::int64_t count(Counter c) const
    {
        return counts_[static_cast<std::size_t>(c)];
    }

    /** A request finished; @p slo of 0 disables violation accounting. */
    void recordCompletion(sim::Tick now, const LatencyBreakdown &parts,
                          sim::Tick slo);

    /** A batch of @p fill requests started executing. */
    void recordBatch(int fill);

    /** The total allocated resources changed to @p allocated at @p now. */
    void recordAllocation(sim::Tick now, const cluster::Resources &alloc);

    /** The live instance count changed. */
    void recordInstanceCount(sim::Tick now, int count);

    /** A crashed server recovered after @p restore_ticks of downtime. */
    void recordServerRecovery(sim::Tick restore_ticks);

    /** Snapshot the exec-model memo's hit/miss counters (absolute values;
     *  re-recording overwrites, so repeated run() calls stay correct). */
    void recordExecCache(std::uint64_t hits, std::uint64_t misses);

    // Raw counters -------------------------------------------------------

    std::int64_t arrivals() const { return count(Counter::Arrivals); }
    std::int64_t completions() const { return count(Counter::Completions); }
    std::int64_t drops() const { return count(Counter::Drops); }
    std::int64_t sloViolations() const
    {
        return count(Counter::SloViolations);
    }
    std::int64_t coldLaunches() const { return count(Counter::ColdLaunches); }
    std::int64_t warmLaunches() const { return count(Counter::WarmLaunches); }
    std::int64_t launches() const { return coldLaunches() + warmLaunches(); }
    std::int64_t batches() const { return count(Counter::Batches); }
    std::int64_t serverCrashes() const
    {
        return count(Counter::ServerCrashes);
    }
    std::int64_t serverRecoveries() const
    {
        return count(Counter::ServerRecoveries);
    }
    std::int64_t startupFailures() const
    {
        return count(Counter::StartupFailures);
    }
    std::int64_t retries() const { return count(Counter::Retries); }
    std::int64_t failovers() const { return count(Counter::Failovers); }
    std::int64_t lostBatchRequests() const
    {
        return count(Counter::LostBatchRequests);
    }
    std::int64_t sheds() const { return count(Counter::Sheds); }
    std::int64_t breakerSheds() const { return count(Counter::BreakerSheds); }
    std::int64_t queueEvictions() const
    {
        return count(Counter::QueueEvictions);
    }
    std::int64_t breakerOpens() const { return count(Counter::BreakerOpens); }
    std::int64_t breakerCloses() const
    {
        return count(Counter::BreakerCloses);
    }
    std::int64_t brownoutEntries() const
    {
        return count(Counter::BrownoutEntries);
    }
    std::int64_t brownoutExits() const
    {
        return count(Counter::BrownoutExits);
    }
    /** Always 0: nothing sheds on a concurrency limit any more. Kept
     *  only because benchmark/infless_bench.cc folds it into its output
     *  digest and its `overload.sheds` metric; it goes when that file
     *  stops reading it. */
    std::int64_t limiterSheds() const { return 0; }
    std::int64_t healthEjections() const
    {
        return count(Counter::HealthEjections);
    }
    std::int64_t healthReadmissions() const
    {
        return count(Counter::HealthReadmissions);
    }
    std::int64_t grayDetections() const
    {
        return count(Counter::GrayDetections);
    }
    std::int64_t domainOutages() const
    {
        return count(Counter::DomainOutages);
    }
    std::uint64_t execCacheHits() const
    {
        return static_cast<std::uint64_t>(count(Counter::ExecCacheHits));
    }
    std::uint64_t execCacheMisses() const
    {
        return static_cast<std::uint64_t>(count(Counter::ExecCacheMisses));
    }

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

    /**
     * Absorb a sibling cell's shard completely: every counter, the
     * sums, the histograms and the time-weighted resource/instance
     * signals (summed — cells partition the fleet). Both shards'
     * signals are closed at @p now, the common end of the run.
     */
    void mergeShard(const RunMetrics &other, sim::Tick now);

  private:
    std::array<std::int64_t, kCounterCount> counts_{};
    std::int64_t batchFillSum_ = 0;
    sim::Tick restoreTicksSum_ = 0;

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
