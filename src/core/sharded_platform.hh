/**
 * @file
 * Cell-partitioned control plane for very large fleets.
 *
 * One flat Platform serializes every scheduling decision, timer and
 * metric update of the whole cluster through a single event queue; at
 * 100k servers that queue is the bottleneck. ShardedPlatform splits the
 * fleet into independent *cells* — each a full Platform over a
 * contiguous server slice with its own CapacityIndex, EventQueue and
 * metrics shard — fronted by a router that sends each function to its
 * home cells (cluster::CellRouter), so one cell's scheduler batches and
 * scales a function until that cell runs out of room for it.
 *
 * Time synchronization is conservative: cells advance in lockstep
 * windows, and everything that crosses a cell boundary — router digest
 * refreshes, newly routed arrivals, queued crash/recovery commands — is
 * exchanged only at the window barriers. Within a window each cell
 * touches nothing but its own state, so the cells run concurrently on a
 * WorkerPool and the run is byte-identical for every thread count.
 *
 * The partition is static: each cell owns the same contiguous slice of
 * global server ids for the whole run.
 *
 * Determinism contract:
 *  - cells=1 delegates every call to the inner flat Platform (traces
 *    injected upfront, one run) and is bit-identical to using Platform
 *    directly.
 *  - multi-cell runs depend only on (seed, cells, windowTicks, call
 *    sequence): all barrier work runs serially in cell order and the
 *    router draws from its own RNG stream.
 */

#ifndef INFLESS_CORE_SHARDED_PLATFORM_HH
#define INFLESS_CORE_SHARDED_PLATFORM_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cell_partition.hh"
#include "cluster/cell_router.hh"
#include "core/platform.hh"
#include "sim/tick_log.hh"
#include "sim/worker_pool.hh"

namespace infless::core {

/** Sharding configuration. */
struct CellOptions
{
    /** Number of cells; 1 = delegate to a single flat Platform. */
    std::size_t cells = 1;
    /**
     * Lockstep window length = digest refresh epoch. Shorter windows
     * give the router a fresher view at the cost of more barriers; the
     * default matches the 250 ms reactive scale-out backoff in
     * Platform::maybeReactiveScaleOut, so spillover signals propagate
     * within one backoff period.
     */
    sim::Tick windowTicks = 250 * sim::kTicksPerMs;
    /** Worker threads for the per-cell engines; 0 = WorkerPool default
     *  (INFLESS_CELL_THREADS, else hardware concurrency), clamped to
     *  the cell count. */
    std::size_t threads = 0;
};

/**
 * A cluster of scheduling cells behind one Platform-shaped facade.
 */
class ShardedPlatform
{
  public:
    /**
     * @param num_servers Total fleet size, split into near-equal
     *        contiguous slices (one per cell).
     */
    ShardedPlatform(std::size_t num_servers, PlatformOptions opts = {},
                    CellOptions cell_opts = {});
    ~ShardedPlatform();

    ShardedPlatform(const ShardedPlatform &) = delete;
    ShardedPlatform &operator=(const ShardedPlatform &) = delete;

    // Deployment and workload ----------------------------------------------

    /** Deploy a function into every cell; returns its (shared) id. */
    FunctionId deploy(const FunctionSpec &spec);

    /**
     * Inject a pre-materialized arrival trace. With one cell this goes
     * straight to the flat platform; with several the arrivals are
     * routed window by window as the run reaches them.
     */
    void injectTrace(FunctionId fn, workload::ArrivalTrace trace);

    /** Materialize and inject a rate series (Poisson arrivals). */
    void injectRateSeries(FunctionId fn,
                          const workload::RateSeries &series);

    /**
     * Advance the whole cluster to an absolute tick.
     *
     * Multi-cell: loops lockstep windows — refresh router digests (which
     * may grow home sets), apply queued fault commands, route the
     * window's arrivals to home cells, then run every cell to the window
     * end on the worker pool.
     */
    void run(sim::Tick until);

    // Fault control plane --------------------------------------------------

    /**
     * Queue a crash of global server @p id at tick @p at; applied at
     * the first window barrier at or after @p at (conservative sync —
     * never mid-window). Commands beyond the current run() horizon
     * stay queued for the next run(). Panics unless
     * 0 <= @p id < totalServers().
     */
    void scheduleServerCrash(cluster::ServerId id, sim::Tick at);

    /** Queue a recovery of global server @p id at tick @p at (same id
     *  check as scheduleServerCrash). */
    void scheduleServerRecovery(cluster::ServerId id, sim::Tick at);

    // Introspection --------------------------------------------------------

    std::size_t cellCount() const { return cells_.size(); }
    const Platform &cell(std::size_t i) const { return *cells_[i]; }
    const cluster::CellRouter &router() const { return *router_; }

    std::size_t totalServers() const { return numServers_; }
    sim::Tick endTime() const { return endTime_; }
    std::size_t functionCount() const { return cells_[0]->functionCount(); }

    /**
     * Cross-cell SLO health: cluster windows merged serially in cell
     * order after every lockstep window, so burn rates, alerts and
     * attribution describe fleet-wide budget and are byte-identical at
     * every worker-thread count. cells=1 delegates to the flat monitor.
     */
    const obs::SloHealthCore &sloHealth() const;

    /**
     * The flight recorder whose dump best explains the run: the
     * earliest-triggered cell's (ties to the lowest cell index), or
     * cell 0's when nothing triggered.
     */
    const obs::FlightRecorder &flightRecorder() const;

    /** Aggregate metrics over all cells (cells=1: the flat metrics). */
    const metrics::RunMetrics &totalMetrics() const;

    /** Merged metrics of one function across cells. */
    const metrics::RunMetrics &functionMetrics(FunctionId fn) const;

    /**
     * Cross-cell overload state of one function. Counters and retry
     * tokens sum over cells; the breaker state reports the most severe
     * cell and brownout is active if any cell is degraded.
     * cells=1 delegates to the flat platform's snapshot.
     */
    OverloadSnapshot overloadSnapshot(FunctionId fn) const;

    /** Events executed across every cell's engine. */
    std::uint64_t eventsExecuted() const;

    /** Scheduling passes run across every cell's scheduler. */
    std::uint64_t schedulerDecisions() const;

    /** Requests waiting in batch queues across all cells. */
    std::int64_t queuedRequests() const;

    /** Admitted-but-unsettled requests across all cells. */
    std::int64_t inFlightRequests() const;

    /** Live instances across all cells. */
    int liveInstanceCount() const;

    /** Requests routed to cell @p i over the whole run. */
    std::int64_t routedTo(std::size_t i) const { return routedTotal_[i]; }

  private:
    /** One injected trace awaiting routing (multi-cell only), read by
     *  its routing cursor. */
    struct PendingFeed
    {
        FunctionId fn;
        sim::TickLog ticks;
    };

    /** A queued cross-cell fault command. */
    struct FaultCommand
    {
        cluster::ServerId server;
        sim::Tick at;
        bool down;
    };

    bool delegated() const { return cells_.size() == 1; }

    /** Panic unless @p id names a server of this fleet. */
    void checkServer(cluster::ServerId id) const;

    /** Serial barrier work: digests, fault commands, routing. */
    void barrier(sim::Tick window_end, sim::Tick until);
    void refreshRouter();
    void routeArrivals(sim::Tick window_end, sim::Tick until);
    void applyFaultCommands(sim::Tick barrier_tick);
    /** Expand due correlated outages into per-server fault commands. */
    void expandDomainOutages(sim::Tick barrier_tick);
    /** Serially absorb every cell's newly closed SLO windows. */
    void absorbSloHealth();
    void rebuildMerged() const;

    std::size_t numServers_ = 0;
    CellOptions cellOpts_;
    double beta_;
    std::vector<cluster::CellSlice> slices_;
    std::vector<std::unique_ptr<Platform>> cells_;
    std::unique_ptr<cluster::CellRouter> router_;
    std::unique_ptr<sim::WorkerPool> pool_;
    /** Workload materialization stream (multi-cell injectRateSeries). */
    sim::Rng workloadRng_;

    std::vector<PendingFeed> pending_;
    std::vector<FaultCommand> faultCommands_;
    /** Fleet topology, for expanding zone outages to member servers. */
    cluster::TopologyConfig topology_;
    /**
     * Root-seeded correlated-outage schedule (multi-cell only). The
     * per-cell injectors have their domain-outage fields cleared, so the
     * fleet sees exactly ONE schedule — identical to the flat platform's
     * — however many cells partition it.
     */
    std::unique_ptr<faults::DomainOutageStream> domainStream_;
    faults::DomainOutageEvent pendingOutage_;
    /** Router digests, one per cell, refilled at every barrier. */
    std::vector<cluster::CellDigest> digests_;
    /** drops+sheds baseline per cell for the digest's pressure delta. */
    std::vector<std::int64_t> lastDropStat_;
    /** Scale-out-miss baseline per (function, cell), function-major. */
    std::vector<std::int64_t> lastMisses_;
    std::vector<std::int64_t> routedTotal_;
    /** The window's (tick, pending feed) arrivals, reused per barrier. */
    std::vector<std::pair<sim::Tick, std::size_t>> windowArrivals_;
    /** Routed ticks per (function, cell), function-major, reused. */
    std::vector<std::vector<sim::Tick>> routedBuf_;

    sim::Tick cursor_ = 0;
    sim::Tick endTime_ = 0;

    /** Cluster-level SLO window merge (multi-cell only). */
    obs::SloHealthMerge mergedSlo_;

    /** Lazily rebuilt cross-cell merges (multi-cell only). */
    mutable metrics::RunMetrics merged_;
    mutable std::vector<metrics::RunMetrics> mergedFn_;
    mutable bool mergedDirty_ = true;
};

} // namespace infless::core

#endif // INFLESS_CORE_SHARDED_PLATFORM_HH
