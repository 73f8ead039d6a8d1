/**
 * @file
 * Cell-partitioned control plane for very large fleets.
 *
 * One flat Platform serializes every scheduling decision, timer and
 * metric update of the whole cluster through a single event queue; at
 * 100k servers that queue is the bottleneck. ShardedPlatform splits the
 * fleet into independent *cells* — each a full Platform over a
 * contiguous server slice with its own CapacityIndex, EventQueue and
 * metrics shard. Every function has one fixed home cell
 * (cluster::homeCell), which receives all of its arrivals, so that
 * cell's scheduler alone batches and scales it. A function hotter than
 * its home cell is shed or dropped there like on a flat platform that
 * size.
 *
 * Only routed arrivals cross a cell boundary, handed over at the
 * barriers of lockstep windows. Every other subsystem (crashes, startup
 * failures, health ejection, the SLO monitor, the flight recorder,
 * tracing and the overload stack) runs inside each cell exactly as it
 * would in an independent Platform over that slice. Within a window each
 * cell touches nothing but its own state, so the cells run concurrently
 * on a WorkerPool and the run is byte-identical for every thread count.
 * The barrier moves each feed's window slice into its function's routed
 * buffer; each cell injects its own functions' buffers on its worker
 * before running the window.
 *
 * The partition is static: each cell owns the same contiguous slice of
 * servers for the whole run. A multi-cell platform rejects at
 * construction every option whose meaning depends on global server ids:
 * a topology, correlated domain outages and gray servers.
 *
 * Determinism contract:
 *  - cells=1 delegates every call to the inner flat Platform (traces
 *    injected upfront, one run) and is bit-identical to using Platform
 *    directly.
 *  - multi-cell runs depend only on (seed, cells, windowTicks, call
 *    sequence): routing draws nothing and all barrier work runs
 *    serially.
 */

#ifndef INFLESS_CORE_SHARDED_PLATFORM_HH
#define INFLESS_CORE_SHARDED_PLATFORM_HH

#include <cstdint>
#include <memory>
#include <vector>

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
     * Lockstep window length: how far the cells run between barriers,
     * and so the slice of arrivals each barrier routes. Routing is
     * static, so the window changes no output, only how often the cells
     * synchronize.
     */
    sim::Tick windowTicks = 250 * sim::kTicksPerMs;
    /** Worker threads for the per-cell engines; 0 = hardware
     *  concurrency. Clamped to the cell count. */
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
     * routed to @p fn's home cell window by window as the run reaches
     * them. Panics on an id deploy() did not return.
     */
    void injectTrace(FunctionId fn, workload::ArrivalTrace trace);

    /** Materialize and inject a rate series (Poisson arrivals). */
    void injectRateSeries(FunctionId fn,
                          const workload::RateSeries &series);

    /**
     * Advance the whole cluster to an absolute tick.
     *
     * Multi-cell: loops lockstep windows — route the window's arrivals
     * to home cells, then, on the worker pool and busiest cell first,
     * have every cell inject its routed arrivals and run to the window
     * end.
     */
    void run(sim::Tick until);

    // Introspection --------------------------------------------------------

    std::size_t cellCount() const { return cells_.size(); }
    /** Cell @p i's platform; its SLO monitor, flight recorder, tracer
     *  and overload state cover that cell only. */
    const Platform &cell(std::size_t i) const;
    /** The cell that receives every arrival of @p fn, fixed at deploy()
     *  (0 with one cell). Panics on an id deploy() did not return. */
    std::size_t homeCell(FunctionId fn) const
    {
        std::size_t idx = functionIndex(fn);
        return delegated() ? 0 : homes_[idx];
    }

    std::size_t functionCount() const { return cells_[0]->functionCount(); }

    /** Aggregate metrics over all cells (cells=1: the flat metrics). */
    const metrics::RunMetrics &totalMetrics() const;

    /** Merged metrics of one function across cells. Panics on an id
     *  deploy() did not return. */
    const metrics::RunMetrics &functionMetrics(FunctionId fn) const;

    /** Events executed across every cell's engine. */
    std::uint64_t eventsExecuted() const;

    /** Scheduling passes run across every cell's scheduler. */
    std::uint64_t schedulerDecisions() const;

    /** Admitted-but-unsettled requests across all cells. */
    std::int64_t inFlightRequests() const;

    /** Live instances across all cells. */
    int liveInstanceCount() const;

    /** Requests routed to cell @p i over the whole run. */
    std::int64_t routedTo(std::size_t i) const;

  private:
    /** One injected trace awaiting routing (multi-cell only), read by
     *  its routing cursor. */
    struct PendingFeed
    {
        FunctionId fn;
        sim::TickLog ticks;
        /** Next arrival, already taken from @c ticks; kTickNever once
         *  the feed is spent. */
        sim::Tick head = sim::kTickNever;
    };

    bool delegated() const { return cells_.size() == 1; }

    /** @p fn as an index; panics on an id deploy() did not return. */
    std::size_t functionIndex(FunctionId fn) const;
    /** Serial barrier work: move each feed's window slice to its
     *  function's routed buffer. */
    void routeArrivals(sim::Tick window_end, sim::Tick until);
    /** Inject and clear cell @p c's routed buffers (its worker only). */
    void injectRouted(std::size_t c);
    void rebuildMerged() const;

    CellOptions cellOpts_;
    std::vector<std::unique_ptr<Platform>> cells_;
    std::unique_ptr<sim::WorkerPool> pool_;
    /** Workload materialization stream (multi-cell injectRateSeries). */
    sim::Rng workloadRng_;
    /** Seed of the rendezvous weights behind every home cell. */
    std::uint64_t homeSeed_;
    /** Home cell per function, fixed at deploy() (multi-cell only). */
    std::vector<std::size_t> homes_;

    std::vector<PendingFeed> pending_;
    std::vector<std::int64_t> routedTotal_;
    /** Arrivals routed to each cell at the current barrier. */
    std::vector<std::int64_t> windowRouted_;
    /** Routed ticks per function (multi-cell only), reused across
     *  windows: filled from whole feed slices, merged when one function
     *  has several feeds, and drained by the home cell's worker. */
    std::vector<std::vector<sim::Tick>> routedBuf_;
    /** One feed's window slice; swapped into an empty routedBuf_
     *  entry, so capacities circulate. */
    std::vector<sim::Tick> slice_;
    /** Cells by this window's routed arrivals, descending, ties to the
     *  lower index: the order workers claim them in. */
    std::vector<std::size_t> order_;

    sim::Tick cursor_ = 0;
    sim::Tick endTime_ = 0;

    /** Lazily rebuilt cross-cell merges (multi-cell only). */
    mutable metrics::RunMetrics merged_;
    mutable std::vector<metrics::RunMetrics> mergedFn_;
    mutable bool mergedDirty_ = true;
};

} // namespace infless::core

#endif // INFLESS_CORE_SHARDED_PLATFORM_HH
