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
 * Cells share nothing at run time. ShardedPlatform hands each injected
 * trace straight to its function's home cell, and every subsystem
 * (crashes, startup failures, health ejection, the SLO monitor, the
 * flight recorder, tracing and the overload stack) runs inside each cell
 * exactly as it would in an independent Platform over that slice. So
 * run() is one sim::parallelFor in which every cell runs to the end on
 * its own, and the run is byte-identical for every thread count. One
 * cell takes the same path as any other count: its run is the inline
 * call of that one cell.
 *
 * The partition is static: each cell owns the same contiguous slice of
 * servers for the whole run. A multi-cell platform rejects at
 * construction every option whose meaning depends on global server ids:
 * a topology, correlated domain outages and gray servers.
 *
 * Determinism contract:
 *  - cells=1 is bit-identical to using Platform directly. Only two
 *    things set it apart from other cell counts: its one cell keeps the
 *    caller's seed, and injectRateSeries draws from that cell's own
 *    stream, as the flat Platform does.
 *  - cell c of a multi-cell run is bit for bit a flat Platform over its
 *    slice, seeded off the run seed and c, with every function deployed
 *    and only its home functions' traces injected. The run therefore
 *    depends only on (seed, cells, call sequence).
 */

#ifndef INFLESS_CORE_SHARDED_PLATFORM_HH
#define INFLESS_CORE_SHARDED_PLATFORM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/platform.hh"

namespace infless::core {

/** Sharding configuration. */
struct CellOptions
{
    /** Number of cells; 1 behaves exactly like a flat Platform. */
    std::size_t cells = 1;
    /**
     * Inert: nothing reads it, since every cell runs to the end of each
     * run() in one go. It stays only because benchmark/infless_bench.cc
     * sets it; the benchmark-change backlog item in ROADMAP.md deletes
     * it.
     */
    sim::Tick windowTicks = 250 * sim::kTicksPerMs;
    /** Threads each run() spreads the cells over; 0 = hardware
     *  concurrency, 1 = serial. Clamped to the cell count. */
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
     * Inject a pre-materialized arrival trace into @p fn's home cell.
     * Panics on an id deploy() did not return.
     */
    void injectTrace(FunctionId fn, workload::ArrivalTrace trace);

    /** Materialize and inject a rate series (Poisson arrivals). Panics,
     *  before drawing, on an id deploy() did not return. */
    void injectRateSeries(FunctionId fn,
                          const workload::RateSeries &series);

    /**
     * Advance the whole cluster to an absolute tick.
     *
     * Every cell runs to @p until in one parallelFor, the cells with
     * the most injected arrivals claimed first.
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
        return homes_[functionIndex(fn)];
    }

    std::size_t functionCount() const { return cells_[0]->functionCount(); }

    /** Aggregate metrics over all cells, closed at the last run()'s
     *  end. */
    const metrics::RunMetrics &totalMetrics() const;

    /** Metrics of one function: its home cell's, since no other cell
     *  records anything for it. Panics on an id deploy() did not
     *  return. */
    const metrics::RunMetrics &functionMetrics(FunctionId fn) const;

    /** Events executed across every cell's engine. */
    std::uint64_t eventsExecuted() const;

    /** Scheduling passes run across every cell's scheduler. */
    std::uint64_t schedulerDecisions() const;

    /** Admitted-but-unsettled requests across all cells. */
    std::int64_t inFlightRequests() const;

    /** Live instances across all cells. */
    int liveInstanceCount() const;

    /** Arrivals cell @p i has taken in so far. */
    std::int64_t routedTo(std::size_t i) const;

  private:
    /** @p fn as an index; panics on an id deploy() did not return. */
    std::size_t functionIndex(FunctionId fn) const;
    void rebuildMerged() const;

    std::vector<std::unique_ptr<Platform>> cells_;
    /** CellOptions::threads, handed to every run()'s parallelFor. */
    std::size_t threads_;
    /** Workload materialization stream (multi-cell injectRateSeries). */
    sim::Rng workloadRng_;
    /** Seed of the rendezvous weights behind every home cell. */
    std::uint64_t homeSeed_;
    /** Home cell per function, fixed at deploy(). */
    std::vector<std::size_t> homes_;

    /** Arrivals injected into each cell: the order threads claim cells
     *  in, most first, ties to the lower index. */
    std::vector<std::int64_t> injected_;
    sim::Tick endTime_ = 0;

    /** Lazily rebuilt merge of every cell's totals. */
    mutable metrics::RunMetrics merged_;
    mutable bool mergedDirty_ = true;
};

} // namespace infless::core

#endif // INFLESS_CORE_SHARDED_PLATFORM_HH
