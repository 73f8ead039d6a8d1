/**
 * @file
 * Cross-cell request router.
 *
 * The sharded control plane fronts its cells with a router that keeps
 * each function's traffic in a small *home set* of cells, so one cell's
 * scheduler batches and scales that function instead of every cell
 * replicating it. A function ranks the cells by rendezvous hash; its
 * home set is the first k cells of that ranking, starting at k = 1. The
 * home set grows by one cell at a window barrier when every home cell
 * reported a scale-out miss (its scheduler placed nothing) in the last
 * window, and never shrinks within a run. With k > 1 the router picks
 * inside the home set by power-of-two-choices over per-cell load
 * digests. Digests are refreshed only at window barriers (conservative
 * time synchronization), so between refreshes the router corrects its
 * stale view with a local count of requests it has already sent each
 * way.
 */

#ifndef INFLESS_CLUSTER_CELL_ROUTER_HH
#define INFLESS_CLUSTER_CELL_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace infless::cluster {

/**
 * One cell's load summary as of the last window barrier.
 *
 * weightedAvail is the cell's free capacity in the paper's beta-weighted
 * scalar (Eq. 2); queueDepth counts requests waiting in the cell's
 * instance queues; dropPressure counts drops (sheds included) since the
 * previous barrier and steers the in-home-set choice away from a cell
 * that is rejecting work. scaleOutMisses[fn] counts the scale-out
 * attempts for function fn since the previous barrier in which the
 * cell's scheduler placed nothing; it is the only signal that grows a
 * home set (a missing entry reads as zero).
 */
struct CellDigest
{
    double weightedAvail = 0.0;
    std::int64_t queueDepth = 0;
    std::int64_t dropPressure = 0;
    std::vector<std::int64_t> scaleOutMisses;
};

/**
 * Home-cell router over cell digests.
 *
 * Stateless apart from a dedicated RNG stream, the per-function home
 * sizes and the per-epoch routed counters, so routing decisions depend
 * only on (seed, refresh history, call sequence) — never on wall-clock
 * or thread schedule — and a run is reproducible bit-for-bit.
 */
class CellRouter
{
  public:
    /**
     * @param cells Number of cells routed over; must be >= 1.
     * @param seed Seed for the router's rendezvous ranking and its own
     *        RNG stream (derive it from the run seed so the stream is
     *        independent of every other consumer).
     */
    CellRouter(std::size_t cells, std::uint64_t seed);

    std::size_t cells() const { return digests_.size(); }

    /**
     * Install fresh digests (one per cell, cell order) at a window
     * barrier, grow every home set whose cells all reported a
     * scale-out miss for its function, and reset the per-epoch routed
     * counters.
     */
    void refresh(const std::vector<CellDigest> &digests);

    /**
     * Pick the cell for the next request of function @p fn.
     *
     * A one-cell home set returns its cell without drawing, so a
     * function that never spilled (and cells=1) consumes no randomness.
     * A larger home set draws two distinct home cells from the router's
     * RNG stream and keeps the one with the lower load score; ties go
     * to the lower cell index.
     */
    std::size_t route(std::size_t fn);

    /** Size of @p fn's home set (1 until it first spills). */
    std::size_t homeSize(std::size_t fn) const;

    /**
     * The cell of rank @p rank in @p fn's rendezvous order; the home
     * set is ranks [0, homeSize(fn)). A pure function of (seed, fn).
     */
    std::size_t rankedCell(std::size_t fn, std::size_t rank) const;

    /** Requests routed to @p cell since the last refresh(). */
    std::int64_t routedSinceRefresh(std::size_t cell) const
    {
        return routed_[cell];
    }

    /**
     * Load score used to compare candidates: outstanding work (queue
     * depth at the barrier, plus what this router already sent since,
     * plus drop pressure) per unit of weighted free capacity. Lower is
     * better.
     */
    double score(std::size_t cell) const;

  private:
    /** Write @p fn's rendezvous order of the cells to @p out. */
    void rank(std::size_t fn, std::uint32_t *out) const;
    /** Rank and home every function id up to @p fn. */
    void ensureFunction(std::size_t fn);

    std::uint64_t seed_;
    std::vector<CellDigest> digests_;
    std::vector<std::int64_t> routed_;
    /** Rendezvous order, function-major: cells() entries per function. */
    std::vector<std::uint32_t> ranking_;
    std::vector<std::size_t> homeSize_;
    sim::Rng rng_;
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_CELL_ROUTER_HH
