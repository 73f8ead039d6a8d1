/**
 * @file
 * Cross-cell request router.
 *
 * The sharded control plane fronts its cells with a router that spreads
 * arriving requests by power-of-two-choices over per-cell load digests.
 * Digests are refreshed only at window barriers (conservative time
 * synchronization), so between refreshes the router corrects its stale
 * view with a local count of requests it has already sent each way.
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
 * instance queues; dropPressure counts drops and load-sheds since the
 * previous barrier — the reactive scale-out spillover signal that steers
 * new work away from cells that are rejecting it.
 */
struct CellDigest
{
    double weightedAvail = 0.0;
    std::int64_t queueDepth = 0;
    std::int64_t dropPressure = 0;
};

/**
 * Power-of-two-choices router over cell digests.
 *
 * Stateless apart from a dedicated RNG stream and the per-epoch routed
 * counters, so routing decisions depend only on (seed, refresh history,
 * call sequence) — never on wall-clock or thread schedule — and a run is
 * reproducible bit-for-bit.
 */
class CellRouter
{
  public:
    /**
     * @param cells Number of cells routed over; must be >= 1.
     * @param seed Seed for the router's own RNG stream (derive it from
     *        the run seed so the stream is independent of every other
     *        consumer).
     */
    CellRouter(std::size_t cells, std::uint64_t seed);

    std::size_t cells() const { return digests_.size(); }

    /**
     * Install fresh digests (one per cell, cell order) at a window
     * barrier and reset the per-epoch routed counters.
     */
    void refresh(const std::vector<CellDigest> &digests);

    /**
     * Pick the cell for the next request.
     *
     * Draws two candidate cells from the router's RNG stream and keeps
     * the one with the lower load score; ties go to the lower cell
     * index. A single-cell router short-circuits to 0 without drawing,
     * so cells=1 consumes no randomness.
     */
    std::size_t route();

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
    std::vector<CellDigest> digests_;
    std::vector<std::int64_t> routed_;
    sim::Rng rng_;
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_CELL_ROUTER_HH
