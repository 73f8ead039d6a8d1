/**
 * @file
 * A single simulated server with allocatable CPU/GPU/memory capacity.
 */

#ifndef INFLESS_CLUSTER_SERVER_HH
#define INFLESS_CLUSTER_SERVER_HH

#include <cstdint>
#include <limits>

#include "cluster/resources.hh"

namespace infless::cluster {

/** Index of a server inside its Cluster. */
using ServerId = std::int32_t;

/** Sentinel for "no server". */
constexpr ServerId kNoServer = -1;

/**
 * Tracks capacity, current allocation and fragmentation of one machine.
 *
 * The testbed machine of the paper (Table 2) is the default: 16 physical
 * cores, 128 GiB RAM and two RTX 2080Ti GPUs (200% SM).
 */
class Server
{
  public:
    /** Default-constructed servers mirror the paper's testbed node. */
    Server();

    Server(ServerId id, const Resources &capacity);

    ServerId id() const { return id_; }

    /** Total capacity. */
    const Resources &capacity() const { return capacity_; }

    /** Currently unallocated resources. */
    const Resources &available() const { return available_; }

    /**
     * available().weighted(beta), cached between allocations.
     *
     * The scheduler evaluates every (candidate, server) pair against the
     * same availability; the cache turns the repeated weighted() into a
     * load. Invalidated by allocate()/release(), recomputed when @p beta
     * differs from the cached one.
     */
    double
    weightedAvailable(double beta) const
    {
        if (weightedBeta_ != beta) {
            weightedCache_ = available_.weighted(beta);
            weightedBeta_ = beta;
        }
        return weightedCache_;
    }

    /** Currently allocated resources. */
    Resources allocated() const { return capacity_ - available_; }

    /** Whether @p req fits in the unallocated remainder (false while the
     *  server is down or quarantined: neither hosts anything new). */
    bool
    canFit(const Resources &req) const
    {
        return !down_ && !quarantined_ && req.fitsIn(available_);
    }

    // Failure state ---------------------------------------------------------

    /** Whether the server is crashed/offline (fault injection). */
    bool isDown() const { return down_; }

    /** Take the machine offline; canFit()/allocate() refuse until markUp().
     *  The owning Cluster keeps the capacity index in sync — use
     *  Cluster::setServerDown(), never this directly. */
    void markDown() { down_ = true; }

    /** Bring the machine back after repair. */
    void markUp() { down_ = false; }

    // Health state ----------------------------------------------------------

    /**
     * Whether the server is quarantined by the outlier ejector: the
     * machine is up and still serving whatever it already hosts, but it
     * left the placement pool, so nothing new lands on it. Orthogonal to
     * the crash state — a quarantined server can crash and recover
     * without rejoining the pool.
     */
    bool isQuarantined() const { return quarantined_; }

    /** Eject from the placement pool. The owning Cluster keeps the
     *  capacity index in sync — use Cluster::quarantineServer(). */
    void markQuarantined() { quarantined_ = true; }

    /** Re-admit after probation. Use Cluster::liftQuarantine(). */
    void markAdmitted() { quarantined_ = false; }

    /**
     * Reserve @p req.
     *
     * @return false (and change nothing) if it does not fit.
     */
    bool allocate(const Resources &req);

    /** Return a previous allocation. Panics on over-release. */
    void release(const Resources &req);

    /** Number of live allocations. */
    int allocationCount() const { return allocationCount_; }

    /** True if anything is allocated. */
    bool isActive() const { return allocationCount_ > 0; }

    /**
     * Fraction of weighted compute capacity left unallocated.
     *
     * This is the per-server quantity averaged into the paper's resource
     * fragment ratio (Fig. 17b).
     */
    double fragmentRatio(double beta = kDefaultBeta) const;

    /** Fraction of weighted compute capacity allocated. */
    double
    occupancy(double beta = kDefaultBeta) const
    {
        return 1.0 - fragmentRatio(beta);
    }

  private:
    /** Drop the weighted-availability cache (availability changed). */
    void
    invalidateWeighted()
    {
        weightedBeta_ = std::numeric_limits<double>::quiet_NaN();
    }

    ServerId id_ = kNoServer;
    Resources capacity_;
    Resources available_;
    int allocationCount_ = 0;
    bool down_ = false;
    bool quarantined_ = false;
    /** NaN == "no cached value" (never compares equal to any beta). */
    mutable double weightedBeta_ = std::numeric_limits<double>::quiet_NaN();
    mutable double weightedCache_ = 0.0;
};

/** The paper's testbed node: 16 cores, 128 GiB, 2x RTX 2080Ti. */
Resources testbedServerCapacity();

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_SERVER_HH
