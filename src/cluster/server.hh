/**
 * @file
 * A single simulated server with allocatable CPU/GPU/memory capacity.
 */

#ifndef INFLESS_CLUSTER_SERVER_HH
#define INFLESS_CLUSTER_SERVER_HH

#include <cstdint>

#include "cluster/resources.hh"

namespace infless::cluster {

/** Index of a server inside its Cluster. */
using ServerId = std::int32_t;

/** Sentinel for "no server". */
constexpr ServerId kNoServer = -1;

/**
 * Tracks capacity, current allocation and fragmentation of one machine.
 *
 * The testbed machine of the paper (Table 2), testbedServerCapacity(), is
 * Cluster's default: 16 physical cores, 128 GiB RAM and two RTX 2080Ti
 * GPUs (200% SM).
 */
class Server
{
  public:
    /** Panics if a component of @p capacity is negative or exceeds
     *  INT32_MAX. */
    Server(ServerId id, const Resources &capacity);

    ServerId id() const { return id_; }

    /** Total capacity. */
    Resources capacity() const { return capacity_.widen(); }

    /** Currently unallocated resources. */
    Resources available() const { return available_.widen(); }

    /** available().weighted(beta): the scheduler's per-server e_ij
     *  input. */
    double
    weightedAvailable(double beta) const
    {
        return available().weighted(beta);
    }

    /** Currently allocated resources. */
    Resources allocated() const { return capacity() - available(); }

    /** Whether @p req fits in the unallocated remainder (false while the
     *  server is down or quarantined: neither hosts anything new). */
    bool
    canFit(const Resources &req) const
    {
        return !down_ && !quarantined_ && req.fitsIn(available());
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
     * Reserve @p req. Panics if a component of @p req exceeds
     * INT32_MAX.
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
    /**
     * A Resources held in 32-bit components. A fleet holds one Server
     * per machine, so the two vectors dominate its memory; no real
     * machine has more than INT32_MAX millicores, SM percent or MiB.
     */
    struct Compact
    {
        std::int32_t cpuMillicores = 0;
        std::int32_t gpuSmPercent = 0;
        std::int32_t memoryMb = 0;

        /** Narrow @p r; panics unless every component is in
         *  [0, INT32_MAX]. */
        static Compact narrow(const Resources &r);

        Resources
        widen() const
        {
            return Resources{cpuMillicores, gpuSmPercent, memoryMb};
        }
    };

    ServerId id_ = kNoServer;
    Compact capacity_;
    Compact available_;
    int allocationCount_ = 0;
    bool down_ = false;
    bool quarantined_ = false;
};

/** The paper's testbed node: 16 cores, 128 GiB, 2x RTX 2080Ti. */
Resources testbedServerCapacity();

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_SERVER_HH
