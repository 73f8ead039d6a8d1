/**
 * @file
 * A fleet of simulated servers.
 */

#ifndef INFLESS_CLUSTER_CLUSTER_HH
#define INFLESS_CLUSTER_CLUSTER_HH

#include <cstddef>
#include <vector>

#include "cluster/capacity_index.hh"
#include "cluster/resources.hh"
#include "cluster/server.hh"

namespace infless::cluster {

/**
 * The set of machines the scheduler places instances on: a number of
 * servers of one capacity.
 *
 * Both the 8-node local testbed and the 2,000-node simulation of the paper
 * are instances of this class with different sizes.
 *
 * Only servers below a materialization frontier have a Server record.
 * Every id at or past it is pristine: available equals capacity, nothing
 * is allocated, and it is up and admitted. The first mutator that changes
 * a server at or past the frontier materializes every server up to it,
 * so memory is O(highest touched id) and every query answers as if the
 * whole fleet had records.
 */
class Cluster
{
  public:
    /**
     * Build a cluster. O(1): no server has a record yet.
     *
     * @param num_servers Number of machines.
     * @param capacity Per-machine capacity; defaults to the paper testbed.
     */
    explicit Cluster(std::size_t num_servers,
                     const Resources &capacity = testbedServerCapacity());

    std::size_t size() const { return size_; }

    /** Servers with a record: ids below the materialization frontier. */
    std::size_t materialized() const { return servers_.size(); }

    /** The server's state; a pristine server's is built on the fly. */
    Server server(ServerId id) const;

    /**
     * Visit every server in id order as f(const Server &): the
     * materialized records, then a pristine value for each id past the
     * frontier. O(servers) time, no allocation.
     */
    template <typename F>
    void
    forEachServer(F &&f) const
    {
        for (const Server &s : servers_)
            f(s);
        for (auto id = static_cast<ServerId>(servers_.size());
             static_cast<std::size_t>(id) < size_; ++id)
            f(Server(id, serverCapacity_));
    }

    /**
     * The capacity index over the fleet. Kept in sync by allocate() and
     * release() — all mutation must go through the Cluster, never
     * directly through a Server.
     */
    const CapacityIndex &capacityIndex() const { return index_; }

    /** Sum of all capacities, down and quarantined servers included.
     *  O(1): summed once at construction. */
    Resources totalCapacity() const { return capacity_; }

    /** Sum of all unallocated resources, down and quarantined servers
     *  included. O(1): capacity less the running allocation total. */
    Resources totalAvailable() const { return capacity_ - allocated_; }

    /** Sum of all allocated resources. O(1): a running total kept by
     *  allocate() and release(). */
    Resources totalAllocated() const { return allocated_; }

    /**
     * Average unallocated fraction over *active* servers (Fig. 17b's
     * resource fragment ratio). Idle servers are excluded: they are spare
     * capacity, not fragmentation. O(active servers), summed in id order.
     */
    double fragmentRatio(double beta = kDefaultBeta) const;

    /** Number of servers with at least one allocation. */
    std::size_t activeServers() const { return active_.size(); }

    /** Allocate @p req on the given server; false if it does not fit
     *  (always false while the server is down). */
    bool allocate(ServerId id, const Resources &req);

    /** Release a previous allocation on the given server. Legal on a down
     *  server: the platform returns crashed instances' resources before
     *  the machine recovers. */
    void release(ServerId id, const Resources &req);

    // Failure state ---------------------------------------------------------

    /**
     * Take a server offline (fault injection): it leaves the capacity
     * index, so no placement probe or scheduler pass can select it, and
     * allocate() refuses until setServerUp(). Idempotent.
     */
    void setServerDown(ServerId id);

    /** Bring a crashed server back into the placement pool. Idempotent. */
    void setServerUp(ServerId id);

    /** Whether the server is currently down. */
    bool
    serverDown(ServerId id) const
    {
        const Server *s = record(id);
        return s != nullptr && s->isDown();
    }

    /** Number of servers currently down. O(materialized servers). */
    std::size_t downServers() const;

    // Health state (outlier ejection) ---------------------------------------

    /**
     * Quarantine a server: it leaves the capacity index, so no placement
     * probe or scheduler pass selects it, but — unlike a crash — it keeps
     * serving what it already hosts while the platform drains it.
     * Orthogonal to the crash state: a quarantined server may crash and
     * recover without rejoining the pool. Idempotent.
     */
    void quarantineServer(ServerId id);

    /** Re-admit a quarantined server to the placement pool. Idempotent. */
    void liftQuarantine(ServerId id);

    /** Whether the server is currently quarantined. */
    bool
    serverQuarantined(ServerId id) const
    {
        const Server *s = record(id);
        return s != nullptr && s->isQuarantined();
    }

    /** Number of servers currently quarantined. O(materialized
     *  servers). */
    std::size_t quarantinedServers() const;

    /**
     * First-fit probe: the first server that can host @p req.
     *
     * Answered from the capacity index — O(classes), not O(servers).
     *
     * @return kNoServer when nothing fits.
     */
    ServerId firstFit(const Resources &req) const;

    /**
     * Best-fit probe: the server with the smallest weighted availability
     * that can host @p req, ties to the lowest id (equivalent to a linear
     * id-order best-fit scan). Answered from the capacity index.
     *
     * @return kNoServer when nothing fits.
     */
    ServerId bestFit(const Resources &req, double beta) const;

  private:
    /** Panics on an id outside the fleet. */
    void checkId(ServerId id) const;

    /** The record of server @p id, or null while it is pristine.
     *  Panics on an id outside the fleet. */
    const Server *record(ServerId id) const;

    /** The record of server @p id, materializing through it. */
    Server &serverMut(ServerId id);

    /** Whether the server is filed in the capacity index. */
    static bool
    filed(const Server &s)
    {
        return !s.isDown() && !s.isQuarantined();
    }

    /** Number of servers. */
    std::size_t size_;
    /** Every server's capacity. */
    Resources serverCapacity_;
    /** Records of the materialized servers, ids 0 .. frontier - 1. */
    std::vector<Server> servers_;
    CapacityIndex index_;
    /** Exact sum of capacities. */
    Resources capacity_;
    /** Exact sum of allocations. */
    Resources allocated_;
    /** Ids of servers with at least one allocation, sorted ascending. */
    std::vector<ServerId> active_;
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_CLUSTER_HH
