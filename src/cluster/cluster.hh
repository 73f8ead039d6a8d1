/**
 * @file
 * A fleet of simulated servers.
 */

#ifndef INFLESS_CLUSTER_CLUSTER_HH
#define INFLESS_CLUSTER_CLUSTER_HH

#include <cstddef>
#include <map>
#include <vector>

#include "cluster/capacity_index.hh"
#include "cluster/resources.hh"
#include "cluster/server.hh"
#include "cluster/topology.hh"

namespace infless::cluster {

/**
 * The set of machines the scheduler places instances on.
 *
 * Both the 8-node local testbed and the 2,000-node simulation of the paper
 * are instances of this class with different sizes.
 */
class Cluster
{
  public:
    /**
     * Build a homogeneous cluster.
     *
     * @param num_servers Number of machines.
     * @param capacity Per-machine capacity; defaults to the paper testbed.
     */
    explicit Cluster(std::size_t num_servers,
                     const Resources &capacity = testbedServerCapacity());

    /**
     * Build a heterogeneous cluster (e.g. a mix of GPU and CPU-only
     * machines).
     */
    explicit Cluster(const std::vector<Resources> &capacities);

    /** Per-server capacities, in server-id order. */
    std::vector<Resources> capacities() const;

    /**
     * A compact stand-in for capacities() when probing placements on an
     * empty copy of the fleet: for every distinct capacity, the
     * @p per_capacity lowest-id servers of that capacity, merged in
     * id order. O(classes x per_capacity), independent of fleet size.
     */
    std::vector<Resources> probeCapacities(std::size_t per_capacity) const;

    std::size_t size() const { return servers_.size(); }

    const Server &server(ServerId id) const;

    const std::vector<Server> &servers() const { return servers_; }

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
    bool serverDown(ServerId id) const { return server(id).isDown(); }

    /** Number of servers currently down. */
    std::size_t downServers() const;

    // Failure domains -------------------------------------------------------

    /**
     * Assign the (zone, rack) a server physically lives in. A plain
     * store: the capacity index does not see domains. Domains are a
     * property of the *machine*, keyed off its global id by the caller.
     */
    void setServerDomain(ServerId id, const FailureDomain &domain);

    /** Domain of a server (unassigned ⇒ kNoDomain fields). */
    FailureDomain serverDomain(ServerId id) const;

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
        return server(id).isQuarantined();
    }

    /** Number of servers currently quarantined. */
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
    Server &serverMut(ServerId id);

    /** Whether the server is filed in the capacity index. */
    static bool
    filed(const Server &s)
    {
        return !s.isDown() && !s.isQuarantined();
    }

    /** Account a new member in byCapacity_ (ids arrive ascending) and
     *  in the capacity total. */
    void fileCapacity(const Server &s);

    std::vector<Server> servers_;
    CapacityIndex index_;
    /** Exact sum of capacities. */
    Resources capacity_;
    /** Exact sum of allocations. */
    Resources allocated_;
    /** Ids of servers with at least one allocation, sorted ascending. */
    std::vector<ServerId> active_;
    /** Server ids per capacity, ascending. */
    std::map<Resources, std::vector<ServerId>, ResourcesLess> byCapacity_;
    /** Per-server failure domain; empty until the first assignment. */
    std::vector<FailureDomain> domains_;
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_CLUSTER_HH
