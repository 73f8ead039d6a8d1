/**
 * @file
 * Server capacity index — equivalence classes over available resources.
 *
 * The scheduler's argmax over e_ij only depends on a server through its
 * available-resource vector, so servers with identical remainders are
 * interchangeable up to the id tie-break. The index groups servers into
 * equivalence classes keyed by that vector (a fresh homogeneous
 * 2,000-server cluster has exactly *one* class), letting placement loops
 * evaluate each candidate once per class instead of once per server.
 * Updates on allocate/release move one id between two classes —
 * O(log classes + log members).
 */

#ifndef INFLESS_CLUSTER_CAPACITY_INDEX_HH
#define INFLESS_CLUSTER_CAPACITY_INDEX_HH

#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "cluster/resources.hh"
#include "cluster/server.hh"
#include "cluster/topology.hh"

namespace infless::cluster {

/**
 * Groups the servers of one Cluster by available-resource vector.
 *
 * The owning Cluster keeps the index in sync from allocate()/release();
 * all placement probes (firstFit, bestFit, the scheduler's e_ij argmax)
 * run over classes. Iteration order is deterministic: classes are sorted
 * by their (cpu, gpu, memory) key.
 */
class CapacityIndex
{
  public:
    CapacityIndex() = default;

    /** Rebuild from scratch (constructor / wholesale reset). */
    void rebuild(const std::vector<Server> &servers);

    /**
     * Move @p id from the class keyed by @p before to the one keyed by
     * @p after. Panics if the server is not filed under @p before.
     */
    void update(ServerId id, const Resources &before,
                const Resources &after);

    /**
     * Unfile a server (crashed machine leaving the placement pool).
     * Panics if it is not filed under @p avail.
     */
    void remove(ServerId id, const Resources &avail);

    /** Re-file a recovered server under its current availability. */
    void add(ServerId id, const Resources &avail) { insert(id, avail); }

    /** Number of distinct available-resource vectors. */
    std::size_t classCount() const { return classes_.size(); }

    /** Total servers tracked. */
    std::size_t serverCount() const { return serverCount_; }

    /**
     * Lowest server id whose availability fits @p req (the first-fit
     * answer of a linear id-order scan), or kNoServer.
     */
    ServerId firstFit(const Resources &req) const;

    /**
     * Server with the smallest weighted availability that fits @p req;
     * ties broken toward the lowest id (matching a linear id-order
     * best-fit scan). kNoServer when nothing fits.
     */
    ServerId bestFit(const Resources &req, double beta) const;

    /**
     * Visit every class as f(avail, weightedAvail, minId, count).
     *
     * @p weightedAvail is avail.weighted(beta), cached per class until
     * the class key changes (class entries are immutable once created,
     * so the cache only recomputes when @p beta differs from the last
     * call's).
     */
    template <typename F>
    void
    forEachClass(double beta, F &&f) const
    {
        for (const auto &[avail, entry] : classes_) {
            if (entry.cachedBeta != beta) {
                entry.cachedWeighted = avail.weighted(beta);
                entry.cachedBeta = beta;
            }
            f(avail, entry.cachedWeighted, *entry.members.begin(),
              entry.members.size());
        }
    }

    // Failure domains -------------------------------------------------------

    /**
     * Record the rack domain of a server. The first call enables domain
     * bucketing: from then on every class additionally partitions its
     * members by rack, and forEachClassDomain() becomes meaningful.
     * Clusters that never assign a domain pay nothing — the per-class
     * bucket maps stay empty and forEachClass() is untouched.
     *
     * @param filed_avail The server's current availability if it is
     *        presently filed in the index (so its bucket can move), or
     *        nullptr if it is unfiled (down/quarantined).
     */
    void assignDomain(ServerId id, DomainId rack,
                      const Resources *filed_avail);

    /** Whether any domain was ever assigned. */
    bool domainsEnabled() const { return !rackOf_.empty(); }

    /** Rack domain of a server (kNoDomain when unassigned). */
    DomainId
    domainOf(ServerId id) const
    {
        if (id < 0 || static_cast<std::size_t>(id) >= rackOf_.size())
            return kNoDomain;
        return rackOf_[static_cast<std::size_t>(id)];
    }

    /**
     * Visit every (class, rack-domain) bucket as
     * f(avail, weightedAvail, rack, minId, count).
     *
     * Buckets iterate in (class key, rack id) order — deterministic.
     * Servers without an assigned domain appear under kNoDomain. Only
     * valid once domainsEnabled(); the spread-aware scheduler path is
     * the sole caller.
     */
    template <typename F>
    void
    forEachClassDomain(double beta, F &&f) const
    {
        for (const auto &[avail, entry] : classes_) {
            if (entry.cachedBeta != beta) {
                entry.cachedWeighted = avail.weighted(beta);
                entry.cachedBeta = beta;
            }
            for (const auto &[rack, members] : entry.byDomain)
                f(avail, entry.cachedWeighted, rack, *members.begin(),
                  members.size());
        }
    }

    /**
     * Exhaustive invariant check against the source of truth: classes
     * partition the servers and every member's availability matches its
     * class key. For tests.
     */
    bool consistentWith(const std::vector<Server> &servers) const;

  private:
    struct ClassEntry
    {
        std::set<ServerId> members;
        /** Per-rack partition of members; empty unless domainsEnabled(). */
        std::map<DomainId, std::set<ServerId>> byDomain;
        /** Lazy weighted-availability cache (key never changes). */
        mutable double cachedWeighted = 0.0;
        mutable double cachedBeta =
            std::numeric_limits<double>::quiet_NaN();
    };

    void insert(ServerId id, const Resources &avail);

    /** Drop @p id from its domain bucket inside @p entry (no-op when
     *  domains are disabled). */
    void eraseDomainMember(ClassEntry &entry, ServerId id);

    std::map<Resources, ClassEntry, ResourcesLess> classes_;
    std::size_t serverCount_ = 0;
    /** Rack domain per server id; empty == domains disabled. */
    std::vector<DomainId> rackOf_;
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_CAPACITY_INDEX_HH
