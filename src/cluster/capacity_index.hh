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
 *
 * A class holds its materialized members as a min-heap of ids with lazy
 * deletion: a per-server tag names the class that currently holds the id,
 * and heap entries whose id carries another tag are stale. Allocate/
 * release move one id between two classes in O(log classes + log
 * members) amortized, with no per-server node allocation.
 *
 * Servers at or past the owning Cluster's materialization frontier are
 * pristine (available == capacity, up, admitted) and carry no tag: they
 * are filed as one implicit id range, from the frontier to the end of the
 * fleet, inside the class keyed by the fleet's capacity. That class's
 * count and minimum include the range, and the range lies above every
 * materialized id, so the lowest-id tie-break is unchanged, and a fresh
 * fleet of any size is one class holding one range.
 *
 * Failure domains are not indexed: a server's rack does not change its
 * class. Spread placement, whose penalty depends on the rack, scans the
 * servers instead (GreedyScheduler::schedule).
 */

#ifndef INFLESS_CLUSTER_CAPACITY_INDEX_HH
#define INFLESS_CLUSTER_CAPACITY_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "cluster/resources.hh"
#include "cluster/server.hh"

namespace infless::cluster {

class Cluster;

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

    /**
     * Rebuild from scratch as a fleet of @p servers pristine servers of
     * @p capacity: one class holding one implicit range.
     */
    void rebuild(std::size_t servers, const Resources &capacity);

    /**
     * Turn the pristine ids [first, end) of the class keyed by
     * @p capacity into materialized members. @p first must be the
     * frontier, and [first, end) must lie inside that class's range.
     */
    void materialize(ServerId first, ServerId end,
                     const Resources &capacity);

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
     * Visit every class whose key covers @p req in CPU and GPU, as
     * f(avail, weightedAvail, minId, count) -> bool.
     *
     * Classes are visited CPU level by CPU level (ascending cpu, from
     * req.cpu up); within a level the scan seeks to gpu >= req.gpu and
     * walks upward in (gpu, memory) order, so weightedAvail never
     * decreases along a level. Returning false skips the rest of the
     * current level. Memory is not filtered: callers still check
     * req.fitsIn(avail). A class that does not cover req's CPU and GPU
     * cannot fit it, so with f always returning true every fitting class
     * is visited.
     *
     * @p weightedAvail is avail.weighted(beta), cached per class until
     * the class key changes (class entries are immutable once created,
     * so the cache only recomputes when @p beta differs from the last
     * call's).
     */
    template <typename F>
    void
    forEachCoveringClass(const Resources &req, double beta, F &&f) const
    {
        constexpr std::int64_t kMin =
            std::numeric_limits<std::int64_t>::min();
        constexpr std::int64_t kMax =
            std::numeric_limits<std::int64_t>::max();
        auto it = classes_.lower_bound(
            Resources{req.cpuMillicores, req.gpuSmPercent, kMin});
        while (it != classes_.end()) {
            const std::int64_t cpu = it->first.cpuMillicores;
            if (it->first.gpuSmPercent < req.gpuSmPercent) {
                it = classes_.lower_bound(
                    Resources{cpu, req.gpuSmPercent, kMin});
                continue;
            }
            for (; it != classes_.end() && it->first.cpuMillicores == cpu;
                 ++it) {
                const ClassEntry &entry = it->second;
                if (!f(it->first, entry.weighted(it->first, beta),
                       entry.members.min(), entry.members.size())) {
                    it = classes_.upper_bound(Resources{cpu, kMax, kMax});
                    break;
                }
            }
        }
    }

    /**
     * Exhaustive invariant check against the source of truth: classes
     * partition the up, admitted servers of @p cluster and every
     * member's availability matches its class key. For tests.
     */
    bool consistentWith(const Cluster &cluster) const;

  private:
    /** Server ids [first, end). */
    struct IdRange
    {
        ServerId first = 0;
        ServerId end = 0;
    };

    /**
     * A set of server ids: materialized ones as a min-heap with lazy
     * deletion, pristine ones as an id range past the frontier. Which
     * heap entries are live is decided by the owner (through the
     * per-server tags), so the heap may hold stale ids and duplicates of
     * a live one; every operation leaves a live id on top.
     */
    struct Members
    {
        /** Min-heap of materialized ids (std::greater order). */
        std::vector<ServerId> heap;
        /** Live materialized members. */
        std::size_t count = 0;
        /** Pristine ids; empty except in the class keyed by the fleet's
         *  capacity. */
        IdRange pristine;

        /** Lowest live id: pristine ids lie above every materialized
         *  one. */
        ServerId
        min() const
        {
            return count > 0 ? heap.front() : pristine.first;
        }

        /** Live members, materialized and pristine. */
        std::size_t
        size() const
        {
            return count +
                   static_cast<std::size_t>(pristine.end - pristine.first);
        }

        void push(ServerId id);

        /**
         * Account one member gone whose tag already says so: pop stale
         * tops, and compact once stale entries outnumber live ones.
         */
        template <typename Live> void erase(Live &&live);
    };

    struct ClassEntry
    {
        /** Unique per class instance; servers filed here carry it. */
        std::uint32_t tag = 0;
        Members members;
        /** Lazy weighted-availability cache (key never changes). */
        mutable double cachedWeighted = 0.0;
        mutable double cachedBeta =
            std::numeric_limits<double>::quiet_NaN();

        double
        weighted(const Resources &avail, double beta) const
        {
            if (cachedBeta != beta) {
                cachedWeighted = avail.weighted(beta);
                cachedBeta = beta;
            }
            return cachedWeighted;
        }
    };

    void insert(ServerId id, const Resources &avail);

    /** The class keyed by @p avail, created (with a fresh tag) if
     *  absent. */
    ClassEntry &classFor(const Resources &avail);

    /** Tag of the class holding @p id; 0 when unfiled or pristine. */
    std::uint32_t
    tagOf(ServerId id) const
    {
        auto i = static_cast<std::size_t>(id);
        return i < tagOf_.size() ? tagOf_[i] : 0;
    }

    /** Tag materialized server @p id; panics past the frontier. */
    void setTag(ServerId id, std::uint32_t tag);

    std::map<Resources, ClassEntry, ResourcesLess> classes_;
    std::size_t serverCount_ = 0;
    /** Per materialized server id: the tag of the class holding it, 0
     *  when unfiled. Its size is the materialization frontier. */
    std::vector<std::uint32_t> tagOf_;
    /** Next class tag to hand out; 0 is reserved for "unfiled". Panics
     *  rather than wrap onto a live tag. */
    std::uint32_t nextTag_ = 1;
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_CAPACITY_INDEX_HH
