/**
 * @file
 * Failure-domain topology: zones and racks over the server fleet.
 *
 * Production clusters fail in correlated units — a rack PDU trips, a
 * zone loses cooling — and placement that ignores the topology stacks a
 * function's instances into one blast radius. TopologyConfig assigns
 * every server a (zone, rack) FailureDomain as a pure function of its
 * id. Only a flat platform takes a topology: each cell of a multi-cell
 * ShardedPlatform numbers its servers from 0.
 */

#ifndef INFLESS_CLUSTER_TOPOLOGY_HH
#define INFLESS_CLUSTER_TOPOLOGY_HH

#include <cstddef>
#include <cstdint>

#include "cluster/server.hh"

namespace infless::cluster {

/** Index of a failure domain (zone or rack, depending on context). */
using DomainId = std::int32_t;

/** Sentinel for "no domain assigned" (topology disabled). */
constexpr DomainId kNoDomain = -1;

/** The (zone, rack) a server physically lives in. */
struct FailureDomain
{
    DomainId zone = kNoDomain;
    /** Rack index, global across zones (zone * racksPerZone + local). */
    DomainId rack = kNoDomain;

    bool assigned() const { return zone != kNoDomain; }

    bool
    operator==(const FailureDomain &o) const
    {
        return zone == o.zone && rack == o.rack;
    }
};

/**
 * Deterministic fleet topology. Disabled by default (zones == 0) and
 * whenever any dimension is 0: no server gets a domain and every
 * topology-aware code path is inert.
 *
 * Servers are laid out in contiguous blocks of @p rackSize, assigned to
 * racks round-robin: rack(s) = (s / rackSize) mod (zones * racksPerZone).
 * Contiguous blocks make the assignment legible in traces, and the
 * modulo wrap keeps every rack populated however large the fleet is.
 */
struct TopologyConfig
{
    /** Number of zones; 0 (the default) disables the topology. */
    std::size_t zones = 0;
    /** Racks per zone. */
    std::size_t racksPerZone = 1;
    /** Servers per contiguous rack block. */
    std::size_t rackSize = 8;

    bool
    enabled() const
    {
        return zones > 0 && racksPerZone > 0 && rackSize > 0;
    }

    /** Total rack domains (the granularity of correlated outages). */
    std::size_t rackDomains() const { return zones * racksPerZone; }

    /** Rack of a server, keyed by its id. */
    DomainId
    rackOf(ServerId global_id) const
    {
        if (!enabled() || global_id < 0)
            return kNoDomain;
        auto block = static_cast<std::size_t>(global_id) / rackSize;
        return static_cast<DomainId>(block % rackDomains());
    }

    /** Zone a rack belongs to. */
    DomainId
    zoneOf(DomainId rack) const
    {
        if (rack == kNoDomain)
            return kNoDomain;
        return rack / static_cast<DomainId>(racksPerZone);
    }

    /** Full (zone, rack) of a server, keyed by its id. */
    FailureDomain
    domainOf(ServerId global_id) const
    {
        FailureDomain d;
        d.rack = rackOf(global_id);
        d.zone = zoneOf(d.rack);
        return d;
    }
};

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_TOPOLOGY_HH
