/**
 * @file
 * Correlated failure-domain outages and persistent gray failures.
 *
 * Two fault classes the i.i.d. per-server model (fault_injector.hh)
 * cannot express:
 *
 *  - **Domain outages**: every server in one zone crashes at once (PDU
 *    trip, cooling loss, switch failure) and the zone repairs together.
 *    The outage *schedule* is a pure function of (profile, seed), drawn
 *    from its own RNG substream by DomainOutageStream, so per-server
 *    crash streams are never perturbed.
 *  - **Gray failures**: a seeded subset of servers serves every batch
 *    slower by a lasting multiplier, without ever crashing. Membership
 *    is a pure function of (profile, seed, server id): no events
 *    are scheduled and no stream is consumed, mirroring the
 *    mispredicted-profile fault (FaultProfile::profileErrorFactor).
 */

#ifndef INFLESS_FAULTS_DOMAIN_OUTAGE_HH
#define INFLESS_FAULTS_DOMAIN_OUTAGE_HH

#include <cstddef>
#include <cstdint>

#include "cluster/topology.hh"
#include "sim/rng.hh"
#include "sim/time.hh"

namespace infless::faults {

struct FaultProfile;

/** One correlated outage: a zone dies at @p at, repairs at @p repairAt. */
struct DomainOutageEvent
{
    sim::Tick at = sim::kTickNever;
    cluster::DomainId zone = cluster::kNoDomain;
    sim::Tick repairAt = sim::kTickNever;

    bool valid() const { return at != sim::kTickNever; }
};

/**
 * The deterministic sequence of domain outages for one run.
 *
 * Consumes a dedicated substream of the fault RNG (never the per-server
 * crash streams). Emits the scripted one-shot outage first (if
 * configured), then stochastic outages with exponential inter-outage
 * gaps and uniformly sampled victim zones. Outages are sequential —
 * the next begins only after the previous repairs — and the crash
 * horizon caps new outages exactly like per-server crashes.
 */
class DomainOutageStream
{
  public:
    /**
     * @param profile Fault surface (domain-outage fields).
     * @param seed Run seed.
     * @param num_zones Topology zone count (victim sample space).
     */
    DomainOutageStream(const FaultProfile &profile, std::uint64_t seed,
                       std::size_t num_zones);

    /**
     * Advance to the next outage. Returns an invalid event once the
     * horizon is passed (or when the stream was never enabled).
     */
    DomainOutageEvent next();

  private:
    sim::Rng rng_;
    std::size_t numZones_;
    double mtbfSec_;
    double mttrSec_;
    sim::Tick scriptedAt_;
    cluster::DomainId scriptedZone_;
    sim::Tick horizon_;
    /** End of the previous outage (stochastic gaps start here). */
    sim::Tick cursor_ = 0;
    bool scriptedPending_;
};

/**
 * Gray-failure membership and severity for one server: the lasting
 * exec-time multiplier (1.0 for healthy servers). Pure function of
 * (profile, seed, server id) — schedules nothing, draws from no shared
 * stream — so enabling it perturbs no other stochastic component.
 */
double grayExecMultiplier(const FaultProfile &profile, std::uint64_t seed,
                          cluster::ServerId global_id);

} // namespace infless::faults

#endif // INFLESS_FAULTS_DOMAIN_OUTAGE_HH
