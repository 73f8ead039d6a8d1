/**
 * @file
 * Deterministic fault injection for the simulated cluster.
 *
 * Real deployments of the paper's platform (OpenFaaS on Kubernetes) lose
 * nodes and containers continuously; this module reproduces that failure
 * surface inside the simulation. Two fault classes are modeled:
 *
 *  - **Server crash/recovery**: each server fails after an exponential
 *    MTBF draw and repairs after an exponential MTTR draw, forever (or
 *    until `crashHorizon`). The control-plane reaction — killing resident
 *    instances, releasing resources, failing over requests — lives in
 *    `core::Platform`; the injector only schedules the events and invokes
 *    hooks.
 *  - **Container startup failures**: each cold start aborts with
 *    probability `startupFailureProb` and re-enters the cold-start path,
 *    paying the full penalty again.
 *
 * All randomness comes from a dedicated RNG stream derived directly from
 * the run seed — never from the simulation's root stream — so enabling or
 * reconfiguring faults cannot perturb workload arrival times or any other
 * stochastic component. With a disabled profile the injector schedules no
 * events and draws nothing: a zero-rate run is bit-identical to a run
 * without the subsystem.
 */

#ifndef INFLESS_FAULTS_FAULT_INJECTOR_HH
#define INFLESS_FAULTS_FAULT_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/server.hh"
#include "cluster/topology.hh"
#include "faults/domain_outage.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/time.hh"

namespace infless::faults {

/** Everything tunable about the injected failure surface. */
struct FaultProfile
{
    /** Mean time between failures of one server, seconds (0 = never). */
    double serverMtbfSec = 0.0;
    /** Mean time to repair a crashed server, seconds. */
    double serverMttrSec = 300.0;
    /** Probability one cold-start attempt aborts and must restart. */
    double startupFailureProb = 0.0;
    /**
     * No new crashes after this tick (recoveries still complete). Bench
     * runs set this to the trace end so every lost request can finish
     * its retry chain inside the drain grace period.
     */
    sim::Tick crashHorizon = sim::kTickNever;
    /**
     * Mispredicted-profile fault: a lying profiler. Every latency the
     * controllers see (scheduler, dispatcher, static admission) is
     * multiplied by this factor; execution keeps pricing batches from
     * the ground-truth surface (ExecModel::trueTicks). Values > 1 make
     * the profiler pessimistic, < 1 optimistic; 1 is a faithful
     * profiler. It schedules nothing and draws no randomness, so it is
     * excluded from enabled() — the platform hands it to the predictor.
     */
    double profileErrorFactor = 1.0;

    // Correlated domain outages (require a topology with zones) -------------

    /** Mean time between zone-wide outages, seconds (0 = never). */
    double domainOutageMtbfSec = 0.0;
    /** Mean time to repair a zone outage, seconds. */
    double domainOutageMttrSec = 600.0;
    /**
     * Scripted one-shot outage: the zone @p domainOutageTarget dies at
     * exactly this tick and repairs after exactly domainOutageMttrSec
     * (no draw). kTickNever disables. Bench scenarios use this to line
     * every mode up against the same outage window.
     */
    sim::Tick domainOutageAt = sim::kTickNever;
    /** Victim zone of the scripted outage (wrapped into [0, zones)). */
    std::int32_t domainOutageTarget = 0;

    // Persistent gray failures ----------------------------------------------

    /**
     * Gray-failure mode: each server is gray with this probability
     * (seeded by server id) and then serves EVERY batch grayFactor
     * slower, for the whole run. Like profileErrorFactor it needs no
     * event: membership is a pure function of the seed, drawn from no
     * shared stream,
     * so it is excluded from enabled() and wired directly by the
     * platform (grayExecMultiplier in domain_outage.hh).
     */
    double grayFraction = 0.0;
    /** Execution-time multiplier applied to gray servers. */
    double grayFactor = 1.0;

    bool crashesEnabled() const { return serverMtbfSec > 0.0; }

    bool
    domainOutagesEnabled() const
    {
        return domainOutageMtbfSec > 0.0 ||
               domainOutageAt != sim::kTickNever;
    }

    bool
    grayEnabled() const
    {
        return grayFraction > 0.0 && grayFactor != 1.0;
    }

    /** Whether any event-scheduling fault class is active. */
    bool
    enabled() const
    {
        return crashesEnabled() || startupFailureProb > 0.0 ||
               domainOutagesEnabled();
    }
};

/**
 * Schedules failure events through the simulation's event queue and
 * answers per-launch fault draws.
 */
class FaultInjector
{
  public:
    /** Control-plane reactions to cluster-level fault events. */
    struct Hooks
    {
        std::function<void(cluster::ServerId)> serverCrash;
        std::function<void(cluster::ServerId)> serverRecover;
        /** A whole zone dies at once (correlated outage). */
        std::function<void(cluster::DomainId)> domainOutage;
        /** The zone repairs together. */
        std::function<void(cluster::DomainId)> domainRepair;
    };

    /**
     * @param sim Simulation whose clock/event queue drives the faults.
     * @param profile Failure surface configuration.
     * @param seed Run seed; the fault stream is derived from it directly
     *        (not forked from the simulation RNG), so the workload
     *        streams are untouched.
     * @param num_servers Cluster size (one crash process per server).
     * @param num_zones Topology zone count; 0 disables domain outages
     *        (required > 0 when the profile configures them).
     */
    FaultInjector(sim::Simulation &sim, const FaultProfile &profile,
                  std::uint64_t seed, std::size_t num_servers,
                  std::size_t num_zones = 0);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Install hooks and schedule the initial per-server crash events. */
    void start(Hooks hooks);

    /** Draw: does this cold-start attempt abort? */
    bool startupFails();

    // Accounting -----------------------------------------------------------

    std::int64_t startupFailureDraws() const { return startupFailures_; }
    std::int64_t domainOutagesScheduled() const { return domainOutages_; }
    std::int64_t domainRepairsScheduled() const { return domainRepairs_; }

  private:
    void scheduleCrash(std::size_t server);
    void crashServer(std::size_t server);
    void scheduleNextDomainOutage();

    /** Build the id-keyed crash stream for @p server. */
    sim::Rng serverStream(std::uint64_t server) const;

    sim::Simulation &sim_;
    FaultProfile profile_;
    Hooks hooks_;
    std::uint64_t seed_;

    /** Per-server crash/repair timing streams (each seeded from the
     *  server *id*, so one server's history — or the fleet growing —
     *  never shifts another's). */
    std::vector<sim::Rng> serverRng_;
    sim::Rng startupRng_;
    /** Domain-outage schedule; null when disabled. */
    std::unique_ptr<DomainOutageStream> domainStream_;

    std::int64_t startupFailures_ = 0;
    std::int64_t domainOutages_ = 0;
    std::int64_t domainRepairs_ = 0;
};

} // namespace infless::faults

#endif // INFLESS_FAULTS_FAULT_INJECTOR_HH
