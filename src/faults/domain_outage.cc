#include "faults/domain_outage.hh"

#include <algorithm>

#include "faults/fault_injector.hh"
#include "sim/logging.hh"

namespace infless::faults {

namespace {

// Substreams of the fault RNG family (base key kFaultStreamKey =
// 0xFA17'AB1E'0000'0001 in fault_injector.cc): +3 drives the domain
// outage schedule, +4 keys gray-failure membership. Both must stay
// disjoint from the startup (+0) and per-server crash (+2) streams
// (+1 is retired) so enabling one class never shifts another.
constexpr std::uint64_t kDomainOutageStreamKey = 0xFA17'AB1E'0000'0004ULL;
constexpr std::uint64_t kGrayStreamKey = 0xFA17'AB1E'0000'0005ULL;

} // namespace

DomainOutageStream::DomainOutageStream(const FaultProfile &profile,
                                       std::uint64_t seed,
                                       std::size_t num_zones)
    : rng_(sim::hashCombine(seed, kDomainOutageStreamKey)),
      numZones_(num_zones), mtbfSec_(profile.domainOutageMtbfSec),
      mttrSec_(profile.domainOutageMttrSec),
      scriptedAt_(profile.domainOutageAt),
      scriptedZone_(profile.domainOutageTarget),
      horizon_(profile.crashHorizon),
      scriptedPending_(profile.domainOutageAt != sim::kTickNever)
{
    sim::simAssert(!profile.domainOutagesEnabled() || num_zones > 0,
                   "domain outages need a topology with zones");
    sim::simAssert(mttrSec_ > 0.0, "domain outages need a positive MTTR");
}

DomainOutageEvent
DomainOutageStream::next()
{
    DomainOutageEvent ev;
    if (numZones_ == 0)
        return ev;
    if (scriptedPending_) {
        // The scripted one-shot is fully deterministic: fixed start,
        // fixed repair after exactly the MTTR (no draw), so bench
        // scenarios can line modes up against the same outage window.
        scriptedPending_ = false;
        if (scriptedAt_ <= horizon_) {
            ev.at = scriptedAt_;
            ev.zone = static_cast<cluster::DomainId>(
                static_cast<std::size_t>(
                    std::max<cluster::DomainId>(scriptedZone_, 0)) %
                numZones_);
            ev.repairAt =
                ev.at + std::max<sim::Tick>(1, sim::secToTicks(mttrSec_));
            cursor_ = ev.repairAt;
            return ev;
        }
    }
    if (mtbfSec_ <= 0.0)
        return ev; // no stochastic outages configured
    double gap_sec = rng_.exponential(1.0 / mtbfSec_);
    sim::Tick at =
        cursor_ + std::max<sim::Tick>(1, sim::secToTicks(gap_sec));
    if (at > horizon_)
        return ev; // past the horizon: the outage process ends
    ev.at = at;
    ev.zone = static_cast<cluster::DomainId>(rng_.uniformInt(
        0, static_cast<std::int64_t>(numZones_) - 1));
    double repair_sec = rng_.exponential(1.0 / mttrSec_);
    ev.repairAt =
        at + std::max<sim::Tick>(1, sim::secToTicks(repair_sec));
    cursor_ = ev.repairAt;
    return ev;
}

double
grayExecMultiplier(const FaultProfile &profile, std::uint64_t seed,
                   cluster::ServerId global_id)
{
    if (!profile.grayEnabled() || global_id < 0)
        return 1.0;
    sim::Rng rng(sim::hashCombine(
        sim::hashCombine(seed, kGrayStreamKey),
        static_cast<std::uint64_t>(global_id)));
    return rng.uniform() < profile.grayFraction ? profile.grayFactor
                                                : 1.0;
}

} // namespace infless::faults
