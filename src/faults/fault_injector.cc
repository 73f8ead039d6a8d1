#include "faults/fault_injector.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace infless::faults {

namespace {

/** Stream key separating the fault RNG from every other seed derivation
 *  (workload feeds use small per-function keys off the root stream). */
constexpr std::uint64_t kFaultStreamKey = 0xFA17'AB1E'0000'0001ULL;

} // namespace

FaultInjector::FaultInjector(sim::Simulation &sim,
                             const FaultProfile &profile,
                             std::uint64_t seed, std::size_t num_servers,
                             std::size_t num_zones)
    : sim_(sim), profile_(profile), seed_(seed),
      startupRng_(sim::hashCombine(seed, kFaultStreamKey))
{
    sim::simAssert(!profile_.crashesEnabled() ||
                       profile_.serverMttrSec > 0.0,
                   "server crashes need a positive MTTR");
    sim::simAssert(profile_.startupFailureProb >= 0.0 &&
                       profile_.startupFailureProb < 1.0 + 1e-12,
                   "startup failure probability out of [0,1]");
    serverRng_.reserve(num_servers);
    for (std::size_t s = 0; s < num_servers; ++s)
        serverRng_.push_back(serverStream(s));
    if (profile_.domainOutagesEnabled())
        domainStream_ = std::make_unique<DomainOutageStream>(
            profile_, seed, num_zones);
}

sim::Rng
FaultInjector::serverStream(std::uint64_t server) const
{
    // Key +1 is retired; +2 stays so existing crash schedules keep
    // their seeds.
    return sim::Rng(
        sim::hashCombine(sim::hashCombine(seed_, kFaultStreamKey + 2),
                         server));
}

void
FaultInjector::start(Hooks hooks)
{
    hooks_ = std::move(hooks);
    if (domainStream_)
        scheduleNextDomainOutage();
    if (!profile_.crashesEnabled())
        return;
    for (std::size_t s = 0; s < serverRng_.size(); ++s)
        scheduleCrash(s);
}

void
FaultInjector::scheduleCrash(std::size_t server)
{
    double gap_sec =
        serverRng_[server].exponential(1.0 / profile_.serverMtbfSec);
    sim::Tick when =
        sim_.now() + std::max<sim::Tick>(1, sim::secToTicks(gap_sec));
    if (when > profile_.crashHorizon)
        return; // past the horizon: this server's crash process ends
    sim_.atFixed(when, [this, server] { crashServer(server); });
}

void
FaultInjector::crashServer(std::size_t server)
{
    auto id = static_cast<cluster::ServerId>(server);
    if (hooks_.serverCrash)
        hooks_.serverCrash(id);

    double repair_sec =
        serverRng_[server].exponential(1.0 / profile_.serverMttrSec);
    sim::Tick repair = std::max<sim::Tick>(1, sim::secToTicks(repair_sec));
    sim_.afterFixed(repair, [this, server, id] {
        if (hooks_.serverRecover)
            hooks_.serverRecover(id);
        scheduleCrash(server);
    });
}

void
FaultInjector::scheduleNextDomainOutage()
{
    DomainOutageEvent ev = domainStream_->next();
    if (!ev.valid())
        return; // horizon passed: the outage process ends
    sim::Tick at = std::max(ev.at, sim_.now() + 1);
    sim::Tick repair_at = std::max(ev.repairAt, at + 1);
    sim_.atFixed(at, [this, ev, repair_at] {
        ++domainOutages_;
        if (hooks_.domainOutage)
            hooks_.domainOutage(ev.zone);
        sim_.atFixed(repair_at, [this, ev] {
            ++domainRepairs_;
            if (hooks_.domainRepair)
                hooks_.domainRepair(ev.zone);
            // Outages are sequential: the next gap starts at repair.
            scheduleNextDomainOutage();
        });
    });
}

bool
FaultInjector::startupFails()
{
    if (profile_.startupFailureProb <= 0.0)
        return false;
    bool fails = startupRng_.bernoulli(profile_.startupFailureProb);
    if (fails)
        ++startupFailures_;
    return fails;
}

} // namespace infless::faults
