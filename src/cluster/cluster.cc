#include "cluster/cluster.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace infless::cluster {

Cluster::Cluster(std::size_t num_servers, const Resources &capacity)
{
    sim::simAssert(num_servers > 0, "cluster needs at least one server");
    servers_.reserve(num_servers);
    for (std::size_t i = 0; i < num_servers; ++i)
        fileCapacity(
            servers_.emplace_back(static_cast<ServerId>(i), capacity));
    index_.rebuild(servers_);
}

Cluster::Cluster(const std::vector<Resources> &capacities)
{
    sim::simAssert(!capacities.empty(),
                   "cluster needs at least one server");
    servers_.reserve(capacities.size());
    for (std::size_t i = 0; i < capacities.size(); ++i)
        fileCapacity(
            servers_.emplace_back(static_cast<ServerId>(i), capacities[i]));
    index_.rebuild(servers_);
}

void
Cluster::fileCapacity(const Server &s)
{
    byCapacity_[s.capacity()].push_back(s.id());
    capacity_ += s.capacity();
}

std::vector<Resources>
Cluster::capacities() const
{
    std::vector<Resources> result;
    result.reserve(servers_.size());
    for (const auto &s : servers_)
        result.push_back(s.capacity());
    return result;
}

std::vector<Resources>
Cluster::probeCapacities(std::size_t per_capacity) const
{
    std::vector<ServerId> ids;
    for (const auto &[capacity, members] : byCapacity_) {
        std::size_t n = std::min(per_capacity, members.size());
        ids.insert(ids.end(), members.begin(),
                   members.begin() + static_cast<std::ptrdiff_t>(n));
    }
    std::sort(ids.begin(), ids.end());
    std::vector<Resources> result;
    result.reserve(ids.size());
    for (ServerId id : ids)
        result.push_back(servers_[static_cast<std::size_t>(id)].capacity());
    return result;
}

Server &
Cluster::serverMut(ServerId id)
{
    sim::simAssert(id >= 0 && static_cast<std::size_t>(id) < servers_.size(),
                   "bad server id ", id);
    return servers_[static_cast<std::size_t>(id)];
}

const Server &
Cluster::server(ServerId id) const
{
    sim::simAssert(id >= 0 && static_cast<std::size_t>(id) < servers_.size(),
                   "bad server id ", id);
    return servers_[static_cast<std::size_t>(id)];
}

double
Cluster::fragmentRatio(double beta) const
{
    // Ascending id order, as a full-fleet scan would add them: the
    // average is bit-identical to one.
    double sum = 0.0;
    for (ServerId id : active_)
        sum += servers_[static_cast<std::size_t>(id)].fragmentRatio(beta);
    return active_.empty() ? 0.0
                           : sum / static_cast<double>(active_.size());
}

bool
Cluster::allocate(ServerId id, const Resources &req)
{
    Server &s = serverMut(id);
    Resources before = s.available();
    if (!s.allocate(req))
        return false;
    index_.update(id, before, s.available());
    allocated_ += req;
    if (s.allocationCount() == 1)
        active_.insert(
            std::lower_bound(active_.begin(), active_.end(), id), id);
    return true;
}

void
Cluster::release(ServerId id, const Resources &req)
{
    Server &s = serverMut(id);
    Resources before = s.available();
    s.release(req);
    allocated_ -= req;
    if (s.allocationCount() == 0) {
        auto it = std::lower_bound(active_.begin(), active_.end(), id);
        sim::simAssert(it != active_.end() && *it == id,
                       "active set out of sync for server ", id);
        active_.erase(it);
    }
    // Down and quarantined servers are unfiled from the index; their
    // availability is re-filed wholesale when they rejoin the pool.
    if (filed(s))
        index_.update(id, before, s.available());
}

void
Cluster::setServerDown(ServerId id)
{
    Server &s = serverMut(id);
    if (s.isDown())
        return;
    if (filed(s))
        index_.remove(id, s.available());
    s.markDown();
}

void
Cluster::setServerUp(ServerId id)
{
    Server &s = serverMut(id);
    if (!s.isDown())
        return;
    s.markUp();
    // Re-file only if nothing else keeps the server out of the pool: a
    // quarantined server recovering from a crash stays quarantined.
    if (filed(s))
        index_.add(id, s.available());
}

void
Cluster::setServerDomain(ServerId id, const FailureDomain &domain)
{
    sim::simAssert(id >= 0 && static_cast<std::size_t>(id) < servers_.size(),
                   "bad server id ", id);
    if (domains_.size() < servers_.size())
        domains_.resize(servers_.size());
    domains_[static_cast<std::size_t>(id)] = domain;
}

FailureDomain
Cluster::serverDomain(ServerId id) const
{
    sim::simAssert(id >= 0 && static_cast<std::size_t>(id) < servers_.size(),
                   "bad server id ", id);
    if (static_cast<std::size_t>(id) >= domains_.size())
        return FailureDomain{};
    return domains_[static_cast<std::size_t>(id)];
}

void
Cluster::quarantineServer(ServerId id)
{
    Server &s = serverMut(id);
    if (s.isQuarantined())
        return;
    if (filed(s))
        index_.remove(id, s.available());
    s.markQuarantined();
}

void
Cluster::liftQuarantine(ServerId id)
{
    Server &s = serverMut(id);
    if (!s.isQuarantined())
        return;
    s.markAdmitted();
    if (filed(s))
        index_.add(id, s.available());
}

std::size_t
Cluster::quarantinedServers() const
{
    std::size_t n = 0;
    for (const auto &s : servers_)
        n += s.isQuarantined() ? 1 : 0;
    return n;
}

std::size_t
Cluster::downServers() const
{
    std::size_t down = 0;
    for (const auto &s : servers_)
        down += s.isDown() ? 1 : 0;
    return down;
}

ServerId
Cluster::firstFit(const Resources &req) const
{
    return index_.firstFit(req);
}

ServerId
Cluster::bestFit(const Resources &req, double beta) const
{
    return index_.bestFit(req, beta);
}

} // namespace infless::cluster
