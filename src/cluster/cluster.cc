#include "cluster/cluster.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "sim/logging.hh"

namespace infless::cluster {

Cluster::Cluster(std::size_t num_servers, const Resources &capacity)
    : size_(num_servers), serverCapacity_(capacity)
{
    sim::simAssert(num_servers > 0, "cluster needs at least one server");
    sim::simAssert(num_servers <= static_cast<std::size_t>(
                                      std::numeric_limits<ServerId>::max()),
                   "cluster larger than the server id range");
    // A record's range check, made once for the fleet instead of once
    // per server: it panics on a component outside [0, INT32_MAX].
    static_cast<void>(Server(0, capacity));
    const auto n = static_cast<std::int64_t>(num_servers);
    capacity_ = Resources{capacity.cpuMillicores * n,
                          capacity.gpuSmPercent * n, capacity.memoryMb * n};
    index_.rebuild(num_servers, capacity);
}

void
Cluster::checkId(ServerId id) const
{
    sim::simAssert(id >= 0 && static_cast<std::size_t>(id) < size(),
                   "bad server id ", id);
}

const Server *
Cluster::record(ServerId id) const
{
    checkId(id);
    auto i = static_cast<std::size_t>(id);
    return i < servers_.size() ? &servers_[i] : nullptr;
}

Server &
Cluster::serverMut(ServerId id)
{
    if (record(id) == nullptr) {
        // Materialize every server up to and including id.
        auto next = static_cast<ServerId>(servers_.size());
        index_.materialize(next, id + 1, serverCapacity_);
        for (; next <= id; ++next)
            servers_.emplace_back(next, serverCapacity_);
    }
    return servers_[static_cast<std::size_t>(id)];
}

Server
Cluster::server(ServerId id) const
{
    if (const Server *s = record(id))
        return *s;
    return Server(id, serverCapacity_);
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
    // A pristine server is up: nothing to do, nothing to materialize.
    if (!serverDown(id))
        return;
    Server &s = serverMut(id);
    s.markUp();
    // Re-file only if nothing else keeps the server out of the pool: a
    // quarantined server recovering from a crash stays quarantined.
    if (filed(s))
        index_.add(id, s.available());
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
    if (!serverQuarantined(id))
        return;
    Server &s = serverMut(id);
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
