#include "cluster/server.hh"

#include <limits>

#include "sim/logging.hh"

namespace infless::cluster {

Resources
testbedServerCapacity()
{
    // Table 2: 16 physical cores, 128 GiB memory, and the 8-node cluster
    // hosts 16 GPUs, i.e. two 2080Ti per node.
    return Resources{16'000, 200, 128 * 1024};
}

Server::Compact
Server::Compact::narrow(const Resources &r)
{
    constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
    sim::simAssert(r.isValid() && r.cpuMillicores <= kMax &&
                       r.gpuSmPercent <= kMax && r.memoryMb <= kMax,
                   "server resources outside [0, INT32_MAX]: ", r);
    return Compact{static_cast<std::int32_t>(r.cpuMillicores),
                   static_cast<std::int32_t>(r.gpuSmPercent),
                   static_cast<std::int32_t>(r.memoryMb)};
}

Server::Server(ServerId id, const Resources &capacity)
    : id_(id), capacity_(Compact::narrow(capacity)), available_(capacity_)
{
}

bool
Server::allocate(const Resources &req)
{
    sim::simAssert(req.isValid() && !req.isZero(),
                   "invalid allocation request: ", req);
    Compact::narrow(req); // range check only: no server could hold it
    if (!canFit(req))
        return false;
    available_ = Compact::narrow(available() - req);
    ++allocationCount_;
    return true;
}

void
Server::release(const Resources &req)
{
    // Range check only; it also keeps the int64 sum below from
    // overflowing.
    Compact::narrow(req);
    Resources restored = available() + req;
    sim::simAssert(restored.fitsIn(capacity()),
                   "over-release on server ", id_, ": ", req);
    sim::simAssert(allocationCount_ > 0,
                   "release with no live allocations on server ", id_);
    available_ = Compact::narrow(restored);
    --allocationCount_;
}

double
Server::fragmentRatio(double beta) const
{
    double total = capacity().weighted(beta);
    if (total <= 0.0)
        return 0.0;
    return available().weighted(beta) / total;
}

} // namespace infless::cluster
