#include "cluster/server.hh"

#include "sim/logging.hh"

namespace infless::cluster {

Resources
testbedServerCapacity()
{
    // Table 2: 16 physical cores, 128 GiB memory, and the 8-node cluster
    // hosts 16 GPUs, i.e. two 2080Ti per node.
    return Resources{16'000, 200, 128 * 1024};
}

Server::Server() : Server(kNoServer, testbedServerCapacity()) {}

Server::Server(ServerId id, const Resources &capacity)
    : id_(id), capacity_(capacity), available_(capacity)
{
    sim::simAssert(capacity.isValid(), "invalid server capacity");
}

bool
Server::allocate(const Resources &req)
{
    sim::simAssert(req.isValid() && !req.isZero(),
                   "invalid allocation request: ", req);
    if (!canFit(req))
        return false;
    available_ -= req;
    ++allocationCount_;
    invalidateWeighted();
    return true;
}

void
Server::release(const Resources &req)
{
    Resources restored = available_ + req;
    sim::simAssert(restored.fitsIn(capacity_),
                   "over-release on server ", id_, ": ", req);
    sim::simAssert(allocationCount_ > 0,
                   "release with no live allocations on server ", id_);
    available_ = restored;
    --allocationCount_;
    invalidateWeighted();
}

double
Server::fragmentRatio(double beta) const
{
    double total = capacity_.weighted(beta);
    if (total <= 0.0)
        return 0.0;
    return available_.weighted(beta) / total;
}

} // namespace infless::cluster
