#include "cluster/resources.hh"

#include <ostream>

#include "sim/logging.hh"

namespace infless::cluster {

Resources &
Resources::operator+=(const Resources &o)
{
    cpuMillicores += o.cpuMillicores;
    gpuSmPercent += o.gpuSmPercent;
    memoryMb += o.memoryMb;
    return *this;
}

Resources &
Resources::operator-=(const Resources &o)
{
    cpuMillicores -= o.cpuMillicores;
    gpuSmPercent -= o.gpuSmPercent;
    memoryMb -= o.memoryMb;
    sim::simAssert(isValid(), "resource subtraction went negative: ", *this);
    return *this;
}

std::ostream &
operator<<(std::ostream &os, const Resources &r)
{
    return os << "cpu=" << r.cpuMillicores << "mc gpu=" << r.gpuSmPercent
              << "% mem=" << r.memoryMb << "MB";
}

} // namespace infless::cluster
