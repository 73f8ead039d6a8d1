#include "cluster/cell_router.hh"

#include <algorithm>
#include <stdexcept>

namespace infless::cluster {

CellRouter::CellRouter(std::size_t cells, std::uint64_t seed)
    : digests_(cells), routed_(cells, 0), rng_(seed)
{
    if (cells == 0)
        throw std::invalid_argument("CellRouter: cells must be > 0");
}

void
CellRouter::refresh(const std::vector<CellDigest> &digests)
{
    if (digests.size() != digests_.size())
        throw std::invalid_argument("CellRouter::refresh: digest count");
    digests_ = digests;
    std::fill(routed_.begin(), routed_.end(), 0);
}

double
CellRouter::score(std::size_t cell) const
{
    // A cell reporting no free capacity still gets a finite (huge) score
    // so routing stays total when every cell is saturated.
    constexpr double kEpsAvail = 1e-9;
    const CellDigest &d = digests_[cell];
    double load = static_cast<double>(d.queueDepth + routed_[cell] +
                                      d.dropPressure);
    return load / std::max(d.weightedAvail, kEpsAvail);
}

std::size_t
CellRouter::route()
{
    std::size_t n = digests_.size();
    if (n == 1) {
        ++routed_[0];
        return 0;
    }
    // Two *distinct* candidates: the second draw samples the n-1 other
    // cells and shifts past the first pick. Sampling with replacement
    // would send self-collisions (1/n of traffic) to arbitrary cells,
    // blunting the load-avoidance guarantee for small n.
    auto a = static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    auto b = static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(n) - 2));
    if (b >= a)
        ++b;
    double sa = score(a);
    double sb = score(b);
    std::size_t pick;
    if (sa < sb)
        pick = a;
    else if (sb < sa)
        pick = b;
    else
        pick = std::min(a, b);
    ++routed_[pick];
    return pick;
}

} // namespace infless::cluster
