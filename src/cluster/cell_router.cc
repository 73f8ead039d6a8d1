#include "cluster/cell_router.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace infless::cluster {

CellRouter::CellRouter(std::size_t cells, std::uint64_t seed)
    : seed_(seed), digests_(cells), routed_(cells, 0), rng_(seed)
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
    std::size_t n = digests_.size();
    for (std::size_t fn = 0; fn < homeSize_.size(); ++fn) {
        std::size_t &k = homeSize_[fn];
        if (k == n)
            continue;
        // Spill one cell further only when the whole home set is out of
        // room for this function: a single missing cell still has peers
        // inside the set that po2 can steer to.
        bool all_missed = true;
        for (std::size_t r = 0; r < k && all_missed; ++r) {
            const auto &misses = digests_[ranking_[fn * n + r]].scaleOutMisses;
            all_missed = fn < misses.size() && misses[fn] > 0;
        }
        if (all_missed)
            ++k;
    }
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

void
CellRouter::rank(std::size_t fn, std::uint32_t *out) const
{
    // Rendezvous (highest-random-weight) order: each cell's weight is a
    // pure hash of (seed, fn, cell), so a function's home is stable for
    // a seed and independent of every other function.
    std::size_t n = digests_.size();
    std::uint64_t fn_key = sim::hashCombine(seed_, fn);
    std::vector<std::uint64_t> weight(n);
    for (std::size_t c = 0; c < n; ++c)
        weight[c] = sim::hashCombine(fn_key, c);
    std::iota(out, out + n, 0U);
    std::sort(out, out + n, [&](std::uint32_t a, std::uint32_t b) {
        return weight[a] != weight[b] ? weight[a] > weight[b] : a < b;
    });
}

void
CellRouter::ensureFunction(std::size_t fn)
{
    std::size_t n = digests_.size();
    for (std::size_t f = homeSize_.size(); f <= fn; ++f) {
        ranking_.resize((f + 1) * n);
        rank(f, ranking_.data() + f * n);
        homeSize_.push_back(1);
    }
}

std::size_t
CellRouter::homeSize(std::size_t fn) const
{
    return fn < homeSize_.size() ? homeSize_[fn] : 1;
}

std::size_t
CellRouter::rankedCell(std::size_t fn, std::size_t rank_idx) const
{
    std::vector<std::uint32_t> order(digests_.size());
    rank(fn, order.data());
    return order[rank_idx];
}

std::size_t
CellRouter::route(std::size_t fn)
{
    ensureFunction(fn);
    const std::uint32_t *home = ranking_.data() + fn * digests_.size();
    std::size_t k = homeSize_[fn];
    std::size_t pick = home[0];
    if (k > 1) {
        // Two *distinct* home cells: the second draw samples the k-1
        // others and shifts past the first pick. Sampling with
        // replacement would send self-collisions (1/k of traffic) to
        // arbitrary cells, blunting the load-avoidance guarantee.
        auto a = static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(k) - 1));
        auto b = static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(k) - 2));
        if (b >= a)
            ++b;
        std::size_t ca = home[a];
        std::size_t cb = home[b];
        double sa = score(ca);
        double sb = score(cb);
        if (sa < sb)
            pick = ca;
        else if (sb < sa)
            pick = cb;
        else
            pick = std::min(ca, cb);
    }
    ++routed_[pick];
    return pick;
}

std::size_t
CellRouter::routeBulk(std::size_t fn, std::int64_t n)
{
    ensureFunction(fn);
    if (homeSize_[fn] != 1)
        throw std::invalid_argument("CellRouter::routeBulk: home set spilled");
    std::size_t home = ranking_[fn * digests_.size()];
    routed_[home] += n;
    return home;
}

} // namespace infless::cluster
