#include "cluster/capacity_index.hh"

#include <algorithm>
#include <functional>
#include <set>

#include "sim/logging.hh"

namespace infless::cluster {

void
CapacityIndex::Members::push(ServerId id)
{
    heap.push_back(id);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    ++count;
}

template <typename Live>
void
CapacityIndex::Members::erase(Live &&live)
{
    --count;
    while (!heap.empty() && !live(heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        heap.pop_back();
    }
    if (heap.size() > 2 * count + 1) {
        // Keep one entry per live id. Ascending order is a valid
        // min-heap, so no re-heapify is needed.
        std::erase_if(heap, [&](ServerId id) { return !live(id); });
        std::sort(heap.begin(), heap.end());
        heap.erase(std::unique(heap.begin(), heap.end()), heap.end());
    }
}

void
CapacityIndex::setTag(ServerId id, std::uint32_t tag)
{
    auto i = static_cast<std::size_t>(id);
    if (i >= tagOf_.size())
        tagOf_.resize(i + 1, 0);
    tagOf_[i] = tag;
}

void
CapacityIndex::rebuild(const std::vector<Server> &servers)
{
    classes_.clear();
    serverCount_ = 0;
    tagOf_.assign(servers.size(), 0);
    // Ids arrive ascending, so every push appends to a valid heap in
    // O(1): the rebuild is O(servers) with no per-server allocation.
    for (const auto &s : servers) {
        if (!s.isDown() && !s.isQuarantined())
            insert(s.id(), s.available());
    }
}

void
CapacityIndex::insert(ServerId id, const Resources &avail)
{
    sim::simAssert(id >= 0 && tagOf(id) == 0,
                   "capacity index out of sync for server ", id);
    auto [it, created] = classes_.try_emplace(avail);
    ClassEntry &entry = it->second;
    if (created) {
        sim::simAssert(nextTag_ != 0, "capacity index class tags exhausted");
        entry.tag = nextTag_++;
    }
    setTag(id, entry.tag);
    entry.members.push(id);
    ++serverCount_;
}

void
CapacityIndex::remove(ServerId id, const Resources &avail)
{
    auto it = classes_.find(avail);
    sim::simAssert(it != classes_.end() && tagOf(id) == it->second.tag,
                   "capacity index out of sync for server ", id);
    ClassEntry &entry = it->second;
    setTag(id, 0);
    entry.members.erase(
        [&](ServerId m) { return tagOf(m) == entry.tag; });
    if (entry.members.count == 0)
        classes_.erase(it);
    --serverCount_;
}

void
CapacityIndex::update(ServerId id, const Resources &before,
                      const Resources &after)
{
    remove(id, before);
    insert(id, after);
}

ServerId
CapacityIndex::firstFit(const Resources &req) const
{
    ServerId best = kNoServer;
    for (const auto &[avail, entry] : classes_) {
        if (!req.fitsIn(avail))
            continue;
        ServerId min_id = entry.members.min();
        if (best == kNoServer || min_id < best)
            best = min_id;
    }
    return best;
}

ServerId
CapacityIndex::bestFit(const Resources &req, double beta) const
{
    ServerId best = kNoServer;
    double best_avail = std::numeric_limits<double>::max();
    for (const auto &[avail, entry] : classes_) {
        if (!req.fitsIn(avail))
            continue;
        double weighted = entry.weighted(avail, beta);
        ServerId min_id = entry.members.min();
        // Mirror a linear id-order scan with a strict `<` improvement
        // test: smallest weighted availability wins, ties go to the
        // lowest id.
        if (best == kNoServer || weighted < best_avail ||
            (weighted == best_avail && min_id < best)) {
            best_avail = weighted;
            best = min_id;
        }
    }
    return best;
}

bool
CapacityIndex::consistentWith(const std::vector<Server> &servers) const
{
    std::size_t filed = 0;
    std::set<ServerId> members;
    for (const auto &[avail, entry] : classes_) {
        // The live heap entries, deduplicated: there must be `count` of
        // them, the smallest on top of a valid min-heap.
        const Members &m = entry.members;
        members.clear();
        for (ServerId id : m.heap) {
            if (tagOf(id) == entry.tag)
                members.insert(id);
        }
        if (entry.tag == 0 || members.empty() ||
            members.size() != m.count || m.min() != *members.begin() ||
            !std::is_heap(m.heap.begin(), m.heap.end(), std::greater<>{}))
            return false;
        for (ServerId id : members) {
            if (id < 0 || static_cast<std::size_t>(id) >= servers.size())
                return false;
            const Server &s = servers[static_cast<std::size_t>(id)];
            if (s.isDown() || s.isQuarantined() ||
                !(s.available() == avail))
                return false;
            ++filed;
        }
    }
    // Down and quarantined servers are unfiled: classes partition the
    // *up, admitted* servers only, and only filed servers carry a tag.
    std::size_t up = 0;
    std::size_t tagged = 0;
    for (const auto &s : servers) {
        up += (s.isDown() || s.isQuarantined()) ? 0 : 1;
        tagged += tagOf(s.id()) != 0 ? 1 : 0;
    }
    return filed == up && tagged == up && serverCount_ == up;
}

} // namespace infless::cluster
