#include "cluster/capacity_index.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>

#include "cluster/cluster.hh"
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
    sim::simAssert(id >= 0 && static_cast<std::size_t>(id) < tagOf_.size(),
                   "capacity index: server ", id, " is not materialized");
    tagOf_[static_cast<std::size_t>(id)] = tag;
}

void
CapacityIndex::rebuild(std::size_t servers, const Resources &capacity)
{
    classes_.clear();
    tagOf_.clear();
    classFor(capacity).members.pristine =
        IdRange{0, static_cast<ServerId>(servers)};
    serverCount_ = servers;
}

void
CapacityIndex::materialize(ServerId first, ServerId end,
                           const Resources &capacity)
{
    auto it = classes_.find(capacity);
    sim::simAssert(first == static_cast<ServerId>(tagOf_.size()) &&
                       first < end && it != classes_.end() &&
                       it->second.members.pristine.first == first &&
                       end <= it->second.members.pristine.end,
                   "capacity index: ids ", first, "..", end,
                   " are not the pristine front of class ", capacity);
    ClassEntry &entry = it->second;
    Members &m = entry.members;
    m.pristine.first = end;
    // The new ids lie above every id in the heap and arrive ascending,
    // so appending them keeps it a valid min-heap.
    tagOf_.resize(static_cast<std::size_t>(end), entry.tag);
    for (ServerId id = first; id < end; ++id)
        m.heap.push_back(id);
    m.count += static_cast<std::size_t>(end - first);
}

CapacityIndex::ClassEntry &
CapacityIndex::classFor(const Resources &avail)
{
    auto [it, created] = classes_.try_emplace(avail);
    ClassEntry &entry = it->second;
    if (created) {
        sim::simAssert(nextTag_ != 0, "capacity index class tags exhausted");
        entry.tag = nextTag_++;
    }
    return entry;
}

void
CapacityIndex::insert(ServerId id, const Resources &avail)
{
    sim::simAssert(id >= 0 && tagOf(id) == 0,
                   "capacity index out of sync for server ", id);
    ClassEntry &entry = classFor(avail);
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
    if (entry.members.size() == 0)
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
CapacityIndex::consistentWith(const Cluster &cluster) const
{
    const auto frontier = static_cast<ServerId>(tagOf_.size());
    std::size_t filed = 0;
    std::set<ServerId> members;
    for (const auto &[avail, entry] : classes_) {
        const Members &m = entry.members;
        // The pristine range: empty, or the frontier to the fleet's end.
        const IdRange &r = m.pristine;
        if (r.first > r.end ||
            (r.first < r.end &&
             (r.first != frontier ||
              r.end != static_cast<ServerId>(cluster.size()))))
            return false;
        // The live heap entries, deduplicated: there must be `count` of
        // them, the smallest on top of a valid min-heap.
        members.clear();
        for (ServerId id : m.heap) {
            if (id < 0 || id >= frontier)
                return false;
            if (tagOf(id) == entry.tag)
                members.insert(id);
        }
        if (entry.tag == 0 || m.size() == 0 || members.size() != m.count ||
            (m.count > 0 && m.min() != *members.begin()) ||
            !std::is_heap(m.heap.begin(), m.heap.end(), std::greater<>{}))
            return false;
        filed += m.size();
    }

    // Every up, admitted server is in the class keyed by its
    // availability: a materialized one through its tag, a pristine one
    // through the range. Down and quarantined servers are unfiled, and
    // only filed materialized servers carry a tag.
    bool ok = true;
    std::size_t up = 0;
    cluster.forEachServer([&](const Server &s) {
        const bool in_pool = !s.isDown() && !s.isQuarantined();
        up += in_pool ? 1 : 0;
        auto it = classes_.find(s.available());
        if (s.id() < frontier) {
            ok = ok && (in_pool ? it != classes_.end() &&
                                      tagOf(s.id()) == it->second.tag
                                : tagOf(s.id()) == 0);
            return;
        }
        if (!in_pool || s.isActive() || it == classes_.end()) {
            ok = false;
            return;
        }
        const IdRange &r = it->second.members.pristine;
        ok = ok && r.first <= s.id() && s.id() < r.end;
    });
    return ok && filed == up && serverCount_ == up &&
           frontier == static_cast<ServerId>(cluster.materialized());
}

} // namespace infless::cluster
