#include "cluster/capacity_index.hh"

#include "sim/logging.hh"

namespace infless::cluster {

void
CapacityIndex::rebuild(const std::vector<Server> &servers)
{
    classes_.clear();
    serverCount_ = 0;
    for (const auto &s : servers) {
        if (!s.isDown() && !s.isQuarantined())
            insert(s.id(), s.available());
    }
}

void
CapacityIndex::insert(ServerId id, const Resources &avail)
{
    ClassEntry &entry = classes_[avail];
    entry.members.insert(id);
    if (domainsEnabled())
        entry.byDomain[domainOf(id)].insert(id);
    ++serverCount_;
}

void
CapacityIndex::eraseDomainMember(ClassEntry &entry, ServerId id)
{
    if (!domainsEnabled())
        return;
    auto bucket = entry.byDomain.find(domainOf(id));
    sim::simAssert(bucket != entry.byDomain.end() &&
                       bucket->second.erase(id) == 1,
                   "domain bucket out of sync for server ", id);
    if (bucket->second.empty())
        entry.byDomain.erase(bucket);
}

void
CapacityIndex::update(ServerId id, const Resources &before,
                      const Resources &after)
{
    auto it = classes_.find(before);
    sim::simAssert(it != classes_.end() && it->second.members.count(id),
                   "capacity index out of sync for server ", id);
    it->second.members.erase(id);
    eraseDomainMember(it->second, id);
    if (it->second.members.empty())
        classes_.erase(it);
    ClassEntry &entry = classes_[after];
    entry.members.insert(id);
    if (domainsEnabled())
        entry.byDomain[domainOf(id)].insert(id);
}

void
CapacityIndex::remove(ServerId id, const Resources &avail)
{
    auto it = classes_.find(avail);
    sim::simAssert(it != classes_.end() && it->second.members.count(id),
                   "capacity index out of sync for server ", id);
    it->second.members.erase(id);
    eraseDomainMember(it->second, id);
    if (it->second.members.empty())
        classes_.erase(it);
    --serverCount_;
}

void
CapacityIndex::assignDomain(ServerId id, DomainId rack,
                            const Resources *filed_avail)
{
    sim::simAssert(id >= 0, "bad server id ", id);
    if (!domainsEnabled()) {
        // First assignment: backfill every filed member into the
        // kNoDomain bucket so the bucket partition is complete before
        // any per-server moves happen.
        rackOf_.assign(static_cast<std::size_t>(id) + 1, kNoDomain);
        for (auto &[avail, entry] : classes_)
            entry.byDomain[kNoDomain] = entry.members;
    }
    if (static_cast<std::size_t>(id) >= rackOf_.size())
        rackOf_.resize(static_cast<std::size_t>(id) + 1, kNoDomain);

    if (filed_avail != nullptr) {
        auto it = classes_.find(*filed_avail);
        sim::simAssert(it != classes_.end() &&
                           it->second.members.count(id),
                       "capacity index out of sync for server ", id);
        eraseDomainMember(it->second, id);
        rackOf_[static_cast<std::size_t>(id)] = rack;
        it->second.byDomain[rack].insert(id);
    } else {
        rackOf_[static_cast<std::size_t>(id)] = rack;
    }
}

ServerId
CapacityIndex::firstFit(const Resources &req) const
{
    ServerId best = kNoServer;
    for (const auto &[avail, entry] : classes_) {
        if (!req.fitsIn(avail))
            continue;
        ServerId min_id = *entry.members.begin();
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
        if (entry.cachedBeta != beta) {
            entry.cachedWeighted = avail.weighted(beta);
            entry.cachedBeta = beta;
        }
        double weighted = entry.cachedWeighted;
        ServerId min_id = *entry.members.begin();
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
    for (const auto &[avail, entry] : classes_) {
        if (entry.members.empty())
            return false;
        for (ServerId id : entry.members) {
            if (id < 0 || static_cast<std::size_t>(id) >= servers.size())
                return false;
            const Server &s = servers[static_cast<std::size_t>(id)];
            if (s.isDown() || s.isQuarantined() ||
                !(s.available() == avail))
                return false;
            ++filed;
        }
        // With domains on, the rack buckets must partition the members
        // and every member must sit in the bucket of its assigned rack.
        if (domainsEnabled()) {
            std::size_t bucketed = 0;
            for (const auto &[rack, members] : entry.byDomain) {
                if (members.empty())
                    return false;
                for (ServerId id : members) {
                    if (!entry.members.count(id) || domainOf(id) != rack)
                        return false;
                    ++bucketed;
                }
            }
            if (bucketed != entry.members.size())
                return false;
        } else if (!entry.byDomain.empty()) {
            return false;
        }
    }
    // Down and quarantined servers are unfiled: classes partition the
    // *up, admitted* servers only.
    std::size_t up = 0;
    for (const auto &s : servers)
        up += (s.isDown() || s.isQuarantined()) ? 0 : 1;
    return filed == up && serverCount_ == up;
}

} // namespace infless::cluster
