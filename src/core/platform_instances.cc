#include "core/platform.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/logging.hh"

namespace infless::core {

void
Platform::onWarm(std::size_t idx)
{
    InstanceRuntime &rt = instances_[idx];
    if (rt.inst.state() == cluster::InstanceState::Reaped)
        return; // reaped while cold-starting
    rt.inst.becomeWarm(sim_.now());
    rt.warmAt = sim_.now();
    rt.idleSince = sim_.now();
    tryStartBatch(idx);
    if (rt.inst.state() == cluster::InstanceState::Idle &&
        rt.queue.empty()) {
        armExpiry(idx);
    }
}

void
Platform::armExpiry(std::size_t idx)
{
    InstanceRuntime &rt = instances_[idx];
    cancelTimer(rt.expiryEvent);
    FunctionState &f = functionState(rt.fn);
    sim::Tick wait;
    if (rt.fastReap) {
        // Replaced by a reconfiguration: a short grace period covers the
        // hand-over while the replacement instances warm up.
        wait = 3 * sim::kTicksPerSec;
    } else {
        coldstart::KeepAliveDecision decision;
        {
            obs::ProfScope scope(&prof_, obs::Phase::ColdStartPolicy);
            decision = f.policy->decide(sim_.now());
        }
        sim::Tick keep_alive = std::max<sim::Tick>(
            decision.keepAliveWindow, sim::kTicksPerSec);
        // The policy's window may shrink as its histograms mature, so
        // long waits are re-checked at minute granularity instead of
        // sleeping the whole window on a stale decision.
        wait = std::min<sim::Tick>(keep_alive, sim::kTicksPerMin);
    }
    rt.expiryEvent = sim_.at(sim_.now() + wait, [this, idx] {
        InstanceRuntime &r = instances_[idx];
        r.expiryEvent = sim::kNoEvent;
        if (r.inst.state() != cluster::InstanceState::Idle ||
            !r.queue.empty()) {
            if (r.fastReap) {
                // Still serving as fallback: reap at the next batch
                // boundary so the replacement can claim the resources.
                r.reapAsap = true;
            }
            return;
        }
        if (r.fastReap) {
            reapInstance(idx);
            return;
        }
        // Reap only when the *current* keep-alive window has elapsed
        // since the last activity; otherwise keep checking.
        FunctionState &fs = functionState(r.fn);
        coldstart::KeepAliveDecision decision;
        {
            obs::ProfScope scope(&prof_, obs::Phase::ColdStartPolicy);
            decision = fs.policy->decide(sim_.now());
        }
        sim::Tick keep_alive = std::max<sim::Tick>(
            decision.keepAliveWindow, sim::kTicksPerSec);
        if (sim_.now() - r.inst.lastActive() >= keep_alive)
            reapInstance(idx);
        else
            armExpiry(idx);
    });
}

// ---------------------------------------------------------------------------
// Instance lifecycle
// ---------------------------------------------------------------------------

std::size_t
Platform::usageKeyFor(FunctionState &f,
                      const cluster::InstanceConfig &config)
{
    auto key = std::make_tuple(config.batchSize,
                               config.resources.cpuMillicores,
                               config.resources.gpuSmPercent);
    auto it = f.usageIndex.find(key);
    if (it != f.usageIndex.end())
        return it->second;
    f.usage.push_back(ConfigUsage{config, 0, 0});
    std::size_t idx = f.usage.size() - 1;
    f.usageIndex.emplace(key, idx);
    return idx;
}

std::size_t
Platform::launchInstance(FunctionId fn, const LaunchPlan &plan,
                         bool prewarmed_launch)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    bool cold = !prewarmed_launch;
    sim::Tick startup = cold
                            ? runtime_.coldStartTicks(f.model->sizeMb)
                            : runtime_.warmStartTicks();
    if (cold && faults_) {
        // Each aborted startup attempt re-enters the cold-start path and
        // pays the full penalty again; eight consecutive aborts bound the
        // delay (the draw-until-success would otherwise be unbounded).
        int aborted = 0;
        while (aborted < 8 && faults_->startupFails()) {
            startup += runtime_.coldStartTicks(f.model->sizeMb);
            tally(f, metrics::Counter::StartupFailures);
            ++aborted;
        }
    }
    sim::Tick max_wait =
        std::max<sim::Tick>(0, f.spec.sloTicks - plan.execPredicted);

    std::size_t idx = instances_.size();
    instances_.push_back(InstanceRuntime{
        cluster::Instance(nextInstanceId_++, plan.config, plan.server, now,
                          cold),
        BatchQueue(plan.config.batchSize, max_wait),
        plan.bounds, plan.execPredicted});
    InstanceRuntime &rt = instances_.back();
    rt.targetRate = plan.bounds.up;
    rt.warmExpectedAt = now + startup;
    rt.prewarmed = prewarmed_launch;
    rt.fn = fn;
    rt.generation = f.generation;
    rt.usageKey = usageKeyFor(f, plan.config);
    f.usage[rt.usageKey].launches += 1;

    f.live.push_back(idx);
    ++liveInstances_;
    f.allocated += plan.config.resources;
    tally(f, cold ? metrics::Counter::ColdLaunches
                  : metrics::Counter::WarmLaunches);
    f.metrics.recordAllocation(now, f.allocated);
    f.metrics.recordInstanceCount(now, static_cast<int>(f.live.size()));
    total_.recordInstanceCount(now, liveInstanceCount());
    recordAllocationChange();

    sim_.afterFixed(startup, [this, idx] { onWarm(idx); });
    return idx;
}

void
Platform::releaseInstance(std::size_t idx)
{
    sim::Tick now = sim_.now();
    InstanceRuntime &rt = instances_[idx];
    FunctionState &f = functionState(rt.fn);
    cancelTimer(rt.timeoutEvent);
    cancelTimer(rt.expiryEvent);
    cluster_.release(rt.inst.serverId(), rt.inst.config().resources);
    f.allocated -= rt.inst.config().resources;
    liveInstances_ -= static_cast<int>(std::erase(f.live, idx));

    f.metrics.recordAllocation(now, f.allocated);
    f.metrics.recordInstanceCount(now, static_cast<int>(f.live.size()));
    total_.recordInstanceCount(now, liveInstanceCount());
    recordAllocationChange();
}

void
Platform::reapInstance(std::size_t idx)
{
    sim::Tick now = sim_.now();
    InstanceRuntime &rt = instances_[idx];
    FunctionState &f = functionState(rt.fn);

    // Requests stranded in the queue (should not happen on the idle path,
    // but guard anyway) count as drops.
    for (RequestIndex request : rt.queue.drain())
        dropRequest(f, request, now);
    rt.inst.reap();
    releaseInstance(idx);

    if (f.live.empty())
        maybePrewarm(rt.fn);
}

void
Platform::killInstance(std::size_t idx)
{
    InstanceRuntime &rt = instances_[idx];
    FunctionId fn = rt.fn;
    FunctionState &f = functionState(fn);

    // Dead-letter the (non-cancellable) batch-completion event, if any.
    ++rt.liveEpoch;
    std::vector<RequestIndex> stranded = rt.queue.drain();
    std::vector<RequestIndex> inflight = std::move(rt.inFlight);
    rt.inFlight.clear();

    rt.inst.crash();
    // A lost in-flight batch is a serving failure of this server; an
    // idle instance dying with the machine is not evidence either way.
    if (health_ && !inflight.empty())
        health_->recordFailure(rt.inst.serverId());
    releaseInstance(idx);

    if (!inflight.empty()) {
        tally(f, metrics::Counter::LostBatchRequests,
              static_cast<std::int64_t>(inflight.size()));
    }
    for (RequestIndex request : inflight)
        failoverRequest(fn, request);
    for (RequestIndex request : stranded)
        failoverRequest(fn, request);

    if (functionState(fn).live.empty())
        maybePrewarm(fn);
}

std::vector<std::size_t>
Platform::liveInstancesOn(cluster::ServerId id) const
{
    std::vector<std::size_t> found;
    for (const FunctionState &f : functions_)
        for (std::size_t idx : f.live)
            if (instances_[idx].inst.serverId() == id)
                found.push_back(idx);
    std::sort(found.begin(), found.end());
    return found;
}

void
Platform::drainServer(cluster::ServerId id)
{
    for (std::size_t idx : liveInstancesOn(id)) {
        InstanceRuntime &rt = instances_[idx];
        rt.draining = true;
        rt.fastReap = true;
        armExpiry(idx);
    }
}

void
Platform::maybePrewarm(FunctionId fn)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    if (f.prewarmEvent != sim::kNoEvent || f.lastInvocation < 0)
        return;
    coldstart::KeepAliveDecision decision;
    {
        obs::ProfScope scope(&prof_, obs::Phase::ColdStartPolicy);
        decision = f.policy->decide(now);
    }
    if (decision.prewarmWindow <= 0)
        return;
    sim::Tick when = f.lastInvocation + decision.prewarmWindow;
    if (when <= now)
        return;
    f.prewarmEvent = sim_.at(when, [this, fn] {
        FunctionState &fs = functionState(fn);
        fs.prewarmEvent = sim::kNoEvent;
        if (!fs.live.empty())
            return;
        // Smallest feasible single-request configuration, best-fit placed.
        auto candidates = scheduler_.availableConfigs(
            *fs.model, 1, 1.0, fs.spec.sloTicks);
        if (candidates.empty())
            return;
        const CandidateConfig *best = nullptr;
        double best_cost = std::numeric_limits<double>::max();
        for (const auto &cand : candidates) {
            double cost = cand.config.resources.weighted(
                cluster::kDefaultBeta);
            if (cost < best_cost) {
                best_cost = cost;
                best = &cand;
            }
        }
        cluster::ServerId server =
            cluster_.firstFit(best->config.resources);
        if (server == cluster::kNoServer)
            return;
        bool ok = cluster_.allocate(server, best->config.resources);
        sim::simAssert(ok, "prewarm allocation failed after fit check");
        LaunchPlan plan{best->config, server, best->execPredicted,
                        best->bounds};
        launchInstance(fn, plan, true);
    });
}

} // namespace infless::core
