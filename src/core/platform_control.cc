#include "core/platform.hh"

#include <algorithm>

#include "core/autoscaler.hh"

namespace infless::core {

namespace {

/** Dispatcher blend constant (§3.2; the paper uses 0.8). */
constexpr double kAlpha = 0.8;

} // namespace

bool
Platform::maybeReactiveScaleOut(FunctionId fn)
{
    // Minimum spacing between reactive (arrival-triggered) scale-outs of
    // one function. Bounds the instance storm while a cold fleet warms
    // up; requests that cannot be routed meanwhile are dropped, as a
    // saturated gateway would.
    constexpr sim::Tick kReactiveBackoff = 250 * sim::kTicksPerMs;
    // Reactive scale-out: the scaler tick has not caught up yet.
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    if (now < f.reconfigHold || now - f.lastReactive < kReactiveBackoff)
        return false;
    f.lastReactive = now;
    double measured = f.rate.rps(now);
    double residual = std::max(measured - aggregateRUp(f), 1.0);
    auto plans = planScaleOut(f, residual);
    for (const auto &plan : plans)
        launchInstance(fn, plan, false);
    if (!plans.empty())
        refreshTargets(f);
    return true;
}

void
Platform::healthTick()
{
    sim::Tick now = sim_.now();
    auto eligible = [this](cluster::ServerId id) {
        return !cluster_.serverDown(id);
    };
    health::OutlierEjector::Actions acts =
        health_->evaluate(now, eligible, cluster_.size());
    for (cluster::ServerId id : acts.readmit) {
        cluster_.liftQuarantine(id);
        total_.add(metrics::Counter::HealthReadmissions);
        emitClusterEvent(obs::SpanKind::HealthReadmission, id, now);
    }
    for (cluster::ServerId id : acts.eject) {
        cluster_.quarantineServer(id);
        // Drain-first: what the server hosts finishes or re-routes; only
        // new placements are refused.
        drainServer(id);
        total_.add(metrics::Counter::HealthEjections);
        // Ground-truth check for the detection-quality counter: the
        // ejector itself never sees this.
        if (grayMultiplier(id) > 1.0)
            total_.add(metrics::Counter::GrayDetections);
        emitClusterEvent(obs::SpanKind::HealthEjection, id, now);
    }
}

// ---------------------------------------------------------------------------
// Auto-scaling engine
// ---------------------------------------------------------------------------

double
Platform::aggregateRUp(const FunctionState &f) const
{
    double total = 0.0;
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (!rt.draining)
            total += rt.bounds.up;
    }
    return total;
}

void
Platform::refreshTargets(FunctionState &f)
{
    std::vector<InstanceRateInfo> infos;
    std::vector<std::size_t> mapping;
    for (std::size_t idx : f.live) {
        InstanceRuntime &rt = instances_[idx];
        rt.servedInEpoch = 0.0;
        if (rt.draining) {
            rt.targetRate = 0.0;
            continue;
        }
        infos.push_back(InstanceRateInfo{rt.bounds.up, rt.bounds.low});
        mapping.push_back(idx);
    }
    if (infos.empty())
        return;
    std::vector<double> rates =
        targetRates(infos, f.rate.rps(sim_.now()));
    for (std::size_t i = 0; i < mapping.size(); ++i)
        instances_[mapping[i]].targetRate = rates[i];
}

void
Platform::scalerTick()
{
    // Whole-tick scope: nested Schedule/CopSolve scopes report their own
    // (inclusive) share separately.
    obs::ProfScope scaler_scope(&prof_, obs::Phase::Autoscaler);
    sim::Tick now = sim_.now();
    // Pump the SLO monitor so windows close (and alerts fire) on idle
    // functions too, not only on completion traffic.
    if (monitor_.enabled())
        monitor_.advanceTo(now);
    // Rotate the function order each tick so no single function gets a
    // standing first claim on freed resources.
    std::size_t offset =
        functions_.empty()
            ? 0
            : static_cast<std::size_t>(now / kScalerPeriod) %
                  functions_.size();
    for (std::size_t i = 0; i < functions_.size(); ++i) {
        std::size_t fi = (i + offset) % functions_.size();
        FunctionState &f = functions_[fi];
        double measured = f.rate.rps(now);

        // The completion path only re-evaluates brownout on traffic;
        // this periodic update lets a function whose load vanished
        // recover once the hold expires.
        if (f.brownout.update(now))
            noteBrownoutEdge(static_cast<FunctionId>(fi));
        bool browned_out = f.brownout.active();

        std::vector<InstanceRateInfo> infos;
        std::vector<double> costs;
        std::vector<std::size_t> mapping;
        double r_max = 0.0;
        double r_min = 0.0;
        for (std::size_t idx : f.live) {
            const InstanceRuntime &rt = instances_[idx];
            if (rt.draining)
                continue;
            infos.push_back(
                InstanceRateInfo{rt.bounds.up, rt.bounds.low});
            costs.push_back(rt.inst.config().resources.weighted(
                cluster::kDefaultBeta));
            mapping.push_back(idx);
            r_max += rt.bounds.up;
            r_min += rt.bounds.low;
        }

        if (now < f.reconfigHold) {
            // Mid-reconfiguration: advance the rolling replacement and
            // suppress ordinary scaling decisions.
            continueReconfigure(static_cast<FunctionId>(fi), measured);
            refreshTargets(f);
            continue;
        }

        ScalingAssessment assess =
            assessScaling(measured, r_max, r_min, kAlpha);
        using Action = ScalingAssessment::Action;
        if (assess.action == Action::ScaleOut &&
            assess.residualRps > 0.01) {
            // Cap the per-tick claim: growing in bounded slices keeps one
            // under-provisioned function from grabbing the whole cluster
            // in a single tick and starving its peers. A browned-out
            // function claims its full residual — capacity is the cure.
            double claim =
                scaleOutClaim(measured, assess.residualRps, browned_out);
            auto plans = planScaleOut(f, claim);
            for (const auto &plan : plans)
                launchInstance(static_cast<FunctionId>(fi), plan, false);
            // Nothing fits next to the current fleet: replacing it with
            // better configurations may be the only way to grow.
            if (plans.empty() && !uniformScaling())
                maybeReconfigure(static_cast<FunctionId>(fi), measured);
        } else if (assess.action == Action::ScaleIn && !uniformScaling()) {
            auto drains =
                chooseDrains(infos, costs, measured, kAlpha);
            for (std::size_t local : drains) {
                InstanceRuntime &rt = instances_[mapping[local]];
                // The keep-alive policy owns the pre-warmed pool: an
                // unused pre-warmed instance expires through its windows,
                // not through load-driven scale-in.
                if (rt.prewarmed && rt.inst.requestsServed() == 0)
                    continue;
                rt.draining = true;
                if (rt.inst.state() == cluster::InstanceState::Idle &&
                    rt.queue.empty()) {
                    armExpiry(mapping[local]);
                }
            }
        } else if (assess.action == Action::Hold && !uniformScaling()) {
            maybeReconfigure(static_cast<FunctionId>(fi), measured);
        }
        refreshTargets(f);
    }
}

void
Platform::maybeReconfigure(FunctionId fn, double measured)
{
    // Minimum spacing between fleet reconfiguration attempts.
    constexpr sim::Tick kReconfigPeriod = 5 * sim::kTicksPerSec;
    // Relative cost advantage (weighted resources per unit of r_up) a
    // fresh Algorithm 1 plan must show before the running fleet is
    // replaced. Guards against oscillation.
    constexpr double kReconfigGain = 0.10;
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    if (measured <= 1.0 || now - f.lastReconfig < kReconfigPeriod)
        return;
    f.lastReconfig = now;

    // Current fleet cost per unit of absorbable rate.
    double cur_cost = 0.0;
    double cur_up = 0.0;
    bool have_old = false;
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (rt.draining)
            continue;
        cur_cost += rt.inst.config().resources.weighted(
            cluster::kDefaultBeta);
        cur_up += rt.bounds.up;
        have_old = true;
    }
    if (cur_up <= 0.0 || !have_old)
        return;

    // What would Algorithm 1 provision for the measured rate on an empty
    // cluster? (The old fleet may occupy most of the machines, so the
    // ideal is evaluated on an empty copy. Building one is O(1); only the
    // servers it places on get records.)
    cluster::Cluster empty(cluster_.size(), cluster_.server(0).capacity());
    auto ideal = scheduler_.schedule(*f.model, measured, f.spec.sloTicks,
                                     f.spec.maxBatch, empty);
    double ideal_cost = 0.0;
    double ideal_up = 0.0;
    for (const auto &plan : ideal) {
        ideal_cost += plan.config.resources.weighted(cluster::kDefaultBeta);
        ideal_up += plan.bounds.up;
    }
    // Compare cost per *usable* unit of rate: capacity beyond the
    // measured rate is over-provisioning on either side.
    double ideal_usable = std::min(ideal_up, measured);
    double cur_usable = std::min(cur_up, measured);
    bool worthwhile = ideal_up >= measured * 0.95 && ideal_usable > 0.0 &&
                      ideal_cost / ideal_usable <
                          (cur_cost / cur_usable) *
                              (1.0 - kReconfigGain);
    if (!worthwhile)
        return;

    // Enter the rolling replacement: bump the fleet generation (the
    // survivors become "old"), suppress ordinary scaling until done, and
    // advance the first slice immediately.
    ++f.generation;
    f.reconfigHold = now + 20 * sim::kTicksPerSec;
    continueReconfigure(fn, measured);
}

void
Platform::continueReconfigure(FunctionId fn, double measured)
{
    FunctionState &f = functionState(fn);

    // Capacity already provided by the new generation.
    double new_up = 0.0;
    std::vector<std::size_t> old_instances;
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (rt.generation == f.generation && !rt.draining) {
            new_up += rt.bounds.up;
        } else if (!rt.draining) {
            old_instances.push_back(idx);
        }
    }

    double need = measured - new_up;
    if (need <= 1.0 || old_instances.empty()) {
        // Replacement complete: retire whatever old capacity remains.
        for (std::size_t idx : old_instances) {
            InstanceRuntime &rt = instances_[idx];
            rt.draining = true;
            rt.fastReap = true;
            armExpiry(idx);
        }
        f.reconfigHold = 0;
        return;
    }

    // Launch the next slice into whatever room exists; new instances
    // carry the current generation.
    SpreadContext spread = spreadContextFor(f);
    auto plans = scheduler_.schedule(*f.model, need, f.spec.sloTicks,
                                     f.spec.maxBatch, cluster_,
                                     spreadArg(spread));
    double planned_up = 0.0;
    for (const auto &plan : plans) {
        planned_up += plan.bounds.up;
        launchInstance(fn, plan, false);
    }

    // Retire old capacity matching the slice (least efficient first), or
    // a quarter of the old fleet when nothing fit, to force headroom.
    double old_up = 0.0;
    for (std::size_t idx : old_instances)
        old_up += instances_[idx].bounds.up;
    double retire_up =
        plans.empty() ? 0.25 * old_up : std::min(planned_up, old_up);

    std::sort(old_instances.begin(), old_instances.end(),
              [&](std::size_t a, std::size_t b) {
                  const auto &ra = instances_[a];
                  const auto &rb = instances_[b];
                  double ea = ra.bounds.up /
                              ra.inst.config().resources.weighted(
                                  cluster::kDefaultBeta);
                  double eb = rb.bounds.up /
                              rb.inst.config().resources.weighted(
                                  cluster::kDefaultBeta);
                  return ea < eb;
              });
    double retired = 0.0;
    for (std::size_t idx : old_instances) {
        if (retired >= retire_up)
            break;
        InstanceRuntime &rt = instances_[idx];
        rt.draining = true;
        rt.fastReap = true;
        retired += rt.bounds.up;
        armExpiry(idx);
    }
}

std::vector<LaunchPlan>
Platform::planScaleOut(FunctionState &f, double residual_rps)
{
    // Brownout changes how much residual a tick claims
    // (scaleOutClaim), never the SLO the configs are planned against.
    SpreadContext spread = spreadContextFor(f);
    return scheduler_.schedule(*f.model, residual_rps, f.spec.sloTicks,
                               f.spec.maxBatch, cluster_,
                               spreadArg(spread));
}

SpreadContext
Platform::spreadContextFor(const FunctionState &f) const
{
    SpreadContext ctx{opts_.topology};
    if (spreadArg(ctx) == nullptr)
        return ctx;
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (rt.draining)
            continue;
        ctx.add(rt.inst.serverId());
    }
    return ctx;
}

SpreadContext *
Platform::spreadArg(SpreadContext &ctx) const
{
    // Without domains every penalty is 1.0: skip the scheduler's
    // per-server spread scan.
    return opts_.topology.enabled() && opts_.scheduler.spreadWeight > 0.0
               ? &ctx
               : nullptr;
}

void
Platform::recordAllocationChange()
{
    sim::Tick now = sim_.now();
    total_.recordAllocation(now, cluster_.totalAllocated());
    fragRatio_.update(now, cluster_.fragmentRatio());
}

} // namespace infless::core
