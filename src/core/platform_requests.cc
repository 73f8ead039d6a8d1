#include "core/platform.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "sim/logging.hh"

namespace infless::core {

// ---------------------------------------------------------------------------
// Arrival and routing
// ---------------------------------------------------------------------------

void
Platform::onArrival(FunctionId fn)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);

    RequestRecord record;
    record.function = fn;
    record.arrival = now;
    record.rootArrival = now;
    record.chain = f.chain;
    record.stage = f.stage;
    RequestIndex request = requests_.add(record);

    if (f.chain != kNoChain && f.stage == 0) {
        chains_[static_cast<std::size_t>(f.chain)].metrics.add(
            metrics::Counter::Arrivals);
    }
    ingestRequest(fn, request);
}

void
Platform::ingestRequest(FunctionId fn, RequestIndex request)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    tally(f, metrics::Counter::Arrivals);
    f.rate.record(now);
    f.policy->recordInvocation(now);
    f.lastInvocation = now;

    emitSpan(obs::SpanKind::Arrival, request, fn, -1, -1, now, 0);

    sim::Tick delay = ingressDelay();
    if (delay > 0) {
        ++f.pendingIngress;
        sim_.afterFixed(delay, [this, fn, request] {
            --functionState(fn).pendingIngress;
            routeRequest(fn, request);
        });
    } else {
        routeRequest(fn, request);
    }
}

Platform::LiveScan
Platform::scanLive(const FunctionState &f, bool admission) const
{
    sim::Tick now = sim_.now();
    bool pack = uniformScaling();
    bool one_to_one = oneToOne();
    LiveScan scan;
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (!rt.queue.hasRoom())
            continue;
        if (admission) {
            // Predicted sojourn: cold-start remainder + the running
            // batch + its own batch (a queue with room holds less than
            // one batch, so none waits ahead). Draining instances serve
            // queued work (routing falls back to them during
            // make-before-break reconfigs), so they count as capacity
            // here; excluding them sheds a full reconfig wave.
            scan.anyRoom = true;
            sim::Tick ready =
                rt.warmAt == sim::kTickNever
                    ? std::max<sim::Tick>(0, rt.warmExpectedAt - now)
                    : 0;
            sim::Tick batches_ahead =
                rt.inst.state() == cluster::InstanceState::Busy ? 1 : 0;
            scan.admitBest =
                std::min(scan.admitBest,
                         ready + (batches_ahead + 1) * rt.execPredicted);
        }
        if (one_to_one && (!rt.queue.empty() ||
                           rt.inst.state() == cluster::InstanceState::Busy))
            continue;
        WeightedPick &pick = rt.draining ? scan.draining : scan.serving;
        if (pack) {
            // Equal weights and no history: the first eligible instance
            // in live order wins.
            pick.offer(idx, 1.0, 0.0);
        } else {
            pick.offer(idx,
                       rt.targetRate > 0.0 ? rt.targetRate : rt.bounds.up,
                       rt.servedInEpoch);
        }
    }
    return scan;
}

void
Platform::routeRequest(FunctionId fn, RequestIndex request)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);

    // Overload gates: the circuit breaker sheds at ingress before any
    // instance is looked at; static admission reads the same pass over
    // live instances that routing does.
    if (!admitRequest(fn, request))
        return;
    bool admission = opts_.overload.admission.enabled;
    LiveScan scan = scanLive(f, admission);
    if (admission && !admitStatic(fn, request, scan))
        return;

    // Draining instances stop receiving traffic, but serve as a fallback
    // while replacements are still cold-starting (make-before-break).
    std::size_t idx = scan.pick();
    if (idx == WeightedPick::kNone && maybeReactiveScaleOut(fn))
        idx = scanLive(f, false).pick();
    if (idx == WeightedPick::kNone) {
        // Last resort before giving up: evict the oldest *doomed*
        // queued request fleet-wide (one already past its submission
        // deadline) to seat this one.
        if (opts_.overload.queue.evictOldest && tryEvictInto(fn, request))
            return;
        if (requests_[request].retried) {
            // Already lost to a crash once: burn another retry instead
            // of dropping into a cluster that is still restoring
            // capacity. An exhausted RetryPolicy inside failoverRequest
            // yields the (single) drop.
            failoverRequest(fn, request);
        } else {
            dropRequest(f, request, now);
        }
        return;
    }

    InstanceRuntime &rt = instances_[idx];
    bool pushed = rt.queue.push(request, now);
    sim::simAssert(pushed, "push failed on eligible instance");
    rt.servedInEpoch += 1.0;
    if (rt.queue.size() == 1)
        armTimeout(idx);
    tryStartBatch(idx);
}

// ---------------------------------------------------------------------------
// Batching
// ---------------------------------------------------------------------------

void
Platform::tryStartBatch(std::size_t idx)
{
    InstanceRuntime &rt = instances_[idx];
    if (rt.inst.state() != cluster::InstanceState::Idle)
        return;
    if (rt.queue.empty())
        return;
    if (rt.queue.hasFullBatch() || rt.queue.headDeadline() <= sim_.now())
        startBatch(idx);
}

void
Platform::startBatch(std::size_t idx)
{
    sim::Tick now = sim_.now();
    InstanceRuntime &rt = instances_[idx];
    FunctionState &f = functionState(rt.fn);

    // The batch goes straight into inFlight, whose buffer every batch
    // of this instance reuses.
    rt.queue.takeBatch(rt.inFlight);
    int fill = static_cast<int>(rt.inFlight.size());
    sim::Tick exec_time = execCache_.trueTicks(
        exec_, *f.model, fill, rt.inst.config().resources);
    // Health scoring judges actual exec against this healthy baseline
    // for the same model + config, so heterogeneous configs compare
    // fairly and the gray surcharge is what stands out.
    sim::Tick base_exec = exec_time;
    if (!grayMult_.empty()) {
        double mult = grayMultiplier(rt.inst.serverId());
        if (mult != 1.0) {
            exec_time = static_cast<sim::Tick>(
                std::llround(static_cast<double>(exec_time) * mult));
        }
    }
    if (health_)
        health_->recordExec(rt.inst.serverId(), base_exec, exec_time);

    rt.inst.startBatch(fill);
    // Latency attribution: snapshot when the executor became available
    // to this batch (it last went idle); the gap up to `now` is batch
    // formation — waiting for fill or the head deadline.
    rt.batchAvailAt = rt.idleSince == sim::kTickNever ? now : rt.idleSince;
    rt.idleSince = sim::kTickNever;
    f.metrics.recordBatch(fill);
    total_.recordBatch(fill);
    f.usage[rt.usageKey].requestsServed += fill;

    cancelTimer(rt.timeoutEvent);
    if (!rt.fastReap)
        cancelTimer(rt.expiryEvent);

    // The completion event is on the non-cancellable fast path; the epoch
    // guard dead-letters it when a crash kills the instance mid-batch.
    std::uint32_t epoch = rt.liveEpoch;
    auto completion = [this, idx, epoch, now, exec_time] {
        if (instances_[idx].liveEpoch != epoch)
            return; // instance crashed while the batch was running
        onBatchComplete(idx, now, exec_time);
    };
    // The busiest closure of a drain: it must stay on the event queue's
    // allocation-free inline path.
    static_assert(
        sim::EventQueue::Callback::fitsInline<decltype(completion)>,
        "batch-completion closure outgrew the event queue inline buffer");
    sim_.afterFixed(exec_time, std::move(completion));
}

void
Platform::onBatchComplete(std::size_t idx, sim::Tick started,
                          sim::Tick exec_time)
{
    InstanceRuntime &done = instances_[idx];
    done.inst.finishBatch(sim_.now());
    done.idleSince = sim_.now();
    if (health_)
        health_->recordSuccess(done.inst.serverId());
    // Complete the batch from a local: completing a request can launch
    // instances and reallocate instances_, inFlight with it.
    std::vector<RequestIndex> batch = std::move(done.inFlight);
    done.inFlight.clear();
    for (RequestIndex request : batch)
        completeRequest(idx, request, started, exec_time);

    // Re-resolve after completeRequest: completing requests can launch
    // replacement instances and reallocate instances_ underneath any
    // reference taken before the loop.
    InstanceRuntime &rt = instances_[idx];
    // Hand the buffer back for the next batch. A completion routes only
    // to other functions (a chain's next stage), so none started here.
    sim::simAssert(rt.inFlight.empty(), "batch started during completion");
    batch.clear();
    rt.inFlight.swap(batch);
    if (rt.reapAsap) {
        // Forced hand-over: re-route whatever queued behind this batch
        // and free the resources for the replacement fleet.
        FunctionId fn = rt.fn;
        std::vector<RequestIndex> stranded = rt.queue.drain();
        reapInstance(idx);
        for (RequestIndex request : stranded)
            routeRequest(fn, request);
        return;
    }

    tryStartBatch(idx);
    if (rt.inst.state() == cluster::InstanceState::Idle &&
        rt.queue.empty()) {
        armExpiry(idx);
    }
}

void
Platform::completeRequest(std::size_t idx, RequestIndex request,
                          sim::Tick started, sim::Tick exec_time)
{
    const InstanceRuntime &rt = instances_[idx];
    RequestRecord &record = requests_[request];
    FunctionState &f = functionState(record.function);

    sim::Tick cold = 0;
    if (rt.warmAt != sim::kTickNever && rt.warmAt > record.arrival)
        cold = std::min(started, rt.warmAt) - record.arrival;
    sim::Tick queue_time =
        std::max<sim::Tick>(0, started - record.arrival - cold);
    // Batch-formation wait: the tail of the queue time after both the
    // request (past its cold wait) and the executor (batchAvailAt) were
    // ready — time spent waiting for fill or the head deadline. The rest
    // of queue_time is waiting behind the previous batch. batchWait is a
    // refinement of queue_time, not a fourth addend.
    sim::Tick ready = record.arrival + cold;
    sim::Tick avail =
        rt.batchAvailAt == sim::kTickNever ? started : rt.batchAvailAt;
    sim::Tick batch_wait = std::clamp<sim::Tick>(
        started - std::max(avail, ready), 0, queue_time);

    metrics::LatencyBreakdown parts{cold, queue_time, exec_time,
                                    batch_wait};
    f.metrics.recordCompletion(sim_.now(), parts, f.spec.sloTicks);
    total_.recordCompletion(sim_.now(), parts, f.spec.sloTicks);
    if (monitor_.enabled()) {
        monitor_.recordCompletion(record.function, sim_.now(),
                                  parts.total(), cold,
                                  queue_time - batch_wait, batch_wait,
                                  exec_time);
    }

    // Health feedback is judged on the serving path only (queue +
    // exec): a cold-start wait is a provisioning event (admission's
    // domain), not evidence that warm servers are overloaded. Reported
    // metrics above stay pinned to the full latency.
    sim::Tick serving = parts.total() - parts.coldStart;
    bool violated = f.spec.sloTicks > 0 && serving > f.spec.sloTicks;
    if (f.breaker.record(sim_.now(), violated))
        noteBreakerEdge(record.function);
    if (f.brownout.record(sim_.now(), violated))
        noteBrownoutEdge(record.function);

    if (tracer_.wants(request) || flight_.enabled()) {
        cluster::ServerId server = rt.inst.serverId();
        cluster::InstanceId instance = rt.inst.id();
        if (cold > 0) {
            emitSpan(obs::SpanKind::ColdStart, request, record.function,
                     server, instance, record.arrival, cold);
        }
        emitSpan(obs::SpanKind::Queue, request, record.function, server,
                 instance, record.arrival + cold, queue_time);
        if (batch_wait > 0) {
            emitSpan(obs::SpanKind::BatchWait, request, record.function,
                     server, instance, started - batch_wait, batch_wait);
        }
        emitSpan(obs::SpanKind::Exec, request, record.function, server,
                 instance, started, exec_time);
        emitSpan(obs::SpanKind::Complete, request, record.function,
                 server, instance, sim_.now(), 0);
    }

    if (record.retried) {
        // A crash-lost request made it through a re-dispatch: that is a
        // successful failover.
        record.retried = false;
        tally(f, metrics::Counter::Failovers);
    }

    if (record.chain == kNoChain) {
        requests_.retire(request);
        return;
    }
    record.coldAccum += cold;
    record.queueAccum += queue_time;
    record.execAccum += exec_time;
    record.batchAccum += batch_wait;
    advanceChain(request, sim_.now());
}

void
Platform::advanceChain(RequestIndex request, sim::Tick now)
{
    const RequestRecord &record = requests_[request];
    ChainState &chain = chains_[static_cast<std::size_t>(record.chain)];

    auto next_stage = static_cast<std::size_t>(record.stage) + 1;
    if (next_stage < chain.stages.size()) {
        FunctionId next_fn = chain.stages[next_stage];
        RequestRecord forwarded;
        forwarded.function = next_fn;
        forwarded.arrival = now;
        forwarded.chain = record.chain;
        forwarded.stage = static_cast<int>(next_stage);
        forwarded.rootArrival = record.rootArrival;
        forwarded.coldAccum = record.coldAccum;
        forwarded.queueAccum = record.queueAccum;
        forwarded.execAccum = record.execAccum;
        forwarded.batchAccum = record.batchAccum;
        RequestIndex next = requests_.add(forwarded);
        requests_.retire(request); // `record` is dead from here on
        ingestRequest(next_fn, next);
        return;
    }

    metrics::LatencyBreakdown parts{record.coldAccum, record.queueAccum,
                                    record.execAccum, record.batchAccum};
    chain.metrics.recordCompletion(now, parts, chain.spec.sloTicks);
    requests_.retire(request);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void
Platform::armTimeout(std::size_t idx)
{
    InstanceRuntime &rt = instances_[idx];
    cancelTimer(rt.timeoutEvent);
    sim::Tick deadline = rt.queue.headDeadline();
    if (deadline == sim::kTickNever)
        return;
    sim::Tick when = std::max(sim_.now(), deadline);
    rt.timeoutEvent = sim_.at(when, [this, idx] {
        instances_[idx].timeoutEvent = sim::kNoEvent;
        tryStartBatch(idx);
    });
}

void
Platform::dropRequest(FunctionState &f, RequestIndex request, sim::Tick now)
{
    dropRequestInternal(f, request, now, true);
}

void
Platform::dropRequestInternal(FunctionState &f, RequestIndex request,
                              sim::Tick now, bool feed_health)
{
    tally(f, metrics::Counter::Drops);
    const RequestRecord &record = requests_[request];
    if (feed_health) {
        // A drop of an admitted request is a failure signal; sheds come
        // through with feed_health off so an open breaker's own rejects
        // cannot keep it open forever. Drops while cold capacity is
        // still warming are a provisioning artifact, not evidence the
        // warm servers are failing, so they bypass the breaker (but
        // still count as brownout pressure — engaging during a scale-up
        // storm is exactly brownout's job).
        if (opts_.overload.breaker.enabled && !coldCapacityPending(f) &&
            f.breaker.record(now, true)) {
            noteBreakerEdge(record.function);
        }
        if (f.brownout.record(now, true))
            noteBrownoutEdge(record.function);
    }
    if (monitor_.enabled())
        monitor_.recordDrop(record.function, now);
    emitSpan(obs::SpanKind::Drop, request, record.function, -1, -1, now,
             0);
    if (record.chain != kNoChain) {
        chains_[static_cast<std::size_t>(record.chain)].metrics.add(
            metrics::Counter::Drops);
    }
    // Every drop, shed, eviction and exhausted failover ends here.
    requests_.retire(request);
}

void
Platform::failoverRequest(FunctionId fn, RequestIndex request)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    RequestRecord &rec = requests_[request];
    const faults::RetryPolicy &rp = opts_.retry;
    if (!rp.retriesEnabled() || rec.retries >= rp.maxAttempts - 1) {
        dropRequest(f, request, now);
        return;
    }
    ++rec.retries;
    rec.retried = true;
    tally(f, metrics::Counter::Retries);
    emitSpan(obs::SpanKind::Retry, request, fn, -1, -1, now, 0);
    // Backoff, then re-enter the ordinary routing path (which may itself
    // trigger a reactive scale-out onto the surviving servers).
    ++f.pendingRetries;
    sim_.afterFixed(rp.backoff(rec.retries), [this, fn, request] {
        --functionState(fn).pendingRetries;
        routeRequest(fn, request);
    });
}

// ---------------------------------------------------------------------------
// Overload control plane
// ---------------------------------------------------------------------------

bool
Platform::coldCapacityPending(const FunctionState &f) const
{
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (!rt.draining && rt.warmAt == sim::kTickNever)
            return true;
    }
    return false;
}

bool
Platform::admitRequest(FunctionId fn, RequestIndex request)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    overload::BreakerState from = f.breaker.state();
    bool allowed = f.breaker.allow(now, request);
    if (f.breaker.state() != from)
        noteBreakerEdge(fn);
    if (!allowed)
        shedRequest(f, request, now, ShedCause::Breaker);
    return allowed;
}

bool
Platform::admitStatic(FunctionId fn, RequestIndex request,
                      const LiveScan &scan)
{
    // No instance with room: fall through to the routing path, which
    // can still scale out reactively or evict.
    if (!scan.anyRoom)
        return true;
    FunctionState &f = functionState(fn);
    if (scan.admitBest <= f.spec.sloTicks)
        return true;
    shedRequest(f, request, sim_.now(), ShedCause::Admission);
    // A capacity-driven shed is also a scale-out signal: without this,
    // shedding starves the reactive path in routeRequest and the fleet
    // only grows on scaler ticks, so a cold burst stays unservable for
    // longer.
    maybeReactiveScaleOut(fn);
    return false;
}

void
Platform::shedRequest(FunctionState &f, RequestIndex request, sim::Tick now,
                      ShedCause cause)
{
    const RequestRecord &record = requests_[request];
    tally(f, cause == ShedCause::Breaker ? metrics::Counter::BreakerSheds
                                         : metrics::Counter::Sheds);
    // Shedding is itself overload pressure: it keeps brownout engaged
    // while the admission gate is working hard.
    if (f.brownout.record(now, true))
        noteBrownoutEdge(record.function);
    emitSpan(obs::SpanKind::Shed, request, record.function, -1, -1, now,
             0);
    dropRequestInternal(f, request, now, false);
}

bool
Platform::tryEvictInto(FunctionId fn, RequestIndex request)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    constexpr auto kNone = std::numeric_limits<std::size_t>::max();
    std::size_t victim_idx = kNone;
    sim::Tick oldest = sim::kTickNever;
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (rt.draining || rt.queue.empty())
            continue;
        // Only a doomed head is evictable: one past its submission
        // deadline (arrival + max_wait) will violate the SLO even if
        // submitted right now, so trading it for a fresh request can
        // only raise goodput. Evicting a viable head would be churn —
        // under sustained saturation every arrival would bump a request
        // that was about to be served.
        if (rt.queue.headDeadline() > now)
            continue;
        if (rt.queue.headArrival() < oldest) {
            oldest = rt.queue.headArrival();
            victim_idx = idx;
        }
    }
    if (victim_idx == kNone)
        return false;

    InstanceRuntime &rt = instances_[victim_idx];
    RequestIndex victim = rt.queue.evictOldest();
    tally(f, metrics::Counter::QueueEvictions);
    dropRequest(f, victim, now);
    bool pushed = rt.queue.push(request, now);
    sim::simAssert(pushed, "push failed after eviction");
    rt.servedInEpoch += 1.0;
    // The pending timeout aimed at the evicted head; re-aim at the new
    // one (also covers the freshly pushed request becoming the head).
    armTimeout(victim_idx);
    tryStartBatch(victim_idx);
    return true;
}

void
Platform::emitSpan(obs::SpanKind kind, RequestIndex request, FunctionId fn,
                   std::int32_t server, std::int64_t instance,
                   sim::Tick start, sim::Tick duration)
{
    if (tracer_.wants(request))
        tracer_.record(kind, request, fn, server, instance, start,
                       duration);
    if (flight_.enabled())
        flight_.record(kind, request, fn, server, instance, start,
                       duration);
}

void
Platform::emitFunctionEvent(obs::SpanKind kind, FunctionId fn, sim::Tick at)
{
    if (tracer_.enabled())
        tracer_.record(kind, -1, fn, -1, -1, at, 0);
    if (flight_.enabled())
        flight_.record(kind, -1, fn, -1, -1, at, 0);
}

void
Platform::emitClusterEvent(obs::SpanKind kind, std::int32_t server,
                           sim::Tick at)
{
    if (tracer_.enabled())
        tracer_.clusterEvent(kind, server, at);
    if (flight_.enabled())
        flight_.clusterEvent(kind, server, at);
}

void
Platform::noteBreakerEdge(FunctionId fn)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    overload::BreakerState to = f.breaker.state();
    if (to == overload::BreakerState::Open)
        tally(f, metrics::Counter::BreakerOpens);
    else if (to == overload::BreakerState::Closed)
        tally(f, metrics::Counter::BreakerCloses);
    obs::SpanKind kind =
        to == overload::BreakerState::Open
            ? obs::SpanKind::BreakerOpen
            : to == overload::BreakerState::HalfOpen
                  ? obs::SpanKind::BreakerHalfOpen
                  : obs::SpanKind::BreakerClose;
    emitFunctionEvent(kind, fn, now);
    // An opening breaker is an anomaly: freeze the flight dump
    // (after the transition span so the dump contains it).
    if (to == overload::BreakerState::Open)
        flight_.trigger(obs::FlightTrigger::BreakerOpen, now);
}

void
Platform::noteBrownoutEdge(FunctionId fn)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    bool active = f.brownout.active();
    tally(f, active ? metrics::Counter::BrownoutEntries
                    : metrics::Counter::BrownoutExits);
    emitFunctionEvent(active ? obs::SpanKind::BrownoutEnter
                             : obs::SpanKind::BrownoutExit,
                      fn, now);
}

} // namespace infless::core
