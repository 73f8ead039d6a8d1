#include "core/platform.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "coldstart/lsth.hh"
#include "core/autoscaler.hh"
#include "sim/logging.hh"

namespace infless::core {

namespace {

/** Dispatcher blend constant (§3.2; the paper uses 0.8). */
constexpr double kAlpha = 0.8;
/** Auto-scaling engine period. */
constexpr sim::Tick kScalerPeriod = sim::kTicksPerSec;

} // namespace

Platform::Platform(std::size_t num_servers, PlatformOptions opts)
    : Platform(cluster::Cluster(num_servers), std::move(opts))
{
}

Platform::Platform(cluster::Cluster machines, PlatformOptions opts)
    : sim_(opts.seed), cluster_(std::move(machines)),
      zoo_(models::ModelZoo::shared()), exec_(opts.exec),
      profileDb_(exec_), predictor_(profileDb_, opts.cop),
      scheduler_(predictor_, opts.scheduler), runtime_(opts.coldStart),
      opts_(std::move(opts))
{
    if (!opts_.keepAlive)
        opts_.keepAlive = coldstart::LsthPolicy::factory();
    tracer_.configure(opts_.obs.trace);
    flight_.configure(opts_.obs.flight);
    monitor_.configure(opts_.obs.slo);
    if (monitor_.enabled()) {
        // A firing burn-rate alert is a flight trigger: the recorder
        // freezes the spans that led up to the first incident.
        monitor_.setAlertCallback([this](const obs::SloAlert &alert) {
            if (alert.edge != obs::AlertEdge::Firing)
                return;
            flight_.trigger(alert.kind == obs::AlertKind::FastBurn
                                ? obs::FlightTrigger::SloFastBurn
                                : obs::FlightTrigger::SloSlowBurn,
                            alert.at);
        });
    }
    prof_.setEnabled(opts_.obs.profiling);
    scheduler_.setProfiler(&prof_);
    scalerHandle_ = sim_.every(kScalerPeriod, [this] { scalerTick(); });

    if (opts_.faults.profileError.enabled()) {
        // Mispredicted-profile fault: distort the latency surface the
        // controllers see. Execution pricing (execCache_ over exec_)
        // never goes through the predictor, so ground truth is intact.
        const faults::ProfileErrorConfig pe = opts_.faults.profileError;
        const std::uint64_t seed = opts_.seed;
        predictor_.setDistortion([pe, seed](std::uint64_t model_key) {
            return faults::profileErrorMultiplier(pe, seed, model_key);
        });
    }

    serverDownSince_.assign(cluster_.size(), sim::kTickNever);

    if (opts_.topology.enabled()) {
        // Flat platform: local ids ARE global ids. ShardedPlatform
        // re-assigns with true global ids right after construction.
        for (std::size_t s = 0; s < cluster_.size(); ++s) {
            auto id = static_cast<cluster::ServerId>(s);
            cluster_.setServerDomain(id, opts_.topology.domainOf(id));
        }
    }
    if (opts_.faults.grayEnabled()) {
        grayMult_.resize(cluster_.size(), 1.0);
        for (std::size_t s = 0; s < cluster_.size(); ++s) {
            grayMult_[s] = faults::grayExecMultiplier(
                opts_.faults, opts_.seed,
                static_cast<cluster::ServerId>(s));
        }
    }
    if (opts_.health.enabled) {
        health_ = std::make_unique<health::OutlierEjector>(opts_.health);
        health_->ensureServers(cluster_.size());
        healthHandle_ =
            sim_.every(health::kHealthEvalPeriod, [this] { healthTick(); });
    }
    if (opts_.faults.enabled()) {
        faults_ = std::make_unique<faults::FaultInjector>(
            sim_, opts_.faults, opts_.seed, cluster_.size(),
            opts_.topology.zones);
        faults_->start(faults::FaultInjector::Hooks{
            [this](cluster::ServerId id) { injectServerCrash(id); },
            [this](cluster::ServerId id) { injectServerRecovery(id); },
            [this](cluster::DomainId zone) { injectDomainOutage(zone); },
            [this](cluster::DomainId zone) { injectDomainRepair(zone); }});
    }
}

Platform::~Platform() = default;

FunctionId
Platform::deploy(const FunctionSpec &spec)
{
    sim::simAssert(spec.maxBatch >= 1, "maxBatch must be >= 1");
    // Arrival-rate estimation window.
    constexpr sim::Tick kRateWindow = 2 * sim::kTicksPerSec;
    FunctionState state(kRateWindow, opts_.overload);
    state.spec = spec;
    state.model = &zoo_.get(spec.model);
    state.spec.maxBatch = std::min(spec.maxBatch, state.model->maxBatch);
    state.policy = opts_.keepAlive();
    functions_.push_back(std::move(state));
    auto fn = static_cast<FunctionId>(functions_.size() - 1);
    monitor_.registerFunction(fn, functions_.back().spec.sloTicks);
    return fn;
}

ChainId
Platform::deployChain(const ChainSpec &spec)
{
    sim::simAssert(!spec.models.empty(), "chain needs at least one stage");
    sim::simAssert(spec.sloTicks > 0, "chain SLO must be positive");

    // Split the end-to-end SLO into per-stage budgets. Proportional
    // splitting weighs stages by their predicted single-sample execution
    // time on a reference configuration, so slow stages get more room to
    // batch.
    const cluster::Resources reference{2000, 10, 0};
    std::vector<double> weights;
    for (const auto &name : spec.models) {
        const auto &model = zoo_.get(name);
        double weight =
            spec.split == SloSplit::Equal
                ? 1.0
                : static_cast<double>(
                      predictor_.predict(model, 1, reference));
        weights.push_back(weight);
    }
    double total = 0.0;
    for (double w : weights)
        total += w;

    ChainState state;
    state.spec = spec;
    auto chain = static_cast<ChainId>(chains_.size());
    for (std::size_t stage = 0; stage < spec.models.size(); ++stage) {
        FunctionSpec fn_spec;
        fn_spec.name = spec.name + "-stage" + std::to_string(stage);
        fn_spec.model = spec.models[stage];
        fn_spec.sloTicks = std::max<sim::Tick>(
            10 * sim::kTicksPerMs,
            static_cast<sim::Tick>(static_cast<double>(spec.sloTicks) *
                                   weights[stage] / total));
        fn_spec.maxBatch = spec.maxBatch;
        FunctionId fn = deploy(fn_spec);
        functionState(fn).chain = chain;
        functionState(fn).stage = static_cast<int>(stage);
        state.stages.push_back(fn);
    }
    chains_.push_back(std::move(state));
    return chain;
}

const metrics::RunMetrics &
Platform::chainMetrics(ChainId chain) const
{
    sim::simAssert(chain >= 0 &&
                       static_cast<std::size_t>(chain) < chains_.size(),
                   "bad chain id ", chain);
    return chains_[static_cast<std::size_t>(chain)].metrics;
}

const std::vector<FunctionId> &
Platform::chainStages(ChainId chain) const
{
    sim::simAssert(chain >= 0 &&
                       static_cast<std::size_t>(chain) < chains_.size(),
                   "bad chain id ", chain);
    return chains_[static_cast<std::size_t>(chain)].stages;
}

void
Platform::injectChainTrace(ChainId chain, workload::ArrivalTrace trace)
{
    injectTrace(chainStages(chain).front(), std::move(trace));
}

void
Platform::injectChainRateSeries(ChainId chain,
                                const workload::RateSeries &series)
{
    injectRateSeries(chainStages(chain).front(), series);
}

Platform::FunctionState &
Platform::functionState(FunctionId fn)
{
    sim::simAssert(fn >= 0 &&
                       static_cast<std::size_t>(fn) < functions_.size(),
                   "bad function id ", fn);
    return functions_[static_cast<std::size_t>(fn)];
}

const FunctionSpec &
Platform::spec(FunctionId fn) const
{
    return const_cast<Platform *>(this)->functionState(fn).spec;
}

const metrics::RunMetrics &
Platform::functionMetrics(FunctionId fn) const
{
    return const_cast<Platform *>(this)->functionState(fn).metrics;
}

void
Platform::injectTrace(FunctionId fn, workload::ArrivalTrace trace)
{
    functionState(fn); // validate the id
    std::size_t idx = feeds_.size();
    if (freeFeeds_.empty()) {
        feeds_.push_back(TraceFeed{fn, sim::TickLog()});
    } else {
        idx = freeFeeds_.back();
        freeFeeds_.pop_back();
        feeds_[idx] = TraceFeed{fn, sim::TickLog()};
    }
    feeds_[idx].ticks.append(trace.arrivals());
    scheduleNextArrival(idx);
}

void
Platform::injectRateSeries(FunctionId fn,
                           const workload::RateSeries &series)
{
    sim::Rng rng = sim_.forkRng(static_cast<std::uint64_t>(fn) + 0x77);
    injectTrace(fn, workload::ArrivalTrace::fromRateSeries(series, rng));
}

void
Platform::scheduleNextArrival(std::size_t feed_idx)
{
    TraceFeed &feed = feeds_[feed_idx];
    if (feed.ticks.done(0)) {
        // Replayed (its chunks went with the last read). No scheduled
        // arrival addresses this slot any more, so the next injected
        // trace may take it.
        freeFeeds_.push_back(feed_idx);
        return;
    }
    sim::Tick when = feed.ticks.take(0).tick;
    sim_.atFixed(std::max(when, sim_.now()), [this, feed_idx] {
        onArrival(feeds_[feed_idx].fn);
        scheduleNextArrival(feed_idx);
    });
}

void
Platform::run(sim::Tick until)
{
    endTime_ = until;
    sim_.runUntil(until);
    // Close every SLO window the run passed (purely observational: the
    // monitor schedules no events and draws no randomness).
    monitor_.advanceTo(until);
    // Surface the memo's effectiveness alongside the run's other
    // aggregates (idempotent: counters are absolute snapshots).
    total_.recordExecCache(execCache_.stats().hits,
                           execCache_.stats().misses);
    // Conservation audit: every arrived request must be completed,
    // dropped, or verifiably in flight. A truncated event engine may
    // legitimately strand events, so only audit full runs.
    if (!sim_.events().truncated()) {
        std::string diag;
        sim::simAssert(auditConservation(&diag),
                       "request conservation violated:\n", diag);
    }
}

double
Platform::meanFragmentRatio() const
{
    return fragRatio_.meanUntil(endTime_ > 0 ? endTime_ : sim_.now());
}

std::vector<ConfigUsage>
Platform::configUsage(FunctionId fn) const
{
    return const_cast<Platform *>(this)->functionState(fn).usage;
}

int
Platform::liveInstanceCount(FunctionId fn) const
{
    return static_cast<int>(
        const_cast<Platform *>(this)->functionState(fn).live.size());
}

std::vector<InstanceSnapshot>
Platform::instanceSnapshots(FunctionId fn) const
{
    const FunctionState &f =
        const_cast<Platform *>(this)->functionState(fn);
    std::vector<InstanceSnapshot> snapshots;
    snapshots.reserve(f.live.size());
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        InstanceSnapshot snap;
        snap.id = rt.inst.id();
        snap.function = fn;
        snap.config = rt.inst.config();
        snap.server = rt.inst.serverId();
        snap.state = rt.inst.state();
        snap.draining = rt.draining;
        snap.targetRate = rt.targetRate;
        snap.rUp = rt.bounds.up;
        snap.rLow = rt.bounds.low;
        snap.queueDepth = rt.queue.size();
        snapshots.push_back(snap);
    }
    return snapshots;
}

int
Platform::liveInstanceCount() const
{
    int total = 0;
    for (const auto &f : functions_)
        total += static_cast<int>(f.live.size());
    return total;
}

std::int64_t
Platform::queuedRequests() const
{
    std::int64_t total = 0;
    for (const auto &f : functions_)
        for (std::size_t idx : f.live)
            total += static_cast<std::int64_t>(instances_[idx].queue.size());
    return total;
}

std::int64_t
Platform::inFlightRequests() const
{
    std::int64_t total = 0;
    for (const auto &f : functions_) {
        for (std::size_t idx : f.live) {
            const InstanceRuntime &rt = instances_[idx];
            total += static_cast<std::int64_t>(rt.queue.size());
            total += static_cast<std::int64_t>(rt.inFlight.size());
        }
        total += f.pendingRetries + f.pendingIngress;
    }
    return total;
}

std::size_t
Platform::heldArrivalBytes() const
{
    std::size_t total = 0;
    for (const TraceFeed &feed : feeds_)
        total += feed.ticks.heldBytes();
    return total;
}

std::int64_t
Platform::scaleOutMisses(FunctionId fn) const
{
    return const_cast<Platform *>(this)->functionState(fn).scaleOutMisses;
}

std::int64_t
Platform::totalLaunches() const
{
    return total_.launches();
}

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
        chains_[static_cast<std::size_t>(f.chain)].metrics.recordArrival(
            now);
    }
    ingestRequest(fn, request);
}

void
Platform::ingestRequest(FunctionId fn, RequestIndex request)
{
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    f.metrics.recordArrival(now);
    total_.recordArrival(now);
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
    bool pack = packRouting();
    bool one_to_one = oneToOne();
    LiveScan scan;
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (!rt.queue.hasRoom())
            continue;
        if (admission) {
            // Predicted sojourn: cold-start remainder + batches queued
            // ahead + its own batch. Draining instances still serve
            // queued work (routing falls back to them during
            // make-before-break reconfigs), so they count as capacity
            // here; excluding them sheds a full reconfig wave.
            scan.anyRoom = true;
            sim::Tick ready =
                rt.warmAt == sim::kTickNever
                    ? std::max<sim::Tick>(0, rt.warmExpectedAt - now)
                    : 0;
            auto per_batch = static_cast<sim::Tick>(
                std::max(1, rt.queue.batchSize()));
            sim::Tick batches_ahead =
                static_cast<sim::Tick>(rt.queue.size()) / per_batch +
                (rt.inst.state() == cluster::InstanceState::Busy ? 1 : 0);
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
            // capacity. Budget exhaustion inside failoverRequest yields
            // the (single) drop.
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

    std::vector<RequestIndex> batch = rt.queue.takeBatch();
    int fill = static_cast<int>(batch.size());
    sim::Tick exec_time = execCache_.trueTicks(
        exec_, *f.model, fill, rt.inst.config().resources);
    // Health scoring judges actual exec against this healthy baseline
    // for the same model + config, so heterogeneous configs compare
    // fairly and the gray/straggler surcharge is what stands out.
    sim::Tick base_exec = exec_time;
    if (!grayMult_.empty()) {
        double mult = grayMultiplier(rt.inst.serverId());
        if (mult != 1.0) {
            exec_time = static_cast<sim::Tick>(
                std::llround(static_cast<double>(exec_time) * mult));
        }
    }
    if (faults_)
        exec_time = faults_->stretchExec(exec_time);
    if (health_)
        health_->recordExec(rt.inst.serverId(), base_exec, exec_time);

    rt.inst.startBatch(now, fill);
    // Latency attribution: snapshot when the executor became available
    // to this batch (it last went idle); the gap up to `now` is batch
    // formation — waiting for fill or the head deadline.
    rt.batchAvailAt = rt.idleSince == sim::kTickNever ? now : rt.idleSince;
    rt.idleSince = sim::kTickNever;
    rt.inFlight.assign(batch.begin(), batch.end());
    f.metrics.recordBatch(fill);
    total_.recordBatch(fill);
    f.usage[rt.usageKey].requestsServed += fill;

    if (rt.timeoutEvent != sim::kNoEvent) {
        sim_.events().cancel(rt.timeoutEvent);
        rt.timeoutEvent = sim::kNoEvent;
    }
    if (rt.expiryEvent != sim::kNoEvent && !rt.fastReap) {
        sim_.events().cancel(rt.expiryEvent);
        rt.expiryEvent = sim::kNoEvent;
    }

    // The completion event is on the non-cancellable fast path; the epoch
    // guard dead-letters it when a crash kills the instance mid-batch.
    std::uint32_t epoch = rt.liveEpoch;
    auto completion =
        [this, idx, epoch, batch = std::move(batch), now, exec_time] {
            if (instances_[idx].liveEpoch != epoch)
                return; // instance crashed while the batch was running
            onBatchComplete(idx, batch, now, exec_time);
        };
    // The busiest closure of a drain: it must stay on the event queue's
    // allocation-free inline path.
    static_assert(
        sim::EventQueue::Callback::fitsInline<decltype(completion)>,
        "batch-completion closure outgrew the event queue inline buffer");
    sim_.afterFixed(exec_time, std::move(completion));
}

void
Platform::onBatchComplete(std::size_t idx, std::vector<RequestIndex> batch,
                          sim::Tick started, sim::Tick exec_time)
{
    instances_[idx].inst.finishBatch(sim_.now());
    instances_[idx].inFlight.clear();
    instances_[idx].idleSince = sim_.now();
    if (health_)
        health_->recordSuccess(instances_[idx].inst.serverId());
    for (RequestIndex request : batch)
        completeRequest(idx, request, started, exec_time);

    // Re-resolve after completeRequest: completing requests can launch
    // replacement instances and reallocate instances_ underneath any
    // reference taken before the loop.
    InstanceRuntime &rt = instances_[idx];
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

    const overload::OverloadConfig &oc = opts_.overload;
    if (oc.breaker.enabled || oc.brownout.enabled ||
        oc.retryBudget.enabled) {
        // Health feedback is judged against the *effective* SLO and only
        // on the serving path (queue + exec): while brownout holds the
        // degraded envelope, completions inside it must count as
        // successes or the breaker can never close, and a cold-start
        // wait is a provisioning event (admission's domain), not
        // evidence that warm servers are overloaded. Reported metrics
        // above stay pinned to the nominal SLO and full latency.
        sim::Tick health_slo = effectiveSlo(f);
        sim::Tick serving = parts.total() - parts.coldStart;
        bool violated = health_slo > 0 && serving > health_slo;
        if (oc.breaker.enabled) {
            f.breaker.record(sim_.now(), violated);
            noteBreakerTransitions(record.function, sim_.now());
        }
        if (oc.brownout.enabled) {
            f.brownout.record(sim_.now(), violated);
            noteBrownoutTransition(record.function, sim_.now());
        }
        if (oc.retryBudget.enabled)
            f.retryBudget.onSuccess();
    }

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
        f.metrics.recordFailover();
        total_.recordFailover();
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

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void
Platform::armTimeout(std::size_t idx)
{
    InstanceRuntime &rt = instances_[idx];
    if (rt.timeoutEvent != sim::kNoEvent) {
        sim_.events().cancel(rt.timeoutEvent);
        rt.timeoutEvent = sim::kNoEvent;
    }
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
Platform::armExpiry(std::size_t idx)
{
    InstanceRuntime &rt = instances_[idx];
    if (rt.expiryEvent != sim::kNoEvent) {
        sim_.events().cancel(rt.expiryEvent);
        rt.expiryEvent = sim::kNoEvent;
    }
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
            f.metrics.recordStartupFailure();
            total_.recordStartupFailure();
            ++aborted;
        }
    }
    sim::Tick max_wait =
        std::max<sim::Tick>(0, effectiveSlo(f) - plan.execPredicted);

    std::size_t idx = instances_.size();
    instances_.push_back(InstanceRuntime{
        cluster::Instance(nextInstanceId_++, f.spec.name, plan.config,
                          plan.server, now, cold),
        BatchQueue(plan.config.batchSize, max_wait,
                   opts_.overload.queue.depthCap),
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
    f.allocated += plan.config.resources;
    f.metrics.recordLaunch(cold);
    total_.recordLaunch(cold);
    f.metrics.recordAllocation(now, f.allocated);
    f.metrics.recordInstanceCount(now, static_cast<int>(f.live.size()));
    total_.recordInstanceCount(now, liveInstanceCount());
    recordAllocationChange();

    sim_.afterFixed(startup, [this, idx] { onWarm(idx); });
    return idx;
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
    if (rt.timeoutEvent != sim::kNoEvent) {
        sim_.events().cancel(rt.timeoutEvent);
        rt.timeoutEvent = sim::kNoEvent;
    }
    if (rt.expiryEvent != sim::kNoEvent) {
        sim_.events().cancel(rt.expiryEvent);
        rt.expiryEvent = sim::kNoEvent;
    }

    rt.inst.reap(now);
    cluster_.release(rt.inst.serverId(), rt.inst.config().resources);
    f.allocated -= rt.inst.config().resources;
    std::erase(f.live, idx);

    f.metrics.recordAllocation(now, f.allocated);
    f.metrics.recordInstanceCount(now, static_cast<int>(f.live.size()));
    total_.recordInstanceCount(now, liveInstanceCount());
    recordAllocationChange();

    if (f.live.empty())
        maybePrewarm(rt.fn);
}

void
Platform::killInstance(std::size_t idx)
{
    sim::Tick now = sim_.now();
    InstanceRuntime &rt = instances_[idx];
    FunctionId fn = rt.fn;
    FunctionState &f = functionState(fn);

    // Dead-letter the (non-cancellable) batch-completion event, if any.
    ++rt.liveEpoch;
    std::vector<RequestIndex> stranded = rt.queue.drain();
    std::vector<RequestIndex> inflight = std::move(rt.inFlight);
    rt.inFlight.clear();

    if (rt.timeoutEvent != sim::kNoEvent) {
        sim_.events().cancel(rt.timeoutEvent);
        rt.timeoutEvent = sim::kNoEvent;
    }
    if (rt.expiryEvent != sim::kNoEvent) {
        sim_.events().cancel(rt.expiryEvent);
        rt.expiryEvent = sim::kNoEvent;
    }

    rt.inst.crash(now);
    // A lost in-flight batch is a serving failure of this server; an
    // idle instance dying with the machine is not evidence either way.
    if (health_ && !inflight.empty())
        health_->recordFailure(rt.inst.serverId());
    cluster_.release(rt.inst.serverId(), rt.inst.config().resources);
    f.allocated -= rt.inst.config().resources;
    std::erase(f.live, idx);

    f.metrics.recordAllocation(now, f.allocated);
    f.metrics.recordInstanceCount(now, static_cast<int>(f.live.size()));
    total_.recordInstanceCount(now, liveInstanceCount());
    recordAllocationChange();

    if (!inflight.empty()) {
        f.metrics.recordLostBatch(static_cast<int>(inflight.size()));
        total_.recordLostBatch(static_cast<int>(inflight.size()));
    }
    for (RequestIndex request : inflight)
        failoverRequest(fn, request);
    for (RequestIndex request : stranded)
        failoverRequest(fn, request);

    if (functionState(fn).live.empty())
        maybePrewarm(fn);
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
    f.metrics.recordDrop(now);
    total_.recordDrop(now);
    const RequestRecord &record = requests_[request];
    if (feed_health) {
        // A drop of an admitted request is a failure signal; sheds come
        // through with feed_health off so an open breaker's own rejects
        // cannot keep it open forever. Drops while cold capacity is
        // still warming are a provisioning artifact, not evidence the
        // warm servers are failing, so they bypass the breaker (but
        // still count as brownout pressure — engaging during a scale-up
        // storm is exactly brownout's job).
        if (opts_.overload.breaker.enabled && !coldCapacityPending(f)) {
            f.breaker.record(now, true);
            noteBreakerTransitions(record.function, now);
        }
        if (opts_.overload.brownout.enabled) {
            f.brownout.record(now, true);
            noteBrownoutTransition(record.function, now);
        }
    }
    if (monitor_.enabled())
        monitor_.recordDrop(record.function, now);
    emitSpan(obs::SpanKind::Drop, request, record.function, -1, -1, now,
             0);
    if (record.chain != kNoChain) {
        chains_[static_cast<std::size_t>(record.chain)].metrics.recordDrop(
            now);
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
    if (opts_.overload.retryBudget.enabled &&
        !f.retryBudget.tryConsume()) {
        // Budget dry: the function is not completing enough work to pay
        // for re-dispatch. Fail fast instead of storming the cluster.
        f.metrics.recordRetryBudgetExhausted();
        total_.recordRetryBudgetExhausted();
        dropRequest(f, request, now);
        return;
    }
    ++rec.retries;
    rec.retried = true;
    f.metrics.recordRetry(now);
    total_.recordRetry(now);
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

sim::Tick
Platform::effectiveSlo(const FunctionState &f) const
{
    if (!opts_.overload.brownout.enabled ||
        !f.brownout.relaxing(sim_.now()))
        return f.spec.sloTicks;
    return static_cast<sim::Tick>(static_cast<double>(f.spec.sloTicks) *
                                  f.brownout.sloMultiplier());
}

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
    if (plans.empty())
        ++f.scaleOutMisses;
    else
        refreshTargets(f);
    return true;
}

bool
Platform::admitRequest(FunctionId fn, RequestIndex request)
{
    if (!opts_.overload.breaker.enabled)
        return true;
    sim::Tick now = sim_.now();
    FunctionState &f = functionState(fn);
    bool allowed = f.breaker.allow(now, request);
    noteBreakerTransitions(fn, now);
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
    double slack = static_cast<double>(effectiveSlo(f)) *
                   opts_.overload.admission.slackFactor;
    if (static_cast<double>(scan.admitBest) <= slack)
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
    switch (cause) {
      case ShedCause::Breaker:
        f.metrics.recordBreakerShed(now);
        total_.recordBreakerShed(now);
        break;
      case ShedCause::Admission:
        f.metrics.recordShed(now);
        total_.recordShed(now);
        break;
    }
    if (opts_.overload.brownout.enabled) {
        // Shedding is itself overload pressure: it keeps brownout engaged
        // while the admission gate is working hard.
        f.brownout.record(now, true);
        noteBrownoutTransition(record.function, now);
    }
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
    f.metrics.recordQueueEviction();
    total_.recordQueueEviction();
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
Platform::noteBreakerTransitions(FunctionId fn, sim::Tick now)
{
    FunctionState &f = functionState(fn);
    const auto &log = f.breaker.transitions();
    for (std::size_t i = f.breakerTransitionsSeen; i < log.size(); ++i) {
        const overload::BreakerTransition &t = log[i];
        if (t.to == overload::BreakerState::Open) {
            f.metrics.recordBreakerOpen();
            total_.recordBreakerOpen();
        } else if (t.to == overload::BreakerState::Closed) {
            f.metrics.recordBreakerClose();
            total_.recordBreakerClose();
        }
        obs::SpanKind kind =
            t.to == overload::BreakerState::Open
                ? obs::SpanKind::BreakerOpen
                : t.to == overload::BreakerState::HalfOpen
                      ? obs::SpanKind::BreakerHalfOpen
                      : obs::SpanKind::BreakerClose;
        emitFunctionEvent(kind, fn, t.at);
        // An opening breaker is an anomaly: freeze the flight dump
        // (after the transition span so the dump contains it).
        if (t.to == overload::BreakerState::Open)
            flight_.trigger(obs::FlightTrigger::BreakerOpen, t.at);
    }
    f.breakerTransitionsSeen = log.size();
    (void)now;
}

void
Platform::noteBrownoutTransition(FunctionId fn, sim::Tick now)
{
    FunctionState &f = functionState(fn);
    bool active = f.brownout.active();
    if (active == f.lastBrownoutActive)
        return;
    f.lastBrownoutActive = active;
    if (active) {
        f.metrics.recordBrownoutEntry();
        total_.recordBrownoutEntry();
    } else {
        f.metrics.recordBrownoutExit();
        total_.recordBrownoutExit();
    }
    emitFunctionEvent(active ? obs::SpanKind::BrownoutEnter
                             : obs::SpanKind::BrownoutExit,
                      fn, now);
    // Re-aim live queue deadlines at the new effective SLO so the
    // batching slack relaxes (and later restores) without waiting for
    // fleet turnover.
    for (std::size_t idx : f.live) {
        InstanceRuntime &rt = instances_[idx];
        rt.queue.setMaxWait(std::max<sim::Tick>(
            0, effectiveSlo(f) - rt.execPredicted));
        if (!rt.queue.empty())
            armTimeout(idx);
    }
}

OverloadSnapshot
Platform::overloadSnapshot(FunctionId fn) const
{
    const FunctionState &f =
        const_cast<Platform *>(this)->functionState(fn);
    OverloadSnapshot snap;
    snap.breakerState = f.breaker.state();
    snap.brownoutActive = f.brownout.active();
    snap.retryTokens = f.retryBudget.tokens();
    snap.sheds = f.metrics.sheds();
    snap.breakerSheds = f.metrics.breakerSheds();
    snap.queueEvictions = f.metrics.queueEvictions();
    snap.retryBudgetExhausted = f.metrics.retryBudgetExhausted();
    return snap;
}

bool
Platform::auditConservation(std::string *diagnostic) const
{
    bool ok = true;
    std::int64_t total_in_flight = 0;
    for (std::size_t fi = 0; fi < functions_.size(); ++fi) {
        const FunctionState &f = functions_[fi];
        std::int64_t queued = 0;
        std::int64_t executing = 0;
        for (std::size_t idx : f.live) {
            const InstanceRuntime &rt = instances_[idx];
            queued += static_cast<std::int64_t>(rt.queue.size());
            executing += static_cast<std::int64_t>(rt.inFlight.size());
        }
        std::int64_t in_flight =
            queued + executing + f.pendingRetries + f.pendingIngress;
        total_in_flight += in_flight;
        std::int64_t arrivals = f.metrics.arrivals();
        std::int64_t settled =
            f.metrics.completions() + f.metrics.drops();
        if (arrivals == settled + in_flight)
            continue;
        ok = false;
        if (diagnostic) {
            *diagnostic +=
                "function " + std::to_string(fi) + " (" + f.spec.name +
                "): arrivals=" + std::to_string(arrivals) +
                " completions=" + std::to_string(f.metrics.completions()) +
                " drops=" + std::to_string(f.metrics.drops()) +
                " in-flight=" + std::to_string(in_flight) + " (queued=" +
                std::to_string(queued) + ", executing=" +
                std::to_string(executing) + ", retry-wait=" +
                std::to_string(f.pendingRetries) + ", ingress-wait=" +
                std::to_string(f.pendingIngress) + ") leak=" +
                std::to_string(arrivals - settled - in_flight) + "\n";
        }
    }
    if (requests_.live() != total_in_flight) {
        ok = false;
        if (diagnostic) {
            *diagnostic += "request table: live records=" +
                           std::to_string(requests_.live()) +
                           " in-flight=" + std::to_string(total_in_flight) +
                           "\n";
        }
    }
    return ok;
}

void
Platform::injectServerCrash(cluster::ServerId id)
{
    if (cluster_.server(id).isDown())
        return; // double crash: already down
    sim::Tick now = sim_.now();
    cluster_.setServerDown(id);
    serverDownSince_[static_cast<std::size_t>(id)] = now;
    total_.recordServerCrash(now);
    emitClusterEvent(obs::SpanKind::ServerCrash, id, now);
    // A crash is an anomaly: freeze the flight dump (after the crash
    // span so the dump contains it).
    flight_.trigger(obs::FlightTrigger::ServerCrash, now);

    for (std::size_t idx : liveInstancesOn(id))
        killInstance(idx);
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
Platform::injectServerRecovery(cluster::ServerId id)
{
    if (!cluster_.server(id).isDown())
        return; // never crashed, or recovered already
    sim::Tick now = sim_.now();
    cluster_.setServerUp(id);
    emitClusterEvent(obs::SpanKind::ServerRecovery, id, now);
    sim::Tick &since = serverDownSince_[static_cast<std::size_t>(id)];
    if (since != sim::kTickNever) {
        serverDownAccum_ += now - since;
        total_.recordServerRecovery(now - since);
        since = sim::kTickNever;
    }
}

double
Platform::clusterAvailability() const
{
    sim::Tick until = std::max(endTime_, sim_.now());
    if (until <= 0)
        return 1.0;
    sim::Tick down = serverDownAccum_;
    for (sim::Tick since : serverDownSince_) {
        if (since != sim::kTickNever && since < until)
            down += until - since;
    }
    double total = static_cast<double>(until) *
                   static_cast<double>(cluster_.size());
    return 1.0 - static_cast<double>(down) / total;
}

void
Platform::injectDomainOutage(cluster::DomainId zone)
{
    noteDomainOutage(zone, sim_.now());
    // injectServerCrash is idempotent.
    for (std::size_t s = 0; s < cluster_.size(); ++s) {
        auto id = static_cast<cluster::ServerId>(s);
        if (cluster_.serverDomain(id).zone == zone)
            injectServerCrash(id);
    }
}

void
Platform::injectDomainRepair(cluster::DomainId zone)
{
    noteDomainRepair(zone, sim_.now());
    for (std::size_t s = 0; s < cluster_.size(); ++s) {
        auto id = static_cast<cluster::ServerId>(s);
        if (cluster_.serverDomain(id).zone == zone)
            injectServerRecovery(id);
    }
}

void
Platform::noteDomainOutage(cluster::DomainId zone, sim::Tick at)
{
    total_.recordDomainOutage();
    // Cluster instants carry a server id; a domain instant carries the
    // zone id there instead (the kind disambiguates in the trace).
    emitClusterEvent(obs::SpanKind::DomainOutage, zone, at);
    // After the span so the frozen dump contains the outage marker.
    flight_.trigger(obs::FlightTrigger::DomainOutage, at);
}

void
Platform::noteDomainRepair(cluster::DomainId zone, sim::Tick at)
{
    emitClusterEvent(obs::SpanKind::DomainRepair, zone, at);
}

void
Platform::assignServerDomain(cluster::ServerId local_id,
                             cluster::ServerId global_id)
{
    if (!opts_.topology.enabled())
        return;
    cluster_.setServerDomain(local_id, opts_.topology.domainOf(global_id));
}

double
Platform::grayMultiplier(cluster::ServerId id) const
{
    auto i = static_cast<std::size_t>(id);
    return i < grayMult_.size() ? grayMult_[i] : 1.0;
}

void
Platform::setGrayMultiplier(cluster::ServerId id, double mult)
{
    auto i = static_cast<std::size_t>(id);
    if (grayMult_.size() <= i)
        grayMult_.resize(i + 1, 1.0);
    grayMult_[i] = mult;
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
        total_.recordHealthReadmission();
        emitClusterEvent(obs::SpanKind::HealthReadmission, id, now);
    }
    for (cluster::ServerId id : acts.eject) {
        cluster_.quarantineServer(id);
        // Drain-first: what the server hosts finishes or re-routes; only
        // new placements are refused.
        drainServer(id);
        total_.recordHealthEjection();
        if (grayMultiplier(id) > 1.0) {
            // Ground-truth check for the detection-quality counter: the
            // ejector itself never sees this.
            total_.recordGrayDetection();
        }
        emitClusterEvent(obs::SpanKind::HealthEjection, id, now);
    }
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
                opts_.scheduler.beta);
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

        bool browned_out = false;
        if (opts_.overload.brownout.enabled) {
            // The completion path only re-evaluates brownout on traffic;
            // this periodic update lets a function whose load vanished
            // recover once the hold expires.
            f.brownout.update(now);
            noteBrownoutTransition(static_cast<FunctionId>(fi), now);
            browned_out = f.brownout.active();
        }

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
                opts_.scheduler.beta));
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
            if (plans.empty()) {
                ++f.scaleOutMisses;
                // Nothing fits next to the current fleet: replacing it
                // with better configurations may be the only way to grow.
                if (reconfigures())
                    maybeReconfigure(static_cast<FunctionId>(fi), measured);
            }
        } else if (assess.action == Action::ScaleIn && activeScaleIn()) {
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
        } else if (assess.action == Action::Hold && reconfigures()) {
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
            opts_.scheduler.beta);
        cur_up += rt.bounds.up;
        have_old = true;
    }
    if (cur_up <= 0.0 || !have_old)
        return;

    // What would Algorithm 1 provision for the measured rate on an empty
    // cluster? (The old fleet may occupy most of the machines, so the
    // ideal is evaluated on an empty copy.)
    auto ideal = scheduler_.scheduleOnEmpty(*f.model, measured,
                                            f.spec.sloTicks,
                                            f.spec.maxBatch, cluster_);
    double ideal_cost = 0.0;
    double ideal_up = 0.0;
    for (const auto &plan : ideal) {
        ideal_cost += plan.config.resources.weighted(opts_.scheduler.beta);
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
                                  opts_.scheduler.beta);
                  double eb = rb.bounds.up /
                              rb.inst.config().resources.weighted(
                                  opts_.scheduler.beta);
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
    // Always plan against the nominal SLO, even under brownout: configs
    // picked for the degraded envelope would keep violating the nominal
    // SLO long after brownout exits (instances linger until the next
    // reconfig). Brownout instead relaxes queue max-wait, which the
    // exit path re-aims instantly.
    SpreadContext spread = spreadContextFor(f);
    return scheduler_.schedule(*f.model, residual_rps, f.spec.sloTicks,
                               f.spec.maxBatch, cluster_,
                               spreadArg(spread));
}

SpreadContext
Platform::spreadContextFor(const FunctionState &f) const
{
    SpreadContext ctx;
    ctx.weight = opts_.scheduler.spreadWeight;
    if (ctx.weight <= 0.0)
        return ctx;
    for (std::size_t idx : f.live) {
        const InstanceRuntime &rt = instances_[idx];
        if (rt.draining)
            continue;
        ctx.add(cluster_.serverDomain(rt.inst.serverId()));
    }
    return ctx;
}

SpreadContext *
Platform::spreadArg(SpreadContext &ctx) const
{
    return ctx.weight > 0.0 ? &ctx : nullptr;
}

void
Platform::recordAllocationChange()
{
    sim::Tick now = sim_.now();
    total_.recordAllocation(now, cluster_.totalAllocated());
    fragRatio_.update(now, cluster_.fragmentRatio(opts_.scheduler.beta));
}

} // namespace infless::core
