#include "core/platform.hh"

#include <algorithm>
#include <utility>

#include "coldstart/lsth.hh"
#include "sim/logging.hh"

namespace infless::core {

Platform::Platform(std::size_t num_servers, PlatformOptions opts)
    : Platform(cluster::Cluster(num_servers), std::move(opts))
{
}

Platform::Platform(cluster::Cluster machines, PlatformOptions opts)
    : sim_(opts.seed), cluster_(std::move(machines)),
      zoo_(models::ModelZoo::shared()), exec_(opts.exec),
      profileDb_(exec_), predictor_(profileDb_, opts.cop),
      scheduler_(predictor_, opts.scheduler), opts_(std::move(opts))
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

    // Mispredicted-profile fault: distort the latency surface the
    // controllers see. Execution pricing (execCache_ over exec_) never
    // goes through the predictor, so ground truth is intact.
    predictor_.setDistortion(opts_.faults.profileErrorFactor);

    sim::simAssert(opts_.faults.grayFraction >= 0.0 &&
                       opts_.faults.grayFraction <= 1.0,
                   "gray fraction out of [0,1]");
    sim::simAssert(opts_.faults.grayFactor >= 1.0,
                   "gray factor must be >= 1");
    if (opts_.faults.grayEnabled()) {
        grayMult_.resize(cluster_.size(), 1.0);
        for (std::size_t s = 0; s < cluster_.size(); ++s) {
            grayMult_[s] = faults::grayExecMultiplier(
                opts_.faults, opts_.seed,
                static_cast<cluster::ServerId>(s));
        }
    }
    if (opts_.health.enabled) {
        health_ = std::make_unique<health::OutlierEjector>();
        health_->ensureServers(cluster_.size());
        healthHandle_ =
            sim_.every(health::kHealthEvalPeriod, [this] { healthTick(); });
    }
    if (opts_.faults.enabled()) {
        // A disabled topology has no zones, so domain outages on it are
        // rejected instead of crashing nothing.
        faults_ = std::make_unique<faults::FaultInjector>(
            sim_, opts_.faults, opts_.seed, cluster_.size(),
            opts_.topology.enabled() ? opts_.topology.zones : 0);
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
    sim::simAssert(until >= sim_.now(), "run() must move time forward");
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

OverloadSnapshot
Platform::overloadSnapshot(FunctionId fn) const
{
    const FunctionState &f =
        const_cast<Platform *>(this)->functionState(fn);
    return OverloadSnapshot{f.breaker.state(), f.brownout.active()};
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
    if (cluster_.serverDown(id))
        return; // double crash: already down
    sim::Tick now = sim_.now();
    cluster_.setServerDown(id);
    serverDownSince_.emplace(id, now);
    total_.add(metrics::Counter::ServerCrashes);
    emitClusterEvent(obs::SpanKind::ServerCrash, id, now);
    // A crash is an anomaly: freeze the flight dump (after the crash
    // span so the dump contains it).
    flight_.trigger(obs::FlightTrigger::ServerCrash, now);

    for (std::size_t idx : liveInstancesOn(id))
        killInstance(idx);
}

void
Platform::injectServerRecovery(cluster::ServerId id)
{
    if (!cluster_.serverDown(id))
        return; // never crashed, or recovered already
    sim::Tick now = sim_.now();
    cluster_.setServerUp(id);
    emitClusterEvent(obs::SpanKind::ServerRecovery, id, now);
    auto it = serverDownSince_.find(id);
    if (it != serverDownSince_.end()) {
        serverDownAccum_ += now - it->second;
        total_.recordServerRecovery(now - it->second);
        serverDownSince_.erase(it);
    }
}

double
Platform::clusterAvailability() const
{
    sim::Tick until = std::max(endTime_, sim_.now());
    if (until <= 0)
        return 1.0;
    // Integer ticks: the sum is exact in any order, so only the servers
    // down right now are visited.
    sim::Tick down = serverDownAccum_;
    for (const auto &[id, since] : serverDownSince_) {
        if (since < until)
            down += until - since;
    }
    double total = static_cast<double>(until) *
                   static_cast<double>(cluster_.size());
    return 1.0 - static_cast<double>(down) / total;
}

void
Platform::injectDomainOutage(cluster::DomainId zone)
{
    sim::Tick now = sim_.now();
    total_.add(metrics::Counter::DomainOutages);
    // Cluster instants carry a server id; a domain instant carries the
    // zone id there instead (the kind disambiguates in the trace).
    emitClusterEvent(obs::SpanKind::DomainOutage, zone, now);
    // After the span so the frozen dump contains the outage marker.
    flight_.trigger(obs::FlightTrigger::DomainOutage, now);
    // injectServerCrash is idempotent.
    for (std::size_t s = 0; s < cluster_.size(); ++s) {
        auto id = static_cast<cluster::ServerId>(s);
        if (opts_.topology.domainOf(id).zone == zone)
            injectServerCrash(id);
    }
}

void
Platform::injectDomainRepair(cluster::DomainId zone)
{
    emitClusterEvent(obs::SpanKind::DomainRepair, zone, sim_.now());
    for (std::size_t s = 0; s < cluster_.size(); ++s) {
        auto id = static_cast<cluster::ServerId>(s);
        if (opts_.topology.domainOf(id).zone == zone)
            injectServerRecovery(id);
    }
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
    sim::simAssert(id >= 0 &&
                       static_cast<std::size_t>(id) < cluster_.size(),
                   "gray multiplier for unknown server ", id);
    sim::simAssert(mult >= 1.0, "gray multiplier must be >= 1");
    grayMult_.resize(cluster_.size(), 1.0);
    grayMult_[static_cast<std::size_t>(id)] = mult;
}

} // namespace infless::core
