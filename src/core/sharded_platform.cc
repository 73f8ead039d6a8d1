#include "core/sharded_platform.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace infless::core {

namespace {

/** Distinct substream keys off the run seed (arbitrary constants). */
constexpr std::uint64_t kCellSeedKey = 0xCE11'0000ULL;
constexpr std::uint64_t kRouterSeedKey = 0xF00D'D1CEULL;
constexpr std::uint64_t kWorkloadSeedKey = 0x3AFE'57A7ULL;

} // namespace

ShardedPlatform::ShardedPlatform(std::size_t num_servers,
                                 PlatformOptions opts, CellOptions cell_opts)
    : numServers_(num_servers), cellOpts_(cell_opts),
      beta_(opts.scheduler.beta),
      slices_(cluster::partitionServers(num_servers, cell_opts.cells)),
      workloadRng_(sim::hashCombine(opts.seed, kWorkloadSeedKey))
{
    sim::simAssert(cellOpts_.windowTicks > 0, "window must be positive");
    // partitionServers clamps cells > servers to one server per cell;
    // everything below sizes off the slices, not the request.
    std::size_t cells = slices_.size();
    cells_.reserve(cells);
    for (std::size_t c = 0; c < cells; ++c) {
        PlatformOptions cell_opts_c = opts;
        // The single-cell platform keeps the caller's seed untouched so
        // cells=1 reproduces a flat Platform bit for bit.
        if (cells > 1) {
            cell_opts_c.seed =
                sim::hashCombine(opts.seed, kCellSeedKey + c);
            // Correlated outages are a FLEET property: the root stream
            // below drives them; a per-cell stream would sample local
            // zones with per-cell seeds and splinter the schedule.
            cell_opts_c.faults.domainOutageMtbfSec = 0.0;
            cell_opts_c.faults.domainOutageAt = sim::kTickNever;
        }
        cells_.push_back(std::make_unique<Platform>(
            slices_[c].size(), std::move(cell_opts_c)));
    }
    topology_ = opts.topology;
    if (!delegated() &&
        (opts.topology.enabled() || opts.faults.grayEnabled())) {
        // Each cell self-assigned domains and gray multipliers from its
        // LOCAL ids and per-cell seed; both are global-id properties, so
        // re-derive them from the root view.
        for (std::size_t c = 0; c < cells; ++c) {
            for (std::size_t g = slices_[c].begin; g < slices_[c].end;
                 ++g) {
                auto global = static_cast<cluster::ServerId>(g);
                auto local =
                    static_cast<cluster::ServerId>(g - slices_[c].begin);
                cells_[c]->assignServerDomain(local, global);
                if (opts.faults.grayEnabled())
                    cells_[c]->setGrayMultiplier(
                        local, faults::grayExecMultiplier(
                                   opts.faults, opts.seed, global));
            }
        }
    }
    if (!delegated() && opts.faults.domainOutagesEnabled()) {
        domainStream_ = std::make_unique<faults::DomainOutageStream>(
            opts.faults, opts.seed, opts.topology.zones);
        pendingOutage_ = domainStream_->next();
    }
    router_ = std::make_unique<cluster::CellRouter>(
        cells, sim::hashCombine(opts.seed, kRouterSeedKey));
    digests_.resize(cells);
    lastDropStat_.assign(cells, 0);
    routedTotal_.assign(cells, 0);
    if (!delegated()) {
        std::size_t threads = cellOpts_.threads != 0
                                  ? cellOpts_.threads
                                  : sim::WorkerPool::defaultThreads();
        pool_ = std::make_unique<sim::WorkerPool>(
            std::min(threads, cells));
        mergedSlo_.configure(opts.obs.slo);
        mergedSlo_.setCellCount(cells);
    }
}

ShardedPlatform::~ShardedPlatform() = default;

FunctionId
ShardedPlatform::deploy(const FunctionSpec &spec)
{
    FunctionId fn = cells_[0]->deploy(spec);
    for (std::size_t c = 1; c < cells_.size(); ++c) {
        FunctionId other = cells_[c]->deploy(spec);
        sim::simAssert(other == fn, "cells disagree on function id");
    }
    if (!delegated())
        mergedSlo_.registerFunction(fn, spec.sloTicks);
    return fn;
}

void
ShardedPlatform::injectTrace(FunctionId fn, workload::ArrivalTrace trace)
{
    if (delegated()) {
        cells_[0]->injectTrace(fn, std::move(trace));
        return;
    }
    pending_.push_back(PendingFeed{fn, sim::TickLog()});
    pending_.back().ticks.append(trace.arrivals());
}

void
ShardedPlatform::injectRateSeries(FunctionId fn,
                                  const workload::RateSeries &series)
{
    if (delegated()) {
        cells_[0]->injectRateSeries(fn, series);
        return;
    }
    sim::Rng rng =
        workloadRng_.fork(static_cast<std::uint64_t>(fn) + 0x77);
    injectTrace(fn, workload::ArrivalTrace::fromRateSeries(series, rng));
}

void
ShardedPlatform::run(sim::Tick until)
{
    endTime_ = until;
    if (delegated()) {
        cells_[0]->run(until);
        return;
    }
    sim::simAssert(until >= cursor_, "run() must move time forward");
    do {
        sim::Tick w_end = std::min(cursor_ + cellOpts_.windowTicks, until);
        barrier(w_end, until);
        pool_->parallelFor(cells_.size(), [this, w_end](std::size_t c) {
            cells_[c]->run(w_end);
        });
        // Serial in cell order — the same determinism anchor as the
        // barrier — and after every window (including the last) so the
        // cluster health view is complete when run() returns.
        absorbSloHealth();
        cursor_ = w_end;
    } while (cursor_ < until);
    mergedDirty_ = true;
}

void
ShardedPlatform::scheduleServerCrash(cluster::ServerId id, sim::Tick at)
{
    checkServer(id);
    if (delegated()) {
        Platform *p = cells_[0].get();
        p->simulation().at(std::max(at, p->simulation().now()),
                           [p, id] { p->injectServerCrash(id); });
        return;
    }
    faultCommands_.push_back(FaultCommand{id, at, true});
}

void
ShardedPlatform::scheduleServerRecovery(cluster::ServerId id, sim::Tick at)
{
    checkServer(id);
    if (delegated()) {
        Platform *p = cells_[0].get();
        p->simulation().at(std::max(at, p->simulation().now()),
                           [p, id] { p->injectServerRecovery(id); });
        return;
    }
    faultCommands_.push_back(FaultCommand{id, at, false});
}

void
ShardedPlatform::checkServer(cluster::ServerId id) const
{
    sim::simAssert(id >= 0 && static_cast<std::size_t>(id) < numServers_,
                   "bad global server id ", id);
}


// ---------------------------------------------------------------------------
// Barrier work (serial, cell order — the determinism anchor)
// ---------------------------------------------------------------------------

void
ShardedPlatform::barrier(sim::Tick window_end, sim::Tick until)
{
    refreshRouter();
    expandDomainOutages(cursor_);
    applyFaultCommands(cursor_);
    routeArrivals(window_end, until);
}

void
ShardedPlatform::refreshRouter()
{
    std::size_t cells = cells_.size();
    std::size_t fns = functionCount();
    lastMisses_.resize(fns * cells, 0);
    for (std::size_t c = 0; c < cells; ++c) {
        const Platform &p = *cells_[c];
        cluster::CellDigest &d = digests_[c];
        d.weightedAvail = p.cluster().totalAvailable().weighted(beta_);
        d.queueDepth = p.queuedRequests();
        // Drop pressure: rejections since the previous barrier. It only
        // steers the choice inside a home set; it never grows one, since
        // a healthy cell drops a few percent of a burst while it scales.
        const metrics::RunMetrics &m = p.totalMetrics();
        std::int64_t drop_stat = m.drops() + m.sheds() + m.breakerSheds();
        d.dropPressure = drop_stat - lastDropStat_[c];
        lastDropStat_[c] = drop_stat;
        // Scale-out misses since the previous barrier: the cell tried to
        // grow the function and found no room.
        d.scaleOutMisses.resize(fns);
        for (std::size_t fn = 0; fn < fns; ++fn) {
            std::int64_t misses =
                p.scaleOutMisses(static_cast<FunctionId>(fn));
            d.scaleOutMisses[fn] = misses - lastMisses_[fn * cells + c];
            lastMisses_[fn * cells + c] = misses;
        }
    }
    router_->refresh(digests_);
}

void
ShardedPlatform::routeArrivals(sim::Tick window_end, sim::Tick until)
{
    // The last window of a run() is closed ([cursor, until]) because the
    // engines execute events at exactly `until`; interior windows are
    // half-open so a boundary arrival is injected into the window that
    // executes it.
    bool final_window = window_end == until;
    windowArrivals_.clear();
    for (std::size_t f = 0; f < pending_.size(); ++f) {
        sim::TickLog &ticks = pending_[f].ticks;
        while (!ticks.done(0)) {
            sim::Tick tick = ticks.peek(0).tick;
            if (tick > window_end || (tick == window_end && !final_window))
                break;
            windowArrivals_.emplace_back(tick, f);
            ticks.take(0);
        }
    }
    if (windowArrivals_.empty())
        return;
    // Global arrival order; ties keep feed-injection order (the pairs
    // were pushed feed-major and stable_sort preserves that).
    std::stable_sort(windowArrivals_.begin(), windowArrivals_.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    // One buffer per (function, cell), function-major so deploying more
    // functions only appends; cleared buffers keep their capacity.
    std::size_t cells = cells_.size();
    std::size_t fns = functionCount();
    routedBuf_.resize(fns * cells);
    for (const auto &[tick, feed_idx] : windowArrivals_) {
        auto fn = static_cast<std::size_t>(pending_[feed_idx].fn);
        std::size_t cell = router_->route(fn);
        routedBuf_[fn * cells + cell].push_back(tick);
        ++routedTotal_[cell];
    }
    for (std::size_t c = 0; c < cells; ++c) {
        for (std::size_t fn = 0; fn < fns; ++fn) {
            std::vector<sim::Tick> &ticks = routedBuf_[fn * cells + c];
            if (ticks.empty())
                continue;
            cells_[c]->injectTrace(static_cast<FunctionId>(fn),
                                   workload::ArrivalTrace(ticks));
            ticks.clear();
        }
    }
    // Fully consumed feeds are dead weight; drop them front-compacted so
    // feed order (the tie-break) is preserved.
    std::size_t keep = 0;
    for (std::size_t f = 0; f < pending_.size(); ++f) {
        if (pending_[f].ticks.done(0))
            continue;
        if (keep != f)
            pending_[keep] = std::move(pending_[f]);
        ++keep;
    }
    pending_.resize(keep);
}

void
ShardedPlatform::absorbSloHealth()
{
    if (!mergedSlo_.enabled())
        return;
    for (std::size_t c = 0; c < cells_.size(); ++c)
        mergedSlo_.absorb(c, cells_[c]->sloMonitor());
}

void
ShardedPlatform::expandDomainOutages(sim::Tick barrier_tick)
{
    if (!domainStream_)
        return;
    while (pendingOutage_.valid() && pendingOutage_.at <= barrier_tick) {
        const faults::DomainOutageEvent ev = pendingOutage_;
        // One note per outage — counter, DomainOutage trace instant and
        // flight trigger land on cell 0 (the merged metrics sum cells,
        // so noting everywhere would multiply the count). The member
        // crashes ride the regular command path so the owning cells
        // tear down instances exactly like any injected crash.
        cells_[0]->noteDomainOutage(ev.zone, ev.at);
        cells_[0]->noteDomainRepair(ev.zone, ev.repairAt);
        for (std::size_t g = 0; g < numServers_; ++g) {
            auto id = static_cast<cluster::ServerId>(g);
            if (topology_.domainOf(id).zone != ev.zone)
                continue;
            faultCommands_.push_back(FaultCommand{id, ev.at, true});
            faultCommands_.push_back(
                FaultCommand{id, ev.repairAt, false});
        }
        pendingOutage_ = domainStream_->next();
    }
}

void
ShardedPlatform::applyFaultCommands(sim::Tick barrier_tick)
{
    std::size_t keep = 0;
    for (std::size_t i = 0; i < faultCommands_.size(); ++i) {
        const FaultCommand &cmd = faultCommands_[i];
        if (cmd.at > barrier_tick) {
            faultCommands_[keep++] = cmd;
            continue;
        }
        auto [cell, local] = cluster::locateServer(
            slices_, static_cast<std::size_t>(cmd.server));
        auto id = static_cast<cluster::ServerId>(local);
        if (cmd.down)
            cells_[cell]->injectServerCrash(id);
        else
            cells_[cell]->injectServerRecovery(id);
    }
    faultCommands_.resize(keep);
}

// ---------------------------------------------------------------------------
// Merged introspection
// ---------------------------------------------------------------------------

void
ShardedPlatform::rebuildMerged() const
{
    merged_ = metrics::RunMetrics();
    mergedFn_.assign(functionCount(), metrics::RunMetrics());
    for (const auto &cell : cells_) {
        merged_.mergeShard(cell->totalMetrics(), endTime_);
        for (std::size_t fn = 0; fn < mergedFn_.size(); ++fn)
            mergedFn_[fn].mergeShard(
                cell->functionMetrics(static_cast<FunctionId>(fn)),
                endTime_);
    }
    mergedDirty_ = false;
}

const metrics::RunMetrics &
ShardedPlatform::totalMetrics() const
{
    if (delegated())
        return cells_[0]->totalMetrics();
    if (mergedDirty_)
        rebuildMerged();
    return merged_;
}

const metrics::RunMetrics &
ShardedPlatform::functionMetrics(FunctionId fn) const
{
    if (delegated())
        return cells_[0]->functionMetrics(fn);
    if (mergedDirty_)
        rebuildMerged();
    return mergedFn_[static_cast<std::size_t>(fn)];
}

const obs::SloHealthCore &
ShardedPlatform::sloHealth() const
{
    if (delegated())
        return cells_[0]->sloMonitor();
    return mergedSlo_;
}

const obs::FlightRecorder &
ShardedPlatform::flightRecorder() const
{
    std::size_t best = 0;
    for (std::size_t c = 1; c < cells_.size(); ++c) {
        const obs::FlightRecorder &fr = cells_[c]->flightRecorder();
        const obs::FlightRecorder &cur = cells_[best]->flightRecorder();
        if (fr.triggered() &&
            (!cur.triggered() || fr.triggerAt() < cur.triggerAt()))
            best = c;
    }
    return cells_[best]->flightRecorder();
}

OverloadSnapshot
ShardedPlatform::overloadSnapshot(FunctionId fn) const
{
    if (delegated())
        return cells_[0]->overloadSnapshot(fn);
    auto severity = [](overload::BreakerState s) {
        switch (s) {
          case overload::BreakerState::Open:
            return 2;
          case overload::BreakerState::HalfOpen:
            return 1;
          case overload::BreakerState::Closed:
            break;
        }
        return 0;
    };
    OverloadSnapshot snap;
    for (const auto &cell : cells_) {
        OverloadSnapshot s = cell->overloadSnapshot(fn);
        if (severity(s.breakerState) > severity(snap.breakerState))
            snap.breakerState = s.breakerState;
        snap.brownoutActive = snap.brownoutActive || s.brownoutActive;
        snap.retryTokens += s.retryTokens;
        snap.sheds += s.sheds;
        snap.breakerSheds += s.breakerSheds;
        snap.queueEvictions += s.queueEvictions;
        snap.retryBudgetExhausted += s.retryBudgetExhausted;
    }
    return snap;
}

std::uint64_t
ShardedPlatform::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &cell : cells_)
        total += cell->simulation().events().executed();
    return total;
}

std::uint64_t
ShardedPlatform::schedulerDecisions() const
{
    std::uint64_t total = 0;
    for (const auto &cell : cells_)
        total += cell->schedulerDecisions();
    return total;
}

std::int64_t
ShardedPlatform::queuedRequests() const
{
    std::int64_t total = 0;
    for (const auto &cell : cells_)
        total += cell->queuedRequests();
    return total;
}

std::int64_t
ShardedPlatform::inFlightRequests() const
{
    std::int64_t total = 0;
    for (const auto &cell : cells_)
        total += cell->inFlightRequests();
    return total;
}

int
ShardedPlatform::liveInstanceCount() const
{
    int total = 0;
    for (const auto &cell : cells_)
        total += cell->liveInstanceCount();
    return total;
}

} // namespace infless::core
