#include "core/sharded_platform.hh"

#include <algorithm>
#include <utility>

#include "cluster/cell_partition.hh"
#include "sim/logging.hh"

namespace infless::core {

namespace {

/** Distinct substream keys off the run seed (arbitrary constants). */
constexpr std::uint64_t kCellSeedKey = 0xCE11'0000ULL;
constexpr std::uint64_t kRouterSeedKey = 0xF00D'D1CEULL;
constexpr std::uint64_t kWorkloadSeedKey = 0x3AFE'57A7ULL;

using FeedHead = std::pair<sim::Tick, std::size_t>;

/** Restore the min-heap property of @p heap below slot @p i. */
void
siftDown(std::vector<FeedHead> &heap, std::size_t i)
{
    std::size_t n = heap.size();
    FeedHead moving = heap[i];
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
        if (child + 1 < n && heap[child + 1] < heap[child])
            ++child;
        if (!(heap[child] < moving))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = moving;
}

/** Take @p ticks' next arrival, or kTickNever when it has none. */
sim::Tick
takeHead(sim::TickLog &ticks)
{
    return ticks.done(0) ? sim::kTickNever : ticks.take(0).tick;
}

} // namespace

ShardedPlatform::ShardedPlatform(std::size_t num_servers,
                                 PlatformOptions opts, CellOptions cell_opts)
    : cellOpts_(cell_opts),
      workloadRng_(sim::hashCombine(opts.seed, kWorkloadSeedKey))
{
    sim::simAssert(cellOpts_.windowTicks > 0, "window must be positive");
    // partitionServers clamps cells > servers to one server per cell;
    // everything below sizes off the slices, not the request.
    std::vector<cluster::CellSlice> slices =
        cluster::partitionServers(num_servers, cell_opts.cells);
    std::size_t cells = slices.size();
    if (cells > 1) {
        // Each cell numbers its servers from 0, so an option keyed by
        // server id would mean a different server in every cell.
        sim::simAssert(!opts.faults.domainOutagesEnabled(),
                       "a multi-cell platform takes no domain outages");
        sim::simAssert(!opts.faults.grayEnabled(),
                       "a multi-cell platform takes no gray servers");
        sim::simAssert(!opts.topology.enabled(),
                       "a multi-cell platform takes no topology");
    }
    cells_.reserve(cells);
    for (std::size_t c = 0; c < cells; ++c) {
        PlatformOptions cell_opts_c = opts;
        // The single-cell platform keeps the caller's seed untouched so
        // cells=1 reproduces a flat Platform bit for bit.
        if (cells > 1)
            cell_opts_c.seed =
                sim::hashCombine(opts.seed, kCellSeedKey + c);
        cells_.push_back(std::make_unique<Platform>(
            slices[c].size(), std::move(cell_opts_c)));
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
    return fn;
}

void
ShardedPlatform::injectTrace(FunctionId fn, workload::ArrivalTrace trace)
{
    if (delegated()) {
        cells_[0]->injectTrace(fn, std::move(trace));
        return;
    }
    PendingFeed &feed =
        pending_.emplace_back(PendingFeed{fn, sim::TickLog()});
    feed.ticks.append(trace.arrivals());
    feed.head = takeHead(feed.ticks);
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
        // Barrier work runs serially, in cell order: the determinism
        // anchor.
        refreshRouter();
        routeArrivals(w_end, until);
        pool_->parallelFor(cells_.size(), [this, w_end](std::size_t c) {
            injectRouted(c);
            cells_[c]->run(w_end);
        });
        cursor_ = w_end;
    } while (cursor_ < until);
    mergedDirty_ = true;
}

// ---------------------------------------------------------------------------
// Barrier work (serial, cell order — the determinism anchor)
// ---------------------------------------------------------------------------

void
ShardedPlatform::refreshRouter()
{
    std::size_t cells = cells_.size();
    std::size_t fns = functionCount();
    lastMisses_.resize(fns * cells, 0);
    for (std::size_t c = 0; c < cells; ++c) {
        const Platform &p = *cells_[c];
        cluster::CellDigest &d = digests_[c];
        d.weightedAvail =
            p.cluster().totalAvailable().weighted(cluster::kDefaultBeta);
        d.queueDepth = p.queuedRequests();
        // Drop pressure: rejections since the previous barrier (drops,
        // sheds included). It only steers the choice inside a home set;
        // it never grows one, since a healthy cell drops a few percent of
        // a burst while it scales.
        std::int64_t drop_stat = p.totalMetrics().drops();
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
    // One buffer per (function, cell), function-major so deploying more
    // functions only appends; cleared buffers keep their capacity. Sized
    // here, before the workers drain them.
    std::size_t cells = cells_.size();
    routedBuf_.resize(functionCount() * cells);
    // Each feed is sorted, so a k-way merge of the feed heads yields the
    // global arrival order. Ties pop in feed-injection order because the
    // feed index is the second key.
    feedHeap_.clear();
    for (std::size_t f = 0; f < pending_.size(); ++f)
        feedHeap_.emplace_back(pending_[f].head, f);
    for (std::size_t i = feedHeap_.size() / 2; i-- > 0;)
        siftDown(feedHeap_, i);
    while (!feedHeap_.empty()) {
        auto [tick, f] = feedHeap_.front();
        if (tick > window_end || (tick == window_end && !final_window))
            break;
        PendingFeed &feed = pending_[f];
        auto fn = static_cast<std::size_t>(feed.fn);
        std::size_t cell = router_->route(fn);
        routedBuf_[fn * cells + cell].push_back(tick);
        ++routedTotal_[cell];
        // A spent feed's kTickNever sinks below every window end.
        feed.head = takeHead(feed.ticks);
        feedHeap_.front().first = feed.head;
        siftDown(feedHeap_, 0);
    }
    // Spent feeds are dead weight; drop them front-compacted so feed
    // order (the tie-break) is preserved.
    std::size_t keep = 0;
    for (std::size_t f = 0; f < pending_.size(); ++f) {
        if (pending_[f].head == sim::kTickNever)
            continue;
        if (keep != f)
            pending_[keep] = std::move(pending_[f]);
        ++keep;
    }
    pending_.resize(keep);
}

void
ShardedPlatform::injectRouted(std::size_t c)
{
    std::size_t cells = cells_.size();
    for (std::size_t fn = 0; fn * cells < routedBuf_.size(); ++fn) {
        std::vector<sim::Tick> &ticks = routedBuf_[fn * cells + c];
        if (ticks.empty())
            continue;
        cells_[c]->injectTrace(static_cast<FunctionId>(fn),
                               workload::ArrivalTrace(ticks));
        ticks.clear();
    }
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

const Platform &
ShardedPlatform::cell(std::size_t i) const
{
    sim::simAssert(i < cells_.size(), "bad cell index ", i);
    return *cells_[i];
}

std::int64_t
ShardedPlatform::routedTo(std::size_t i) const
{
    sim::simAssert(i < routedTotal_.size(), "bad cell index ", i);
    return routedTotal_[i];
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
