#include "core/sharded_platform.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "cluster/cell_partition.hh"
#include "sim/logging.hh"

namespace infless::core {

namespace {

/** Distinct substream keys off the run seed (arbitrary constants). */
constexpr std::uint64_t kCellSeedKey = 0xCE11'0000ULL;
constexpr std::uint64_t kHomeSeedKey = 0xF00D'D1CEULL;
constexpr std::uint64_t kWorkloadSeedKey = 0x3AFE'57A7ULL;

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
      workloadRng_(sim::hashCombine(opts.seed, kWorkloadSeedKey)),
      homeSeed_(sim::hashCombine(opts.seed, kHomeSeedKey))
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
    routedTotal_.assign(cells, 0);
    windowRouted_.assign(cells, 0);
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
    if (!delegated()) {
        homes_.push_back(cluster::homeCell(
            homeSeed_, static_cast<std::size_t>(fn), cells_.size()));
        routedBuf_.emplace_back();
    }
    return fn;
}

std::size_t
ShardedPlatform::functionIndex(FunctionId fn) const
{
    sim::simAssert(fn >= 0 && static_cast<std::size_t>(fn) < functionCount(),
                   "bad function id ", fn);
    return static_cast<std::size_t>(fn);
}

void
ShardedPlatform::injectTrace(FunctionId fn, workload::ArrivalTrace trace)
{
    if (delegated()) {
        cells_[0]->injectTrace(fn, std::move(trace));
        return;
    }
    functionIndex(fn); // validate the id
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
        // Barrier work runs serially: the determinism anchor.
        routeArrivals(w_end, until);
        // Busiest cell first, so the longest window is not the last one
        // a worker claims. Each body still touches only its own cell.
        order_.resize(cells_.size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        std::sort(order_.begin(), order_.end(),
                  [this](std::size_t a, std::size_t b) {
                      std::int64_t ra = windowRouted_[a];
                      std::int64_t rb = windowRouted_[b];
                      return ra != rb ? ra > rb : a < b;
                  });
        pool_->parallelFor(order_.size(), [this, w_end](std::size_t i) {
            std::size_t c = order_[i];
            injectRouted(c);
            cells_[c]->run(w_end);
        });
        cursor_ = w_end;
    } while (cursor_ < until);
    mergedDirty_ = true;
}

// ---------------------------------------------------------------------------
// Barrier work (serial — the determinism anchor)
// ---------------------------------------------------------------------------

void
ShardedPlatform::routeArrivals(sim::Tick window_end, sim::Tick until)
{
    // The last window of a run() is closed ([cursor, until]) because the
    // engines execute events at exactly `until`; interior windows are
    // half-open so a boundary arrival is injected into the window that
    // executes it. A spent feed's kTickNever falls in no window.
    bool closed = window_end == until;
    std::fill(windowRouted_.begin(), windowRouted_.end(), 0);
    for (PendingFeed &feed : pending_) {
        slice_.clear();
        while (feed.head < window_end ||
               (closed && feed.head == window_end)) {
            slice_.push_back(feed.head);
            feed.head = takeHead(feed.ticks);
        }
        if (slice_.empty())
            continue;
        auto fn = static_cast<std::size_t>(feed.fn);
        auto n = static_cast<std::int64_t>(slice_.size());
        windowRouted_[homes_[fn]] += n;
        routedTotal_[homes_[fn]] += n;
        std::vector<sim::Tick> &buf = routedBuf_[fn];
        if (buf.empty()) {
            buf.swap(slice_);
        } else {
            // A second feed of the function: ticks carry nothing but
            // their value, so merging the two sorted runs gives the
            // function's arrivals in order.
            auto mid = buf.insert(buf.end(), slice_.begin(), slice_.end());
            std::inplace_merge(buf.begin(), mid, buf.end());
        }
    }
    // Spent feeds are dead weight; drop them front-compacted so feed
    // order is preserved.
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
    for (std::size_t fn = 0; fn < homes_.size(); ++fn) {
        std::vector<sim::Tick> &ticks = routedBuf_[fn];
        if (homes_[fn] != c || ticks.empty())
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
    std::size_t idx = functionIndex(fn);
    if (mergedDirty_)
        rebuildMerged();
    return mergedFn_[idx];
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
