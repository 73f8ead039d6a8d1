#include "core/sharded_platform.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "cluster/cell_partition.hh"
#include "sim/logging.hh"
#include "sim/parallel_for.hh"

namespace infless::core {

namespace {

/** Distinct substream keys off the run seed (arbitrary constants). */
constexpr std::uint64_t kCellSeedKey = 0xCE11'0000ULL;
constexpr std::uint64_t kHomeSeedKey = 0xF00D'D1CEULL;
constexpr std::uint64_t kWorkloadSeedKey = 0x3AFE'57A7ULL;

} // namespace

ShardedPlatform::ShardedPlatform(std::size_t num_servers,
                                 PlatformOptions opts, CellOptions cell_opts)
    : threads_(cell_opts.threads),
      workloadRng_(sim::hashCombine(opts.seed, kWorkloadSeedKey)),
      homeSeed_(sim::hashCombine(opts.seed, kHomeSeedKey))
{
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
    injected_.assign(cells, 0);
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
    homes_.push_back(cluster::homeCell(
        homeSeed_, static_cast<std::size_t>(fn), cells_.size()));
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
    std::size_t home = homeCell(fn);
    injected_[home] += static_cast<std::int64_t>(trace.arrivals().size());
    cells_[home]->injectTrace(fn, std::move(trace));
}

void
ShardedPlatform::injectRateSeries(FunctionId fn,
                                  const workload::RateSeries &series)
{
    // One cell draws from its own stream, as a flat Platform does, so
    // cells=1 stays bit-identical to it.
    if (cells_.size() == 1) {
        cells_[0]->injectRateSeries(fn, series);
        return;
    }
    // The id is checked before the fork, so a rejected call draws
    // nothing.
    sim::Rng rng =
        workloadRng_.fork(static_cast<std::uint64_t>(functionIndex(fn)) +
                          0x77);
    injectTrace(fn, workload::ArrivalTrace::fromRateSeries(series, rng));
}

void
ShardedPlatform::run(sim::Tick until)
{
    // Checked here, so a bad call panics on the caller's thread.
    sim::simAssert(until >= endTime_, "run() must move time forward");
    endTime_ = until;
    // Busiest cell first, so the longest run is not the last one a
    // thread claims. Cells share nothing, so each body touches only its
    // own cell.
    std::vector<std::size_t> order(cells_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return injected_[a] > injected_[b];
                     });
    sim::parallelFor(order.size(), threads_,
                     [this, &order, until](std::size_t i) {
                         cells_[order[i]]->run(until);
                     });
    mergedDirty_ = true;
}

// ---------------------------------------------------------------------------
// Merged introspection
// ---------------------------------------------------------------------------

void
ShardedPlatform::rebuildMerged() const
{
    merged_ = metrics::RunMetrics();
    for (const auto &cell : cells_)
        merged_.mergeShard(cell->totalMetrics(), endTime_);
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
    return cell(i).totalMetrics().arrivals();
}

const metrics::RunMetrics &
ShardedPlatform::totalMetrics() const
{
    if (mergedDirty_)
        rebuildMerged();
    return merged_;
}

const metrics::RunMetrics &
ShardedPlatform::functionMetrics(FunctionId fn) const
{
    return cells_[homeCell(fn)]->functionMetrics(fn);
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
