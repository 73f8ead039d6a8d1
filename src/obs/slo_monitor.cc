#include "obs/slo_monitor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace infless::obs {

namespace {

/** Consecutive below-threshold windows required to clear an alert. */
constexpr int kClearWindows = 2;
/** Minimum finished requests in a rule's span before it may fire
 *  (idle functions never page). */
constexpr std::int64_t kMinSamples = 20;

/** Static empty row set for queries about unregistered functions. */
const std::vector<WindowRow> &emptyRows()
{
    static const std::vector<WindowRow> kEmpty;
    return kEmpty;
}

} // namespace

void WindowRow::add(const WindowRow &other)
{
    completions += other.completions;
    violations += other.violations;
    drops += other.drops;
    coldSum += other.coldSum;
    queueSum += other.queueSum;
    batchSum += other.batchSum;
    execSum += other.execSum;
}

const char *alertKindName(AlertKind kind)
{
    switch (kind) {
    case AlertKind::FastBurn: return "fast_burn";
    case AlertKind::SlowBurn: return "slow_burn";
    }
    return "unknown";
}

const char *alertEdgeName(AlertEdge edge)
{
    switch (edge) {
    case AlertEdge::Firing: return "firing";
    case AlertEdge::Cleared: return "cleared";
    }
    return "unknown";
}

// SloHealthCore --------------------------------------------------------------

static_assert(kSloErrorBudget > 0.0, "SLO error budget must be positive");
static_assert(kFastBurnRule.windows > 0 && kSlowBurnRule.windows > 0,
              "burn rules must span at least one window");

void SloHealthCore::configure(const SloMonitorConfig &config)
{
    config_ = config;
}

void SloHealthCore::registerFunction(std::int32_t fn, sim::Tick slo)
{
    if (!config_.enabled) {
        return;
    }
    auto [it, inserted] = fns_.try_emplace(fn);
    if (inserted) {
        it->second.slo = slo;
    }
}

void SloHealthCore::setAlertCallback(AlertCallback callback)
{
    callback_ = std::move(callback);
}

bool SloHealthCore::firing(std::int32_t fn, AlertKind kind) const
{
    auto it = fns_.find(fn);
    if (it == fns_.end()) {
        return false;
    }
    return kind == AlertKind::FastBurn ? it->second.fast.firing
                                       : it->second.slow.firing;
}

double SloHealthCore::burnRate(std::int32_t fn, AlertKind kind) const
{
    auto it = fns_.find(fn);
    if (it == fns_.end()) {
        return 0.0;
    }
    return kind == AlertKind::FastBurn ? it->second.fast.lastBurn
                                       : it->second.slow.lastBurn;
}

const std::vector<WindowRow> &SloHealthCore::closed(std::int32_t fn) const
{
    auto it = fns_.find(fn);
    return it == fns_.end() ? emptyRows() : it->second.closed;
}

std::vector<std::int32_t> SloHealthCore::functions() const
{
    std::vector<std::int32_t> ids;
    ids.reserve(fns_.size());
    for (const auto &[fn, health] : fns_) {
        ids.push_back(fn);
    }
    return ids;
}

sim::Tick SloHealthCore::sloOf(std::int32_t fn) const
{
    auto it = fns_.find(fn);
    return it == fns_.end() ? 0 : it->second.slo;
}

SloHealthCore::FnHealth &SloHealthCore::health(std::int32_t fn)
{
    return fns_[fn];
}

const SloHealthCore::FnHealth &SloHealthCore::health(std::int32_t fn) const
{
    auto it = fns_.find(fn);
    sim::simAssert(it != fns_.end(), "querying unregistered function ", fn);
    return it->second;
}

void SloHealthCore::closeWindow(std::int32_t fn, const WindowRow &row)
{
    FnHealth &f = fns_[fn];
    f.closed.push_back(row);
    WindowRow &stored = f.closed.back();
    stored.burn =
        stored.finished() > 0
            ? (double(stored.violations + stored.drops) /
               double(stored.finished())) / kSloErrorBudget
            : 0.0;
    sim::Tick at = stored.start + kSloWindowTicks;
    stepRule(fn, f, AlertKind::FastBurn, kFastBurnRule, f.fast, at);
    stepRule(fn, f, AlertKind::SlowBurn, kSlowBurnRule, f.slow, at);
}

void SloHealthCore::stepRule(std::int32_t fn, FnHealth &f, AlertKind kind,
                             const BurnRule &rule, RuleState &state,
                             sim::Tick at)
{
    // Burn over the rule's span: pooled violation+drop fraction over the
    // last `rule.windows` closed windows, divided by the error budget.
    std::size_t span =
        std::min<std::size_t>(std::size_t(rule.windows), f.closed.size());
    std::int64_t finished = 0;
    std::int64_t bad = 0;
    std::int64_t completions = 0;
    double cold = 0.0, queue = 0.0, batch = 0.0, exec = 0.0;
    for (std::size_t i = f.closed.size() - span; i < f.closed.size(); ++i) {
        const WindowRow &w = f.closed[i];
        finished += w.finished();
        bad += w.violations + w.drops;
        completions += w.completions;
        cold += w.coldSum;
        queue += w.queueSum;
        batch += w.batchSum;
        exec += w.execSum;
    }
    double burn =
        finished > 0 ? (double(bad) / double(finished)) / kSloErrorBudget
                     : 0.0;
    state.lastBurn = burn;

    auto emit = [&](AlertEdge edge) {
        SloAlert alert;
        alert.function = fn;
        alert.kind = kind;
        alert.edge = edge;
        alert.at = at;
        alert.burnRate = burn;
        if (completions > 0) {
            alert.meanCold = cold / double(completions);
            alert.meanQueue = queue / double(completions);
            alert.meanBatch = batch / double(completions);
            alert.meanExec = exec / double(completions);
        }
        alerts_.push_back(alert);
        if (edge == AlertEdge::Firing) {
            ++fired_;
        }
        if (callback_) {
            callback_(alert);
        }
    };

    if (!state.firing) {
        // kMinSamples gates firing only: a rule may not page off a handful
        // of requests, but once firing it clears on quiet windows too.
        bool can_fire = std::size_t(rule.windows) <= f.closed.size() &&
                        finished >= kMinSamples;
        if (can_fire && burn >= rule.threshold) {
            state.firing = true;
            state.clearStreak = 0;
            emit(AlertEdge::Firing);
        }
        return;
    }
    if (burn < rule.threshold) {
        if (++state.clearStreak >= kClearWindows) {
            state.firing = false;
            state.clearStreak = 0;
            emit(AlertEdge::Cleared);
        }
    } else {
        state.clearStreak = 0;
    }
}

// SloMonitor -----------------------------------------------------------------

WindowRow &SloMonitor::openState(std::int32_t fn)
{
    // A default row starts window 0 at tick 0: every registered function
    // closes exactly floor(now / kSloWindowTicks) windows after
    // advanceTo(now), the invariant the sharded merge cursor depends on.
    return open_[fn];
}

void SloMonitor::rollTo(std::int32_t fn, sim::Tick t)
{
    WindowRow &open = openState(fn);
    sim::Tick w = kSloWindowTicks;
    while (open.start + w <= t) {
        sim::Tick next = open.start + w;
        closeWindow(fn, open);
        open = WindowRow{};
        open.start = next;
    }
}

void SloMonitor::recordCompletion(std::int32_t fn, sim::Tick at,
                                  sim::Tick total, sim::Tick cold,
                                  sim::Tick queue, sim::Tick batch,
                                  sim::Tick exec)
{
    if (!config_.enabled || fns_.find(fn) == fns_.end()) {
        return;
    }
    rollTo(fn, at);
    WindowRow &open = openState(fn);
    ++open.completions;
    sim::Tick slo = fns_[fn].slo;
    if (slo > 0 && total > slo) {
        ++open.violations;
    }
    open.coldSum += double(cold);
    open.queueSum += double(queue);
    open.batchSum += double(batch);
    open.execSum += double(exec);
}

void SloMonitor::recordDrop(std::int32_t fn, sim::Tick at)
{
    if (!config_.enabled || fns_.find(fn) == fns_.end()) {
        return;
    }
    rollTo(fn, at);
    ++openState(fn).drops;
}

void SloMonitor::advanceTo(sim::Tick now)
{
    if (!config_.enabled) {
        return;
    }
    // A completion at exactly t = k*W belongs to window k, so window
    // k-1 (ending at t) is closeable: roll every function to `now`.
    for (const auto &[fn, health] : fns_) {
        rollTo(fn, now);
    }
}

// SloHealthMerge -------------------------------------------------------------

void SloHealthMerge::setCellCount(std::size_t cells)
{
    sim::simAssert(cells > 0, "merge needs at least one cell");
    sim::simAssert(cursor_.empty(), "cell count fixed before first absorb");
    cursor_.assign(cells, 0);
}

void SloHealthMerge::absorb(std::size_t cell, const SloMonitor &monitor)
{
    if (!config_.enabled) {
        return;
    }
    sim::simAssert(cell < cursor_.size(), "absorb from unknown cell ", cell);

    // Pull this cell's newly closed windows into the pending merge rows.
    // Every cell closes window k at start k*kSloWindowTicks (origin 0), so
    // a closed-row index doubles as the cluster window index.
    std::size_t cell_closed = cursor_[cell];
    for (std::int32_t fn : monitor.functions()) {
        const std::vector<WindowRow> &rows = monitor.closed(fn);
        registerFunction(fn, monitor.sloOf(fn));
        std::vector<WindowRow> &pend = pending_[fn];
        for (std::size_t i = cursor_[cell]; i < rows.size(); ++i) {
            std::size_t window = std::size_t(rows[i].start / kSloWindowTicks);
            if (window < evaluated_) {
                continue;
            }
            std::size_t slot = window - evaluated_;
            if (pend.size() <= slot) {
                std::size_t old = pend.size();
                pend.resize(slot + 1);
                for (std::size_t s = old; s < pend.size(); ++s) {
                    pend[s].start =
                        sim::Tick(evaluated_ + s) * kSloWindowTicks;
                }
            }
            pend[slot].add(rows[i]);
        }
        cell_closed = std::max(cell_closed, rows.size());
    }
    cursor_[cell] = cell_closed;

    // Finalize every cluster window all cells have now passed, in
    // ascending-function order (deterministic regardless of thread count:
    // absorb itself runs serially in cell order at barriers).
    std::size_t min_cursor = cursor_[0];
    for (std::size_t c = 1; c < cursor_.size(); ++c) {
        min_cursor = std::min(min_cursor, cursor_[c]);
    }
    while (evaluated_ < min_cursor) {
        for (auto &[fn, pend] : pending_) {
            WindowRow row;
            if (!pend.empty()) {
                row = pend.front();
                pend.erase(pend.begin());
            } else {
                row.start = sim::Tick(evaluated_) * kSloWindowTicks;
            }
            closeWindow(fn, row);
        }
        ++evaluated_;
    }
}

} // namespace infless::obs
