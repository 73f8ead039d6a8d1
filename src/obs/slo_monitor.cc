#include "obs/slo_monitor.hh"

#include <algorithm>

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

static_assert(kSloErrorBudget > 0.0, "SLO error budget must be positive");
static_assert(kFastBurnRule.windows > 0 && kSlowBurnRule.windows > 0,
              "burn rules must span at least one window");

void SloMonitor::configure(const SloMonitorConfig &config)
{
    config_ = config;
}

void SloMonitor::registerFunction(std::int32_t fn, sim::Tick slo)
{
    if (!config_.enabled) {
        return;
    }
    auto [it, inserted] = fns_.try_emplace(fn);
    if (inserted) {
        it->second.slo = slo;
    }
}

void SloMonitor::setAlertCallback(AlertCallback callback)
{
    callback_ = std::move(callback);
}

bool SloMonitor::firing(std::int32_t fn, AlertKind kind) const
{
    auto it = fns_.find(fn);
    if (it == fns_.end()) {
        return false;
    }
    return kind == AlertKind::FastBurn ? it->second.fast.firing
                                       : it->second.slow.firing;
}

double SloMonitor::burnRate(std::int32_t fn, AlertKind kind) const
{
    auto it = fns_.find(fn);
    if (it == fns_.end()) {
        return 0.0;
    }
    return kind == AlertKind::FastBurn ? it->second.fast.lastBurn
                                       : it->second.slow.lastBurn;
}

const std::vector<WindowRow> &SloMonitor::closed(std::int32_t fn) const
{
    auto it = fns_.find(fn);
    return it == fns_.end() ? emptyRows() : it->second.closed;
}

std::vector<std::int32_t> SloMonitor::functions() const
{
    std::vector<std::int32_t> ids;
    ids.reserve(fns_.size());
    for (const auto &[fn, health] : fns_) {
        ids.push_back(fn);
    }
    return ids;
}

sim::Tick SloMonitor::sloOf(std::int32_t fn) const
{
    auto it = fns_.find(fn);
    return it == fns_.end() ? 0 : it->second.slo;
}

void SloMonitor::closeWindow(std::int32_t fn, const WindowRow &row)
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

void SloMonitor::stepRule(std::int32_t fn, FnHealth &f, AlertKind kind,
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

WindowRow &SloMonitor::openState(std::int32_t fn)
{
    // A default row starts window 0 at tick 0: every registered function
    // closes exactly floor(now / kSloWindowTicks) windows after
    // advanceTo(now).
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

} // namespace infless::obs
