/**
 * @file
 * SLO health engine (observability pillar 4): windowed attainment and
 * burn-rate tracking with multi-window alert rules.
 *
 * An SloMonitor watches every completion and drop of each function over
 * fixed, sim-clock-aligned windows (origin 0, deterministic for a given
 * configuration — never wall clock). Each closed window yields a
 * WindowRow of attainment counters plus a latency-attribution split
 * (cold-start / queue-wait / batch-wait / exec).
 *
 * Alerting follows the multi-window multi-burn-rate discipline of
 * production SLO monitoring: burn rate = observed violation fraction
 * divided by the error budget, evaluated over a short span with a high
 * threshold (fast — pages on acute overload within seconds) and a long
 * span with a low threshold (slow — catches sustained budget bleed).
 * Both rules carry hysteresis: an alert clears only after kClearWindows
 * consecutive below-threshold windows.
 *
 * Determinism doctrine (matching tracing in PR 4): the monitor schedules
 * no events and draws no randomness, so an enabled monitor leaves every
 * simulation output bit-identical to a disabled one, and the disabled
 * config is bit-identical to not having the subsystem. Under a sharded
 * control plane each cell owns a monitor over its own traffic; nothing
 * merges them.
 */

#ifndef INFLESS_OBS_SLO_MONITOR_HH
#define INFLESS_OBS_SLO_MONITOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sim/time.hh"

namespace infless::obs {

/** One burn-rate alert rule: fire when the burn rate over the last
 *  @p windows closed windows reaches @p threshold. */
struct BurnRule
{
    /** Burn-rate threshold (1.0 = burning budget exactly at rate). */
    double threshold = 1.0;
    /** Number of monitor windows the rule spans. */
    int windows = 1;
};

/** Monitor window length (sim ticks); windows align to tick 0. */
inline constexpr sim::Tick kSloWindowTicks = sim::kTicksPerSec;
/** Allowed violation fraction (burn rate 1.0 = exactly this). */
inline constexpr double kSloErrorBudget = 0.01;
/** Fast rule: high threshold over a short span (acute overload). */
inline constexpr BurnRule kFastBurnRule{14.4, 2};
/** Slow rule: low threshold over a long span (sustained bleed). */
inline constexpr BurnRule kSlowBurnRule{6.0, 12};

/** SLO monitor switch (part of ObsOptions; disabled by default). */
struct SloMonitorConfig
{
    bool enabled = false;
};

/** Attainment counters and attribution sums of one closed window. */
struct WindowRow
{
    /** Window start tick; the window covers
     *  [start, start + kSloWindowTicks). */
    sim::Tick start = 0;
    std::int64_t completions = 0;
    /** Completions whose end-to-end latency exceeded the SLO. */
    std::int64_t violations = 0;
    std::int64_t drops = 0;
    /** Attribution sums over the window's completions (ticks). */
    double coldSum = 0.0;
    double queueSum = 0.0;
    double batchSum = 0.0;
    double execSum = 0.0;
    /** Single-window burn rate, filled when the window closes. */
    double burn = 0.0;

    /** Finished requests (burn-rate denominator). */
    std::int64_t finished() const { return completions + drops; }
};

/** Which rule an alert belongs to. */
enum class AlertKind : std::uint8_t
{
    FastBurn,
    SlowBurn
};

/** Whether the alert edge raised or cleared the rule. */
enum class AlertEdge : std::uint8_t
{
    Firing,
    Cleared
};

/** One structured alert event (a rule edge at a window close). */
struct SloAlert
{
    std::int32_t function = -1;
    AlertKind kind = AlertKind::FastBurn;
    AlertEdge edge = AlertEdge::Firing;
    /** Window-close tick the edge happened at. */
    sim::Tick at = 0;
    /** Burn rate over the rule's span at that instant. */
    double burnRate = 0.0;
    /** Mean attribution (ticks per completion) over the rule's span —
     *  the "why" behind the degradation. */
    double meanCold = 0.0;
    double meanQueue = 0.0;
    double meanBatch = 0.0;
    double meanExec = 0.0;
};

/**
 * Per-platform (or per-cell) SLO monitor: feeds completions and drops
 * into the open window of each function, closes windows as the sim
 * clock passes their ends, and keeps per-function closed-window
 * history, rule state and the alert log.
 */
class SloMonitor
{
  public:
    using AlertCallback = std::function<void(const SloAlert &)>;

    void configure(const SloMonitorConfig &config);
    bool enabled() const { return config_.enabled; }

    /** Register a function and its SLO (before any traffic). */
    void registerFunction(std::int32_t fn, sim::Tick slo);

    /** Invoked synchronously on every alert edge (flight-dump hook). */
    void setAlertCallback(AlertCallback callback);

    /**
     * Record one completion. @p queue excludes @p batch (the four
     * components plus nothing else sum to @p total).
     */
    void recordCompletion(std::int32_t fn, sim::Tick at, sim::Tick total,
                          sim::Tick cold, sim::Tick queue, sim::Tick batch,
                          sim::Tick exec);

    /** Record one drop (burns budget like a violation). */
    void recordDrop(std::int32_t fn, sim::Tick at);

    /** Close every window ending at or before @p now (all functions). */
    void advanceTo(sim::Tick now);

    // Queries ---------------------------------------------------------------

    /** Every alert edge emitted so far, in emission order. */
    const std::vector<SloAlert> &alerts() const { return alerts_; }

    /** Firing edges emitted (the alerts-total counter). */
    std::int64_t alertsFired() const { return fired_; }

    /** Whether @p fn's rule of @p kind is currently firing. */
    bool firing(std::int32_t fn, AlertKind kind) const;

    /** Burn rate of @p fn's rule span at the last closed window. */
    double burnRate(std::int32_t fn, AlertKind kind) const;

    /** Closed windows of @p fn, oldest first. */
    const std::vector<WindowRow> &closed(std::int32_t fn) const;

    /** Registered function ids, ascending. */
    std::vector<std::int32_t> functions() const;

    /** The SLO @p fn registered with. */
    sim::Tick sloOf(std::int32_t fn) const;

  private:
    /** Hysteresis state of one rule. */
    struct RuleState
    {
        bool firing = false;
        int clearStreak = 0;
        double lastBurn = 0.0;
    };

    struct FnHealth
    {
        sim::Tick slo = 0;
        std::vector<WindowRow> closed;
        RuleState fast;
        RuleState slow;
    };

    /** Close windows of one function until its open window contains
     *  @p t (or starts after the last closed end when rolling idle). */
    void rollTo(std::int32_t fn, sim::Tick t);
    /** The open window of @p fn. */
    WindowRow &openState(std::int32_t fn);
    /** Append a closed window and evaluate both rules at its end. */
    void closeWindow(std::int32_t fn, const WindowRow &row);
    void stepRule(std::int32_t fn, FnHealth &f, AlertKind kind,
                  const BurnRule &rule, RuleState &state, sim::Tick at);

    /** Deterministic iteration: function ids ascend. */
    std::map<std::int32_t, FnHealth> fns_;
    std::map<std::int32_t, WindowRow> open_;
    SloMonitorConfig config_;
    std::vector<SloAlert> alerts_;
    std::int64_t fired_ = 0;
    AlertCallback callback_;
};

} // namespace infless::obs

#endif // INFLESS_OBS_SLO_MONITOR_HH
