/**
 * @file
 * Per-server rolling health scoring and Envoy-style outlier ejection.
 *
 * Gray failures (domain_outage.hh) never trip the crash path: the
 * server stays up and silently serves 3-10x slower, dragging tail
 * latency and SLO attainment down. The health module closes the loop:
 * every batch execution feeds a serving-latency ratio (actual / healthy
 * predicted time for the SAME model and instance config, so
 * heterogeneous configs compare fairly) and a success/failure outcome
 * into per-server accumulators; a periodic evaluation smooths the ratio
 * with an EMA, compares each server against the fleet median, and
 * quarantines statistical outliers out of CapacityIndex candidacy
 * (drain-first — in-flight work finishes).
 *
 * Safety valves, both Envoy-inspired: a max-ejection-fraction guard (a
 * fleet-wide slowdown must not eject everything and amplify the
 * incident) and probation-based re-admission (an ejected server returns
 * after a fixed quarantine with fresh stats; if it is still degraded it
 * re-ejects on the evidence it accumulates anew).
 *
 * The ejector is passive and deterministic: it draws no randomness and
 * schedules no events itself — the owning Platform calls evaluate() on
 * its own periodic event and applies the returned actions. All state is
 * per-cell under ShardedPlatform, so results are byte-identical across
 * worker-thread counts by construction. Disabled (the default), the
 * module records nothing and the run is bit-identical to one without it.
 */

#ifndef INFLESS_HEALTH_OUTLIER_EJECTOR_HH
#define INFLESS_HEALTH_OUTLIER_EJECTOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/server.hh"
#include "sim/time.hh"

namespace infless::health {

/** Cadence at which the owner calls OutlierEjector::evaluate(). */
inline constexpr sim::Tick kHealthEvalPeriod = 5 * sim::kTicksPerSec;

/** Health-scoring and ejection tunables. */
struct HealthConfig
{
    /** Master switch; off = no sampling, no events, bit-identical runs. */
    bool enabled = false;
    /** Minimum lifetime exec samples before a server can be judged. */
    std::int64_t minSamples = 20;
    /** Eject when the EMA latency ratio exceeds median * this factor. */
    double ratioThreshold = 2.0;
    /** Never quarantine more than this fraction of live servers. */
    double maxEjectFraction = 0.2;
    /** Quarantine duration before re-admission with fresh stats. */
    sim::Tick probation = 60 * sim::kTicksPerSec;
};

/** Health lifecycle of one server. */
enum class ServerHealth
{
    Healthy,
    Ejected
};

/**
 * Rolling per-server health state plus the ejection decision procedure.
 */
class OutlierEjector
{
  public:
    explicit OutlierEjector(HealthConfig config);

    const HealthConfig &config() const { return config_; }

    /** Grow the tracked fleet to @p num_servers (append-only ids). */
    void ensureServers(std::size_t num_servers);

    /** Feed one batch execution: @p base_exec is the healthy predicted
     *  time for this model + instance config, @p actual_exec what the
     *  simulation actually charged (gray multiplier, stragglers). */
    void recordExec(cluster::ServerId id, sim::Tick base_exec,
                    sim::Tick actual_exec);

    /** Feed one successful batch completion. */
    void recordSuccess(cluster::ServerId id);

    /** Feed one failed batch (crash-killed, dead-lettered). */
    void recordFailure(cluster::ServerId id);

    /** What one evaluation decided; the owner applies the transitions. */
    struct Actions
    {
        /** Servers to quarantine + drain, worst-first. */
        std::vector<cluster::ServerId> eject;
        /** Servers whose probation expired — re-admit. */
        std::vector<cluster::ServerId> readmit;
    };

    /**
     * Run one evaluation at @p now: fold the window accumulators into
     * the EMAs, pick ejection candidates vs the fleet median, apply the
     * max-ejection-fraction guard against @p live_servers, and expire
     * probations.
     *
     * @param eligible Whether a server may be ejected right now (the
     *        platform excludes down servers — crashed machines
     *        are already out of the pool).
     */
    Actions evaluate(
        sim::Tick now,
        const std::function<bool(cluster::ServerId)> &eligible,
        std::size_t live_servers);

    // Introspection ----------------------------------------------------------

    ServerHealth state(cluster::ServerId id) const;

    /** Smoothed latency ratio (1.0 when unobserved). */
    double emaRatio(cluster::ServerId id) const;

    /** Servers currently ejected. */
    std::size_t ejectedCount() const { return ejected_; }

    std::int64_t ejections() const { return ejections_; }
    std::int64_t readmissions() const { return readmissions_; }

  private:
    struct ServerStats
    {
        /** Window accumulators, reset each evaluation. */
        double ratioSum = 0.0;
        std::int64_t ratioCount = 0;
        std::int64_t successes = 0;
        std::int64_t failures = 0;
        /** Lifetime samples since (re-)admission. */
        std::int64_t lifetimeSamples = 0;
        /** Smoothed latency ratio; < 0 == never observed. */
        double ema = -1.0;
        ServerHealth state = ServerHealth::Healthy;
        sim::Tick ejectedAt = 0;
    };

    HealthConfig config_;
    std::vector<ServerStats> stats_;
    std::size_t ejected_ = 0;
    std::int64_t ejections_ = 0;
    std::int64_t readmissions_ = 0;
};

} // namespace infless::health

#endif // INFLESS_HEALTH_OUTLIER_EJECTOR_HH
