#include "health/outlier_ejector.hh"

#include <algorithm>
#include <cmath>

namespace infless::health {

namespace {

/** EMA smoothing applied to each evaluation window's mean ratio. */
constexpr double kEmaAlpha = 0.3;
/** Eject when the EMA latency ratio exceeds median * this factor. */
constexpr double kRatioThreshold = 2.0;
/** Eject when the window success rate drops below this (with at least
 *  kMinSamples outcomes in the window). */
constexpr double kMinSuccessRate = 0.5;

} // namespace

void
OutlierEjector::ensureServers(std::size_t num_servers)
{
    if (stats_.size() < num_servers)
        stats_.resize(num_servers);
}

void
OutlierEjector::recordExec(cluster::ServerId id, sim::Tick base_exec,
                           sim::Tick actual_exec)
{
    if (id < 0 || static_cast<std::size_t>(id) >= stats_.size() ||
        base_exec <= 0)
        return;
    ServerStats &s = stats_[static_cast<std::size_t>(id)];
    s.ratioSum += static_cast<double>(actual_exec) /
                  static_cast<double>(base_exec);
    ++s.ratioCount;
    ++s.lifetimeSamples;
}

void
OutlierEjector::recordSuccess(cluster::ServerId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= stats_.size())
        return;
    ++stats_[static_cast<std::size_t>(id)].successes;
}

void
OutlierEjector::recordFailure(cluster::ServerId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= stats_.size())
        return;
    ++stats_[static_cast<std::size_t>(id)].failures;
}

OutlierEjector::Actions
OutlierEjector::evaluate(
    sim::Tick now,
    const std::function<bool(cluster::ServerId)> &eligible,
    std::size_t live_servers)
{
    Actions actions;

    // Fold this window into the EMAs, then reset the window.
    for (ServerStats &s : stats_) {
        if (s.ratioCount > 0) {
            double window = s.ratioSum / static_cast<double>(s.ratioCount);
            s.ema = s.ema < 0.0
                        ? window
                        : kEmaAlpha * window + (1.0 - kEmaAlpha) * s.ema;
        }
        s.ratioSum = 0.0;
        s.ratioCount = 0;
    }

    // Probation expiry first: re-admitted servers return with fresh
    // stats, so one bad history never dooms a repaired machine.
    for (std::size_t i = 0; i < stats_.size(); ++i) {
        ServerStats &s = stats_[i];
        if (s.state != ServerHealth::Ejected ||
            now - s.ejectedAt < kProbation)
            continue;
        s = ServerStats{}; // Healthy, unobserved
        --ejected_;
        ++readmissions_;
        actions.readmit.push_back(static_cast<cluster::ServerId>(i));
    }

    // Fleet median of the smoothed ratios over judgeable peers (the
    // comparison baseline a gray minority cannot drag with it).
    std::vector<double> emas;
    emas.reserve(stats_.size());
    for (std::size_t i = 0; i < stats_.size(); ++i) {
        const ServerStats &s = stats_[i];
        if (s.state == ServerHealth::Healthy && s.ema >= 0.0 &&
            eligible(static_cast<cluster::ServerId>(i)))
            emas.push_back(s.ema);
    }
    if (emas.empty()) {
        // Clear the outcome windows even when nobody is judgeable.
        for (ServerStats &s : stats_) {
            s.successes = 0;
            s.failures = 0;
        }
        return actions;
    }
    std::vector<double> sorted = emas;
    std::nth_element(sorted.begin(),
                     sorted.begin() +
                         static_cast<std::ptrdiff_t>(sorted.size() / 2),
                     sorted.end());
    double median = sorted[sorted.size() / 2];

    // Candidate outliers, scored by how far past the gate they are. The
    // success-rate rule catches servers that fail work outright (crash
    // loops the latency ratio never sees).
    struct Candidate
    {
        cluster::ServerId id;
        double badness;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < stats_.size(); ++i) {
        ServerStats &s = stats_[i];
        auto id = static_cast<cluster::ServerId>(i);
        if (s.state != ServerHealth::Healthy || !eligible(id))
            continue;
        double badness = 0.0;
        if (s.ema >= 0.0 && s.lifetimeSamples >= kMinSamples &&
            median > 0.0 && s.ema > kRatioThreshold * median)
            badness = s.ema / median;
        std::int64_t outcomes = s.successes + s.failures;
        if (outcomes >= kMinSamples) {
            double rate = static_cast<double>(s.successes) /
                          static_cast<double>(outcomes);
            if (rate < kMinSuccessRate)
                badness += 1.0 - rate;
        }
        if (badness > 0.0)
            candidates.push_back({id, badness});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.badness != b.badness)
                      return a.badness > b.badness; // worst first
                  return a.id < b.id;
              });

    // Max-ejection-fraction guard: a fleet-wide slowdown must never
    // quarantine the cluster out from under the workload.
    auto max_ejected = static_cast<std::size_t>(
        std::floor(kMaxEjectFraction *
                   static_cast<double>(live_servers)));
    for (const Candidate &c : candidates) {
        if (ejected_ >= max_ejected)
            break;
        ServerStats &s = stats_[static_cast<std::size_t>(c.id)];
        s.state = ServerHealth::Ejected;
        s.ejectedAt = now;
        ++ejected_;
        ++ejections_;
        actions.eject.push_back(c.id);
    }

    // Outcome windows reset every evaluation (success rate is a
    // windowed signal; the latency ratio carries history via the EMA).
    for (ServerStats &s : stats_) {
        s.successes = 0;
        s.failures = 0;
    }
    return actions;
}

ServerHealth
OutlierEjector::state(cluster::ServerId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= stats_.size())
        return ServerHealth::Healthy;
    return stats_[static_cast<std::size_t>(id)].state;
}

double
OutlierEjector::emaRatio(cluster::ServerId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= stats_.size())
        return 1.0;
    double ema = stats_[static_cast<std::size_t>(id)].ema;
    return ema < 0.0 ? 1.0 : ema;
}

} // namespace infless::health
