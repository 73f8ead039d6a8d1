#include "core/oracle_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace infless::core {

OracleScheduler::OracleScheduler(const profiler::CopPredictor &predictor,
                                 SchedulerConfig config,
                                 std::int64_t max_nodes)
    : greedy_(predictor, config), config_(std::move(config)),
      maxNodes_(max_nodes)
{
    sim::simAssert(max_nodes > 0, "node budget must be positive");
}

namespace {

struct Item
{
    CandidateConfig config;
    double cost;
    double up;
    double low;
};

/** Depth-first branch-and-bound state. */
struct Search
{
    const std::vector<Item> &items;
    /** Cheapest cost-per-covered-RPS from item i onward (suffix min). */
    std::vector<double> suffixRate;
    double demand;
    std::int64_t nodeBudget;
    std::int64_t nodes = 0;
    bool exact = true;

    double bestCost = std::numeric_limits<double>::max();
    std::vector<int> bestCounts{};
    std::vector<int> counts{};

    void
    dfs(std::size_t idx, double cost, double up, double low)
    {
        if (++nodes > nodeBudget) {
            exact = false;
            return;
        }
        if (cost >= bestCost)
            return;
        if (up >= demand) {
            // Covered; the saturation side needs sum(low) <= demand.
            if (low <= demand + 1e-9) {
                bestCost = cost;
                bestCounts = counts;
            }
            return; // more instances only add cost
        }
        if (idx >= items.size())
            return;

        // Optimistic completion bound: cover the remaining demand at the
        // best cost rate any remaining item offers.
        double bound = cost + (demand - up) * suffixRate[idx];
        if (bound >= bestCost)
            return;

        const Item &item = items[idx];
        double remaining = demand - up;
        int k_cover = static_cast<int>(std::ceil(remaining / item.up));
        int k_low = item.low > 0.0 ? static_cast<int>(std::floor(
                                         (demand - low) / item.low))
                                   : k_cover;
        int k_max = std::min(k_cover, k_low);
        for (int k = k_max; k >= 0; --k) {
            counts[idx] = k;
            dfs(idx + 1, cost + k * item.cost, up + k * item.up,
                low + k * item.low);
            if (!exact)
                break;
        }
        counts[idx] = 0;
    }
};

} // namespace

OracleResult
OracleScheduler::solve(const models::ModelInfo &model, double demand_rps,
                       sim::Tick slo, int max_batch) const
{
    OracleResult result;
    if (demand_rps <= 0.0)
        return result;

    // Candidate pool under the same feasibility rules as the greedy.
    std::vector<Item> items;
    int cap = std::min(max_batch, model.maxBatch);
    for (int b = 1; b <= cap; b *= 2) {
        for (const auto &cand :
             greedy_.availableConfigs(model, b, demand_rps, slo)) {
            if (!cand.bounds.valid() || cand.bounds.up <= 0.0)
                continue;
            items.push_back(Item{
                cand, cand.config.resources.weighted(cluster::kDefaultBeta),
                cand.bounds.up, cand.bounds.low});
        }
    }
    if (items.empty())
        return result;

    // Pareto prune: drop items dominated on (cost, up, low).
    std::vector<Item> pruned;
    for (const auto &item : items) {
        bool dominated = false;
        for (const auto &other : items) {
            bool better = other.cost <= item.cost && other.up >= item.up &&
                          other.low <= item.low;
            bool strict = other.cost < item.cost || other.up > item.up ||
                          other.low < item.low;
            if (&other != &item && better && strict) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            pruned.push_back(item);
    }

    // Most efficient first so good incumbents appear early.
    std::sort(pruned.begin(), pruned.end(), [](const Item &a,
                                               const Item &b) {
        return a.cost / a.up < b.cost / b.up;
    });

    Search search{pruned, {}, demand_rps, maxNodes_};
    search.suffixRate.assign(pruned.size() + 1,
                             std::numeric_limits<double>::max());
    for (std::size_t i = pruned.size(); i-- > 0;) {
        search.suffixRate[i] = std::min(search.suffixRate[i + 1],
                                        pruned[i].cost / pruned[i].up);
    }
    search.counts.assign(pruned.size(), 0);
    search.dfs(0, 0.0, 0.0, 0.0);

    result.exact = search.exact;
    if (search.bestCost == std::numeric_limits<double>::max())
        return result; // infeasible (saturation constraints)
    result.cost = search.bestCost;
    for (std::size_t i = 0; i < search.bestCounts.size(); ++i) {
        for (int k = 0; k < search.bestCounts[i]; ++k) {
            result.fleet.push_back(pruned[i].config);
            result.capacity += pruned[i].up;
        }
    }
    return result;
}

} // namespace infless::core
