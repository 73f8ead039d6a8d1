/**
 * @file
 * Exhaustive "oracle" scheduler for optimality-gap measurement.
 *
 * The paper shows the instance-provisioning problem (Eq. 2-9) is at
 * least as hard as bin packing and resorts to the greedy Algorithm 1.
 * For small demands the optimum is still computable: this oracle
 * branch-and-bounds over multisets of feasible configurations to find
 * the cheapest fleet covering a single function's rate, ignoring
 * placement (a lower bound on any placed solution). Comparing it with
 * the greedy scheduler quantifies the greedy's optimality gap.
 *
 * Exponential in the worst case — intended for tests and ablation
 * benches, not the runtime path.
 */

#ifndef INFLESS_CORE_ORACLE_SCHEDULER_HH
#define INFLESS_CORE_ORACLE_SCHEDULER_HH

#include <vector>

#include "core/scheduler.hh"

namespace infless::core {

/** Result of an oracle search. */
struct OracleResult
{
    /** Chosen configurations (one entry per instance). */
    std::vector<CandidateConfig> fleet;
    /** Total beta-weighted resource cost. */
    double cost = 0.0;
    /** Total r_up capacity. */
    double capacity = 0.0;
    /** Whether the search proved optimality (vs hitting the node cap). */
    bool exact = true;

    bool feasible() const { return !fleet.empty() || capacity > 0.0; }
};

/**
 * Minimum-cost fleet covering @p demand_rps for one model.
 */
class OracleScheduler
{
  public:
    /**
     * @param predictor Latency predictor (shared with the greedy).
     * @param config Grid (shared with the greedy).
     * @param max_nodes Search-node budget; beyond it the best incumbent
     *        is returned with exact = false.
     */
    OracleScheduler(const profiler::CopPredictor &predictor,
                    SchedulerConfig config = {},
                    std::int64_t max_nodes = 2'000'000);

    /**
     * Find the cheapest fleet whose aggregate r_up covers @p demand_rps,
     * honoring the same feasibility and saturation rules as
     * AvailableConfig (each instance's r_low must be coverable by the
     * rate left for it).
     */
    OracleResult solve(const models::ModelInfo &model, double demand_rps,
                       sim::Tick slo, int max_batch) const;

  private:
    GreedyScheduler greedy_; ///< reused for AvailableConfig
    SchedulerConfig config_;
    std::int64_t maxNodes_;
};

} // namespace infless::core

#endif // INFLESS_CORE_ORACLE_SCHEDULER_HH
