/**
 * @file
 * Greedy instance scheduler — Algorithm 1 of §3.4.
 *
 * Given the residual request rate of a function, the scheduler explores
 * batchsizes from largest to smallest (batching contributes the most to
 * throughput), enumerates the feasible (b, c, g) configurations via the
 * COP predictor (AvailableConfig), and places each new instance on the
 * server maximizing the resource-efficiency metric of Eq. 10:
 *
 *   e_ij = normalized(r_up / (beta*c + g)) / (1 - (beta*c+g)/(beta*C_j+G_j))
 *
 * i.e. throughput per weighted resource, boosted when the instance fills
 * the server's remaining capacity snugly (small fragment left behind).
 */

#ifndef INFLESS_CORE_SCHEDULER_HH
#define INFLESS_CORE_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/instance.hh"
#include "cluster/topology.hh"
#include "core/rps_bounds.hh"
#include "models/model_zoo.hh"
#include "obs/prof_scope.hh"
#include "profiler/cop.hh"
#include "sim/time.hh"

namespace infless::core {

/** Scheduler tunables. */
struct SchedulerConfig
{
    /** CPU allocation choices, millicores. */
    std::vector<std::int64_t> cpuChoices = {500, 1000, 2000, 4000};
    /** GPU allocation choices, SM percent (0 = CPU-only instance). */
    std::vector<std::int64_t> gpuChoices = {0, 5, 10, 20, 30, 50};
    /**
     * Fig. 11's RS ablation: when set, ignore the e_ij efficiency metric
     * and pick the configuration with the maximum throughput, placed
     * first-fit.
     */
    bool throughputOnly = false;

    // Ablation switches for the deviations documented in DESIGN.md 5.
    // Setting all three restores the paper's literal Algorithm 1.

    /** Commit to the largest batchsize with any feasible configuration
     *  instead of pooling candidates across batchsizes. */
    bool largestBatchFirst = false;
    /** Use the raw r_up in the e_ij numerator instead of capping it at
     *  the residual rate. */
    bool uncappedEfficiency = false;
    /** Let the fragmentation denominator approach zero for snug fits
     *  instead of flooring it. */
    bool noFragmentFloor = false;

    /**
     * Soft anti-affinity spread weight. When positive (and the spread
     * context's topology is enabled), every candidate placement's e_ij is
     * divided by 1 + spreadWeight * (instances the function already has
     * in that zone + in that rack), so new instances prefer untouched
     * domains — without ever refusing a placement the base metric would
     * have made (the penalty reorders, capacity still decides). 0 (the
     * default) is bit-identical to the pre-topology scheduler.
     */
    double spreadWeight = 0.0;
};

/**
 * Anti-affinity state for one function's placement pass: the topology
 * that maps a server to its (zone, rack), and how many of the
 * function's instances already live in each zone/rack. The scheduler
 * updates the counts as it places, so one pass spreads its own launches
 * too.
 */
struct SpreadContext
{
    SpreadContext() = default;
    explicit SpreadContext(const cluster::TopologyConfig &topo)
        : topology(topo)
    {
    }

    /** Failure domain of every server, keyed by its id. */
    cluster::TopologyConfig topology;
    /** Existing instances per zone, indexed by zone id. */
    std::vector<int> zoneCount;
    /** Existing instances per rack, indexed by global rack id. */
    std::vector<int> rackCount;

    /** Count one placement on @p server. */
    void
    add(cluster::ServerId server)
    {
        cluster::FailureDomain domain = topology.domainOf(server);
        if (!domain.assigned())
            return;
        if (zoneCount.size() <= static_cast<std::size_t>(domain.zone))
            zoneCount.resize(static_cast<std::size_t>(domain.zone) + 1, 0);
        if (rackCount.size() <= static_cast<std::size_t>(domain.rack))
            rackCount.resize(static_cast<std::size_t>(domain.rack) + 1, 0);
        ++zoneCount[static_cast<std::size_t>(domain.zone)];
        ++rackCount[static_cast<std::size_t>(domain.rack)];
    }

    /**
     * The divisor applied to e_ij for @p server, at
     * SchedulerConfig::spreadWeight @p weight.
     */
    double
    penalty(cluster::ServerId server, double weight) const
    {
        cluster::FailureDomain domain = topology.domainOf(server);
        if (!domain.assigned())
            return 1.0;
        int zone = static_cast<std::size_t>(domain.zone) < zoneCount.size()
                       ? zoneCount[static_cast<std::size_t>(domain.zone)]
                       : 0;
        int rack = static_cast<std::size_t>(domain.rack) < rackCount.size()
                       ? rackCount[static_cast<std::size_t>(domain.rack)]
                       : 0;
        return 1.0 + weight * static_cast<double>(zone + rack);
    }
};

/** One feasible configuration from AvailableConfig. */
struct CandidateConfig
{
    cluster::InstanceConfig config;
    sim::Tick execPredicted = 0;
    RpsBounds bounds;
};

/** One placement decision produced by Schedule(). */
struct LaunchPlan
{
    cluster::InstanceConfig config;
    cluster::ServerId server = cluster::kNoServer;
    sim::Tick execPredicted = 0;
    RpsBounds bounds;
};

/**
 * The INFless scheduling algorithm.
 */
class GreedyScheduler
{
  public:
    GreedyScheduler(const profiler::CopPredictor &predictor,
                    SchedulerConfig config = {});

    /**
     * Attach a wall-clock overhead profiler: schedule()/scheduleNaive()
     * record under Phase::Schedule and each candidate-pool enumeration
     * (a pool memo miss, or an availableConfigs() call) under
     * Phase::CopSolve (nested inside the schedule scope). Null or
     * disabled profilers cost one branch per call.
     */
    void setProfiler(obs::OverheadProfiler *profiler)
    {
        profiler_ = profiler;
    }

    /** Memory an instance of @p model reserves. */
    std::int64_t instanceMemoryMb(const models::ModelInfo &model) const;

    /**
     * Scheduling passes run so far (schedule() + scheduleNaive() calls).
     * The scale bench divides this by wall time for decisions/sec.
     */
    std::uint64_t decisions() const { return decisions_; }

    /**
     * Warm the COP memo for @p model over this scheduler's full
     * (batch ladder x config grid) so subsequent schedule() calls never
     * take a first-touch composition miss.
     *
     * @return Number of predictor cache entries filled.
     */
    std::size_t prewarm(const models::ModelInfo &model,
                        int max_batch) const;

    /**
     * AvailableConfig (Algorithm 1, lines 16-27): all (b=batch, c, g)
     * whose predicted execution time admits the SLO, whose r_up is
     * positive (an instance slower than 1 s per batch serves nothing
     * under Eq. 1's floor) and, for b > 1, whose r_low the residual rate
     * can saturate.
     */
    std::vector<CandidateConfig>
    availableConfigs(const models::ModelInfo &model, int batch,
                     double residual_rps, sim::Tick slo) const;

    /**
     * Eq. 10 efficiency of placing @p candidate on @p server.
     *
     * The RPS numerator is capped at @p residual_rps: capacity beyond the
     * rate the instance will actually receive is over-provisioning, not
     * efficiency (Fig. 14). Pass infinity to reproduce the uncapped
     * formula.
     *
     * @param norm Normalization divisor for the RPS/resource numerator
     *        (max over the candidate set).
     * @return Negative when the instance does not fit.
     */
    double efficiency(const CandidateConfig &candidate,
                      const cluster::Server &server, double norm,
                      double residual_rps) const;

    /**
     * Algorithm 1: plan (and allocate on @p cluster) instances covering
     * @p residual_rps for one function.
     *
     * Fast-path implementation: the feasible (b, c, g) pool depends only
     * on (model, SLO, batch cap), so it is built once per key and then
     * read from a memo (see pools_). Candidates keep a memoized weighted
     * cost; one is admissible while its r_low gate does not exceed the
     * shrinking residual. The argmax over e_ij is evaluated once per
     * capacity-index class instead of once per server (spread scoring,
     * whose penalty differs within a class, evaluates every server).
     * Guaranteed to produce a LaunchPlan sequence bit-identical to
     * scheduleNaive() (the equivalence is pinned by
     * tests/core/scheduler_equivalence_test.cc).
     *
     * Allocations are committed into the cluster as plans are made; the
     * caller launches the corresponding instances (or releases the
     * resources if it chooses not to).
     *
     * @param max_batch Function-level batch cap.
     * @param spread Optional anti-affinity state; null (or zero weight,
     *        or a cluster without domains) reproduces the base metric
     *        bit-for-bit. Pass null when the cluster has no domains:
     *        the penalty is then 1.0 everywhere and the per-server scan
     *        buys nothing. Mutated: placements made by this call are
     *        counted so the pass spreads its own launches.
     * @return The launch plans; may cover less than the residual when the
     *         cluster runs out of room.
     */
    std::vector<LaunchPlan> schedule(const models::ModelInfo &model,
                                     double residual_rps, sim::Tick slo,
                                     int max_batch,
                                     cluster::Cluster &cluster,
                                     SpreadContext *spread = nullptr) const;

    /**
     * Reference implementation of schedule(): rebuilds the candidate pool
     * and scans every server for every placement, O(placements x batches
     * x configs x servers). Kept as the oracle for the equivalence test
     * and the before/after series of bench_fig17_scale.
     */
    std::vector<LaunchPlan> scheduleNaive(const models::ModelInfo &model,
                                          double residual_rps,
                                          sim::Tick slo, int max_batch,
                                          cluster::Cluster &cluster,
                                          SpreadContext *spread =
                                              nullptr) const;

  private:
    /** One pooled candidate of the fast path. */
    struct PoolEntry
    {
        CandidateConfig cand;
        /** Memoized resources.weighted(beta). */
        double weightedCost = 0.0;
        /** Index into the descending batch ladder (0 = largest batch). */
        int batchOrdinal = 0;
        /**
         * Residual-saturation gate key: r_low for b > 1, 0 for b = 1
         * (single-request instances never wait on saturation). The
         * entry is admissible while !(gateKey > residual).
         */
        double gateKey = 0.0;
    };

    /**
     * Every feasible (b, c, g) of one (model, SLO, batch cap), in the
     * naive rebuild's order: batches descending, then CPU-major /
     * GPU-minor, which pins tie-breaking. Read-only between rebuilds.
     */
    struct CandidatePool
    {
        /** CopPredictor::distortion() the pool was priced at. */
        double distortion = 0.0;
        std::vector<PoolEntry> entries;
        /** Smallest gateKey; a residual below it admits nothing. */
        double minGate = 0.0;
    };

    /** (ModelInfo::noiseKey, SLO ticks, min(max_batch, maxBatch)). */
    using PoolKey = std::tuple<std::uint64_t, sim::Tick, int>;

    /**
     * The pool of (@p model, @p slo, @p max_batch), built on its first
     * use and rebuilt when the predictor's distortion has changed since.
     */
    const CandidatePool &poolFor(const models::ModelInfo &model,
                                 sim::Tick slo, int max_batch) const;

    /** Eq. 10 on precomputed scalars (fit already checked). */
    double efficiencyFromAvail(const CandidateConfig &candidate,
                               double cost, double weighted_avail,
                               double norm, double residual_rps) const;

    const profiler::CopPredictor &predictor_;
    SchedulerConfig config_;
    /** Optional overhead profiler (not owned; may be null). */
    obs::OverheadProfiler *profiler_ = nullptr;
    /** Scheduling passes run (schedule() is const; the count is not
     *  part of the scheduler's logical state). */
    mutable std::uint64_t decisions_ = 0;
    /**
     * Memo of schedule()'s candidate pools, keyed by PoolKey. A cache,
     * not logical state, hence mutable. Unsynchronized: a scheduler is
     * owned by one Platform (one cell of a sharded platform), so it is
     * never called from two threads at once.
     */
    mutable std::map<PoolKey, CandidatePool> pools_;
};

/**
 * Uniform-scaling scheduler used by the baselines: one fixed candidate
 * list (no per-instance adaptation), first-fit placement. Plans nothing
 * for a config whose r_up is not positive.
 */
std::vector<LaunchPlan>
uniformSchedule(const CandidateConfig &config, double residual_rps,
                cluster::Cluster &cluster, bool best_fit, double beta,
                std::int64_t memory_mb);

} // namespace infless::core

#endif // INFLESS_CORE_SCHEDULER_HH
