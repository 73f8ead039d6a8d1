#include "core/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace infless::core {

GreedyScheduler::GreedyScheduler(const profiler::CopPredictor &predictor,
                                 SchedulerConfig config)
    : predictor_(predictor), config_(std::move(config))
{
    sim::simAssert(!config_.cpuChoices.empty(), "no CPU choices");
    sim::simAssert(!config_.gpuChoices.empty(), "no GPU choices");
}

std::int64_t
GreedyScheduler::instanceMemoryMb(const models::ModelInfo &model) const
{
    // Model memory inflation factor (weights + activation workspace).
    constexpr double kModelMemoryFactor = 1.25;
    // Fixed per-instance memory overhead beyond the model itself, MiB.
    constexpr std::int64_t kRuntimeMemoryMb = 300;
    return static_cast<std::int64_t>(
               std::ceil(model.sizeMb * kModelMemoryFactor)) +
           kRuntimeMemoryMb;
}

namespace {

/** Descending powers-of-two batch ladder capped by the function/model. */
std::vector<int>
batchLadder(const models::ModelInfo &model, int max_batch)
{
    int cap = std::min(max_batch, model.maxBatch);
    std::vector<int> batches;
    for (int b = 1; b <= cap; b *= 2)
        batches.push_back(b);
    std::sort(batches.rbegin(), batches.rend()); // largest first
    return batches;
}

} // namespace

std::size_t
GreedyScheduler::prewarm(const models::ModelInfo &model, int max_batch) const
{
    return predictor_.prewarm(model, batchLadder(model, max_batch),
                              config_.cpuChoices, config_.gpuChoices,
                              instanceMemoryMb(model));
}

std::vector<CandidateConfig>
GreedyScheduler::availableConfigs(const models::ModelInfo &model, int batch,
                                  double residual_rps, sim::Tick slo) const
{
    obs::ProfScope cop_scope(profiler_, obs::Phase::CopSolve);
    std::vector<CandidateConfig> feasible;
    std::int64_t memory = instanceMemoryMb(model);
    for (std::int64_t cpu : config_.cpuChoices) {
        for (std::int64_t gpu : config_.gpuChoices) {
            cluster::Resources res{cpu, gpu, memory};
            sim::Tick exec = predictor_.predict(model, batch, res);
            if (!execFeasible(exec, slo, batch))
                continue;
            RpsBounds bounds = rpsBounds(exec, slo, batch);
            // An instance slower than 1 s per batch has r_up 0: it would
            // never shrink the residual.
            if (bounds.up <= 0.0)
                continue;
            // For b > 1 the batch must saturate before the waiting
            // timeout: the residual rate has to reach r_low.
            if (batch > 1 && residual_rps < bounds.low)
                continue;
            CandidateConfig candidate;
            candidate.config =
                cluster::InstanceConfig{batch, res};
            candidate.execPredicted = exec;
            candidate.bounds = bounds;
            feasible.push_back(candidate);
        }
    }
    return feasible;
}

double
GreedyScheduler::efficiencyFromAvail(const CandidateConfig &candidate,
                                     double cost, double weighted_avail,
                                     double norm,
                                     double residual_rps) const
{
    sim::simAssert(cost > 0.0, "zero-cost instance config");

    double usable = config_.uncappedEfficiency
                        ? candidate.bounds.up
                        : std::min(candidate.bounds.up, residual_rps);
    double rps_per_resource = usable / cost;
    double numerator = norm > 0.0 ? rps_per_resource / norm
                                  : rps_per_resource;

    // Snug fits are rewarded, but the boost is floored: otherwise any
    // configuration that exactly fills a server's remainder would beat
    // every genuinely efficient one once the cluster fills up.
    double min_fragment = config_.noFragmentFloor ? 1e-9 : 0.05;
    double fragment =
        std::max(1.0 - cost / weighted_avail, min_fragment);
    return numerator / fragment;
}

double
GreedyScheduler::efficiency(const CandidateConfig &candidate,
                            const cluster::Server &server, double norm,
                            double residual_rps) const
{
    const cluster::Resources &req = candidate.config.resources;
    if (!server.canFit(req))
        return -1.0;
    return efficiencyFromAvail(
        candidate, req.weighted(cluster::kDefaultBeta),
        server.weightedAvailable(cluster::kDefaultBeta), norm, residual_rps);
}

const GreedyScheduler::CandidatePool &
GreedyScheduler::poolFor(const models::ModelInfo &model, sim::Tick slo,
                         int max_batch) const
{
    CandidatePool &pool =
        pools_[PoolKey{model.noiseKey, slo,
                       std::min(max_batch, model.maxBatch)}];
    if (pool.distortion == predictor_.distortion())
        return pool; // a fresh entry's 0 never matches: distortion > 0

    // The COP solve of the fast path: every predictor composition
    // happens here, once per key. Nested inside the Schedule scope by
    // design.
    obs::ProfScope cop_scope(profiler_, obs::Phase::CopSolve);
    pool.distortion = predictor_.distortion();
    pool.entries.clear();
    pool.minGate = std::numeric_limits<double>::infinity();
    std::vector<int> batches = batchLadder(model, max_batch);
    std::int64_t memory = instanceMemoryMb(model);
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
        int b = batches[bi];
        for (std::int64_t cpu : config_.cpuChoices) {
            for (std::int64_t gpu : config_.gpuChoices) {
                cluster::Resources res{cpu, gpu, memory};
                sim::Tick exec = predictor_.predict(model, b, res);
                if (!execFeasible(exec, slo, b))
                    continue;
                PoolEntry entry;
                entry.cand.config = cluster::InstanceConfig{b, res};
                entry.cand.execPredicted = exec;
                entry.cand.bounds = rpsBounds(exec, slo, b);
                if (entry.cand.bounds.up <= 0.0)
                    continue; // r_up 0: would never shrink the residual
                entry.weightedCost = res.weighted(cluster::kDefaultBeta);
                entry.batchOrdinal = static_cast<int>(bi);
                entry.gateKey = b > 1 ? entry.cand.bounds.low : 0.0;
                pool.minGate = std::min(pool.minGate, entry.gateKey);
                pool.entries.push_back(entry);
            }
        }
    }
    return pool;
}

std::vector<LaunchPlan>
GreedyScheduler::schedule(const models::ModelInfo &model,
                          double residual_rps, sim::Tick slo, int max_batch,
                          cluster::Cluster &cluster,
                          SpreadContext *spread) const
{
    obs::ProfScope schedule_scope(profiler_, obs::Phase::Schedule);
    ++decisions_;
    std::vector<LaunchPlan> plans;
    // An empty pool (SLO unsatisfiable on the whole config grid) has an
    // infinite minGate, so the loop below never places.
    const CandidatePool &pool = poolFor(model, slo, max_batch);

    const cluster::CapacityIndex &index = cluster.capacityIndex();
    const double weight = config_.spreadWeight;
    const bool spread_on = spread != nullptr && weight > 0.0;

    // The one residual-dependent part of AvailableConfig, the r_low
    // saturation gate for b > 1. The residual only shrinks, so an entry
    // once gated out stays out.
    auto admissible = [&](const PoolEntry &entry) {
        return !(entry.gateKey > residual_rps);
    };

    while (residual_rps > 1e-9) {
        if (pool.minGate > residual_rps)
            break; // residual too small to saturate any config

        // Paper-literal rule: commit to the largest batchsize with any
        // admissible configuration. The pool is ordinal-sorted, so the
        // first admissible entry carries the minimal ordinal.
        int ordinal_limit = std::numeric_limits<int>::max();
        if (config_.largestBatchFirst) {
            for (const PoolEntry &entry : pool.entries) {
                if (admissible(entry)) {
                    ordinal_limit = entry.batchOrdinal;
                    break;
                }
            }
        }
        auto considered = [&](const PoolEntry &entry) {
            return admissible(entry) && entry.batchOrdinal <= ordinal_limit;
        };

        const PoolEntry *best_entry = nullptr;
        cluster::ServerId best_server = cluster::kNoServer;
        if (config_.throughputOnly) {
            // RS ablation: max-throughput config, first-fit placement.
            for (const PoolEntry &entry : pool.entries) {
                if (!considered(entry))
                    continue;
                if (best_entry &&
                    entry.cand.bounds.up <= best_entry->cand.bounds.up)
                    continue;
                cluster::ServerId server =
                    cluster.firstFit(entry.cand.config.resources);
                if (server != cluster::kNoServer) {
                    best_entry = &entry;
                    best_server = server;
                }
            }
        } else {
            // Normalize the RPS/resource numerator over the pool.
            double norm = 0.0;
            for (const PoolEntry &entry : pool.entries) {
                if (!considered(entry))
                    continue;
                double usable =
                    std::min(entry.cand.bounds.up, residual_rps);
                norm = std::max(norm, usable / entry.weightedCost);
            }
            // argmax e_ij, one evaluation per capacity class. Ties
            // replicate the naive candidate-major/server-minor scan:
            // strictly-greater e across candidates (earlier candidate
            // wins), lowest server id within a candidate.
            double best_e = -1.0;
            for (const PoolEntry &entry : pool.entries) {
                if (!considered(entry))
                    continue;
                const cluster::Resources &req =
                    entry.cand.config.resources;
                double cand_e = -1.0;
                cluster::ServerId cand_server = cluster::kNoServer;
                auto consider = [&](double e, cluster::ServerId min_id) {
                    if (e > cand_e ||
                        (e == cand_e && min_id < cand_server)) {
                        cand_e = e;
                        cand_server = min_id;
                    }
                };
                if (spread_on) {
                    // The rack penalty differs between servers of one
                    // class, so spread evaluates every server. Spread
                    // runs only on fleets with failure domains, all of
                    // them small (DESIGN.md §4).
                    cluster.forEachServer([&](const cluster::Server &server) {
                        double e = efficiency(entry.cand, server, norm,
                                              residual_rps);
                        if (e < 0.0)
                            return;
                        e /= spread->penalty(server.id(), weight);
                        consider(e, server.id());
                    });
                } else {
                    // Only classes covering req's CPU and GPU can fit,
                    // and consider() orders on (e, id) alone, so the
                    // visit order is free. Along one CPU level weighted
                    // availability never falls, so e never rises: once
                    // e < cand_e nothing later in the level can win or
                    // tie.
                    index.forEachCoveringClass(
                        req, cluster::kDefaultBeta,
                        [&](const cluster::Resources &avail,
                            double weighted_avail,
                            cluster::ServerId min_id, std::size_t) {
                            if (!req.fitsIn(avail))
                                return true;
                            double e = efficiencyFromAvail(
                                entry.cand, entry.weightedCost,
                                weighted_avail, norm, residual_rps);
                            if (e < cand_e)
                                return false;
                            consider(e, min_id);
                            return true;
                        });
                }
                if (cand_e > best_e) {
                    best_e = cand_e;
                    best_entry = &entry;
                    best_server = cand_server;
                }
            }
        }
        if (!best_entry)
            break; // cluster exhausted

        bool ok = cluster.allocate(best_server,
                                   best_entry->cand.config.resources);
        sim::simAssert(ok, "allocation failed after fit check");

        LaunchPlan plan;
        plan.config = best_entry->cand.config;
        plan.server = best_server;
        plan.execPredicted = best_entry->cand.execPredicted;
        plan.bounds = best_entry->cand.bounds;
        plans.push_back(plan);

        if (spread_on)
            spread->add(best_server);
        residual_rps -= best_entry->cand.bounds.up;
    }
    return plans;
}

std::vector<LaunchPlan>
GreedyScheduler::scheduleNaive(const models::ModelInfo &model,
                               double residual_rps, sim::Tick slo,
                               int max_batch,
                               cluster::Cluster &cluster,
                               SpreadContext *spread) const
{
    obs::ProfScope schedule_scope(profiler_, obs::Phase::Schedule);
    ++decisions_;
    std::vector<LaunchPlan> plans;
    std::vector<int> batches = batchLadder(model, max_batch);

    while (residual_rps > 1e-9) {
        // Candidate pool: every feasible (b, c, g), largest batchsizes
        // first. The paper's Algorithm 1 commits to the largest feasible
        // batchsize outright; on our execution surface that rule
        // over-provisions (a fat-GPU large-batch config is often feasible
        // yet far costlier per usable RPS), so the batchsize competes
        // through the same usable-RPS efficiency metric as the resources.
        // The residual-saturation check still gates large batches, which
        // reproduces the mixed {1, 2, 4, 8} usage of Fig. 13a.
        std::vector<CandidateConfig> candidates;
        for (int b : batches) {
            auto batch_cands = availableConfigs(model, b, residual_rps, slo);
            candidates.insert(candidates.end(), batch_cands.begin(),
                              batch_cands.end());
            if (config_.largestBatchFirst && !candidates.empty())
                break; // paper-literal rule: commit to this batchsize
        }
        if (candidates.empty())
            break; // SLO unsatisfiable at this rate

        const CandidateConfig *best_cand = nullptr;
        cluster::ServerId best_server = cluster::kNoServer;
        if (config_.throughputOnly) {
            // RS ablation: max-throughput config, first-fit placement.
            for (const auto &cand : candidates) {
                if (best_cand && cand.bounds.up <= best_cand->bounds.up)
                    continue;
                cluster::ServerId server =
                    cluster.firstFit(cand.config.resources);
                if (server != cluster::kNoServer) {
                    best_cand = &cand;
                    best_server = server;
                }
            }
        } else {
            // Normalize the RPS/resource numerator over the pool.
            double norm = 0.0;
            for (const auto &cand : candidates) {
                double usable = std::min(cand.bounds.up, residual_rps);
                norm = std::max(norm,
                                usable / cand.config.resources.weighted(
                                             cluster::kDefaultBeta));
            }
            // argmax e_ij over candidates x servers.
            const bool spread_on =
                spread != nullptr && config_.spreadWeight > 0.0;
            double best_e = -1.0;
            for (const auto &cand : candidates) {
                cluster.forEachServer([&](const cluster::Server &server) {
                    double e =
                        efficiency(cand, server, norm, residual_rps);
                    if (spread_on && e >= 0.0)
                        e /= spread->penalty(server.id(),
                                             config_.spreadWeight);
                    if (e > best_e) {
                        best_e = e;
                        best_cand = &cand;
                        best_server = server.id();
                    }
                });
            }
        }
        if (!best_cand)
            break; // cluster exhausted

        bool ok =
            cluster.allocate(best_server, best_cand->config.resources);
        sim::simAssert(ok, "allocation failed after fit check");

        LaunchPlan plan;
        plan.config = best_cand->config;
        plan.server = best_server;
        plan.execPredicted = best_cand->execPredicted;
        plan.bounds = best_cand->bounds;
        plans.push_back(plan);

        if (spread != nullptr && config_.spreadWeight > 0.0)
            spread->add(best_server);
        residual_rps -= best_cand->bounds.up;
    }
    return plans;
}

std::vector<LaunchPlan>
uniformSchedule(const CandidateConfig &config, double residual_rps,
                cluster::Cluster &cluster, bool best_fit, double beta,
                std::int64_t memory_mb)
{
    std::vector<LaunchPlan> plans;
    if (config.bounds.up <= 0.0)
        return plans; // the residual would never shrink
    cluster::Resources req = config.config.resources;
    req.memoryMb = memory_mb;
    while (residual_rps > 1e-9) {
        // Both probes are answered by the capacity index: best-fit is the
        // smallest weighted availability that still fits (BATCH+RS).
        cluster::ServerId target = best_fit
                                       ? cluster.bestFit(req, beta)
                                       : cluster.firstFit(req);
        if (target == cluster::kNoServer)
            break;
        bool ok = cluster.allocate(target, req);
        sim::simAssert(ok, "allocation failed after fit check");

        LaunchPlan plan;
        plan.config = config.config;
        plan.config.resources = req;
        plan.server = target;
        plan.execPredicted = config.execPredicted;
        plan.bounds = config.bounds;
        plans.push_back(plan);
        residual_rps -= config.bounds.up;
    }
    return plans;
}

} // namespace infless::core
