/**
 * @file
 * Combined Operator Profiling (COP) latency predictor — §3.3.
 *
 * A model's batch execution time is estimated by composing its operators'
 * profiled times over the task graph: sequence chains sum, parallel
 * branches take the max. Predictions are inflated by a safety offset
 * (10% by default) to absorb the composition error before they reach the
 * scheduler.
 */

#ifndef INFLESS_PROFILER_COP_HH
#define INFLESS_PROFILER_COP_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/resources.hh"
#include "models/exec_model.hh"
#include "models/latency_cache.hh"
#include "models/model_zoo.hh"
#include "profiler/op_profile_db.hh"
#include "sim/time.hh"

namespace infless::profiler {

/** Predictor tunables. */
struct CopOptions
{
    /**
     * Relative inflation applied to raw predictions. The paper uses 0.10;
     * the OP1.5 / OP2 ablations of Fig. 11 use 0.50 / 1.00.
     */
    double safetyOffset = 0.10;
};

/**
 * The latency predictor used by the scheduler: t_exec = f(b, c, g).
 */
class CopPredictor
{
  public:
    /**
     * @param db Profile database the composition reads from.
     * @param options Safety-offset configuration.
     */
    CopPredictor(OpProfileDb &db, CopOptions options = {});

    /**
     * Raw composed estimate (no safety offset), in microseconds.
     */
    double rawMicros(const models::ModelInfo &model, int batch,
                     const cluster::Resources &res) const;

    /**
     * Scheduler-facing prediction with the safety offset applied.
     */
    sim::Tick predict(const models::ModelInfo &model, int batch,
                      const cluster::Resources &res) const;

    /**
     * Fill the memo for every (batch, cpu, gpu) combination up front so
     * scheduling loops never take a composition miss. The memo is shared
     * across batches — one prewarm keeps it hot for the whole ladder.
     *
     * @return Number of combinations composed (cache misses filled).
     */
    std::size_t prewarm(const models::ModelInfo &model,
                        const std::vector<int> &batches,
                        const std::vector<std::int64_t> &cpu_choices,
                        const std::vector<std::int64_t> &gpu_choices,
                        std::int64_t memory_mb) const;

    /** Hit/miss counters of the prediction memo. */
    const models::LatencyCacheStats &cacheStats() const
    {
        return memo_.stats();
    }

    /**
     * Relative prediction error |pred - truth| / truth of the *raw*
     * estimate against the ground truth surface (Fig. 8's metric).
     */
    double predictionError(const models::ExecModel &truth,
                           const models::ModelInfo &model, int batch,
                           const cluster::Resources &res) const;

    /**
     * Scale every rawMicros/predict result by @p factor (the
     * mispredicted-profile fault: a lying profiler). The ground-truth
     * ExecModel is untouched, so only the controllers are deceived;
     * 1.0 restores the faithful profiler.
     */
    void setDistortion(double factor);

    /** The factor last set by setDistortion() (1 = faithful). */
    double distortion() const { return distortion_; }

  private:
    /**
     * A model's composition, compiled on its first memo miss: the
     * distinct operator signatures its graph uses and, per node, the
     * signature it reads and its own work ratio. A composition then
     * looks each signature up once instead of each node.
     */
    struct OpPlan
    {
        std::vector<OpSignature> signatures;
        /** Per node: index into signatures. */
        std::vector<std::uint32_t> nodeSignature;
        /** Per node: OpProfileDb::workRatio of the node. */
        std::vector<double> nodeRatio;
    };

    /** The plan of @p model, built on first use. */
    const OpPlan &planFor(const models::ModelInfo &model) const;

    /** Compose a faithful raw estimate (a memo miss). */
    double compose(const models::ModelInfo &model, int batch,
                   const cluster::Resources &res) const;

    OpProfileDb &db_;
    CopOptions options_;
    /** Mispredicted-profile factor (1 = faithful profiler). */
    double distortion_ = 1.0;
    /** Memo of raw predictions over (model, b, c, g); the scheduler
     *  queries the same configurations thousands of times. Exact-keyed
     *  (no hash-collision aliasing) with a flat per-batch array. */
    mutable models::LatencyCache memo_;
    /** Composition plans, keyed like memo_ by ModelInfo::noiseKey. */
    mutable std::unordered_map<std::uint64_t, OpPlan> plans_;
    /** Scratch of compose(): per-signature and per-node times. */
    mutable std::vector<double> signatureMicros_;
    mutable std::vector<double> weights_;
};

} // namespace infless::profiler

#endif // INFLESS_PROFILER_COP_HH
