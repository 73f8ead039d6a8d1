#include "profiler/cop.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace infless::profiler {

CopPredictor::CopPredictor(OpProfileDb &db, CopOptions options)
    : db_(db), options_(options)
{
    sim::simAssert(options_.safetyOffset >= 0.0,
                   "safety offset must be non-negative");
}

std::size_t
CopPredictor::prewarm(const models::ModelInfo &model,
                      const std::vector<int> &batches,
                      const std::vector<std::int64_t> &cpu_choices,
                      const std::vector<std::int64_t> &gpu_choices,
                      std::int64_t memory_mb) const
{
    std::size_t before = memo_.size();
    for (int b : batches) {
        for (std::int64_t cpu : cpu_choices) {
            for (std::int64_t gpu : gpu_choices)
                rawMicros(model, b, cluster::Resources{cpu, gpu, memory_mb});
        }
    }
    return memo_.size() - before;
}

void
CopPredictor::setDistortion(double factor)
{
    sim::simAssert(factor > 0.0, "profile distortion must be positive");
    distortion_ = factor;
}

const CopPredictor::OpPlan &
CopPredictor::planFor(const models::ModelInfo &model) const
{
    auto [it, inserted] = plans_.try_emplace(model.noiseKey);
    OpPlan &plan = it->second;
    if (inserted) {
        for (const models::OpNode &op : model.dag.nodes()) {
            OpSignature sig = OpProfileDb::signatureOf(op);
            auto index = static_cast<std::uint32_t>(
                std::find(plan.signatures.begin(), plan.signatures.end(),
                          sig) -
                plan.signatures.begin());
            if (index == plan.signatures.size())
                plan.signatures.push_back(sig);
            plan.nodeSignature.push_back(index);
            plan.nodeRatio.push_back(OpProfileDb::workRatio(op));
        }
    }
    sim::simAssert(plan.nodeRatio.size() == model.dag.size(),
                   "COP plan for ", model.name, " covers ",
                   plan.nodeRatio.size(), " nodes; its graph has ",
                   model.dag.size());
    return plan;
}

double
CopPredictor::compose(const models::ModelInfo &model, int batch,
                      const cluster::Resources &res) const
{
    const OpPlan &plan = planFor(model);
    cluster::Resources snapped = db_.snapResources(res);
    int snapped_batch = db_.snapBatch(batch);
    signatureMicros_.clear();
    for (OpSignature sig : plan.signatures)
        signatureMicros_.push_back(
            db_.measuredMicros(sig, snapped_batch, snapped));
    weights_.resize(plan.nodeRatio.size());
    for (std::size_t v = 0; v < weights_.size(); ++v)
        weights_[v] =
            signatureMicros_[plan.nodeSignature[v]] * plan.nodeRatio[v];
    // The per-batch dispatch cost is a platform constant the profiler
    // measures once; it composes additively.
    return model.dag.criticalPath(weights_) +
           db_.truth().params().batchDispatchUs;
}

double
CopPredictor::rawMicros(const models::ModelInfo &model, int batch,
                        const cluster::Resources &res) const
{
    double raw =
        memo_.memo(model.noiseKey, res.cpuMillicores, res.gpuSmPercent,
                   batch, [&] { return compose(model, batch, res); });
    // The mispredicted-profile fault scales what the controllers see;
    // the memo keeps the faithful composition so the distortion can be
    // swapped without re-pricing. A factor of 1 leaves the bits exact.
    raw *= distortion_;
    return raw;
}

sim::Tick
CopPredictor::predict(const models::ModelInfo &model, int batch,
                      const cluster::Resources &res) const
{
    double micros = rawMicros(model, batch, res) *
                    (1.0 + options_.safetyOffset);
    return std::max<sim::Tick>(
        1, static_cast<sim::Tick>(std::llround(micros)));
}

double
CopPredictor::predictionError(const models::ExecModel &truth,
                              const models::ModelInfo &model, int batch,
                              const cluster::Resources &res) const
{
    double predicted = rawMicros(model, batch, res);
    double actual =
        static_cast<double>(truth.trueTicks(model, batch, res));
    sim::simAssert(actual > 0.0, "non-positive ground truth latency");
    return std::abs(predicted - actual) / actual;
}

} // namespace infless::profiler
