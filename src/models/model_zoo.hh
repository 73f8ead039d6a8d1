/**
 * @file
 * The 11-model zoo of Table 1.
 *
 * Each model carries the network size, per-sample GFLOPs and an operator
 * DAG whose call mix matches the paper's characterization (Fig. 7):
 * ResNet-50 spends >95% of its time in Conv2D across 8 distinct operator
 * kinds; LSTM-2365 calls MatMul 81 times and spends ~76% of its time in
 * (Fused)MatMul.
 */

#ifndef INFLESS_MODELS_MODEL_ZOO_HH
#define INFLESS_MODELS_MODEL_ZOO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "models/dag.hh"

namespace infless::models {

/**
 * Static description of one inference model.
 */
struct ModelInfo
{
    std::string name;
    /** Serialized network size in MiB (Table 1 "Network Size"). */
    double sizeMb = 0.0;
    /** Per-sample inference work (Table 1 "GFLOPs"). */
    double gflops = 0.0;
    /** Maximum allowable batchsize (2^max; the paper caps at 32). */
    int maxBatch = 32;
    /** Application domain (Table 1 "Description"). */
    std::string domain;
    /** Operator task graph. */
    Dag dag;
    /** Stable key seeding the deterministic ground-truth deviation. */
    std::uint64_t noiseKey = 0;
};

/**
 * Registry of the Table 1 models.
 */
class ModelZoo
{
  public:
    /** Builds all 11 models. */
    ModelZoo();

    /** Look a model up by name; fatal() if unknown. */
    const ModelInfo &get(const std::string &name) const;

    /** All models, largest first (Table 1 order). */
    const std::vector<ModelInfo> &all() const { return models_; }

    /** Process-wide shared zoo. */
    static const ModelZoo &shared();

    /** Models of the OSVT application (object detection pipeline). */
    static std::vector<std::string> osvtModels();

    /** Models of the Q&A robot application. */
    static std::vector<std::string> qaRobotModels();

  private:
    std::vector<ModelInfo> models_;
};

} // namespace infless::models

#endif // INFLESS_MODELS_MODEL_ZOO_HH
