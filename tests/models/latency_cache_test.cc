/**
 * @file
 * LatencyCache correctness: cached lookups must be bit-identical to
 * direct ExecModel::trueTicks across the whole model zoo x batch ladder
 * x profile-grid configuration space.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/resources.hh"
#include "models/exec_model.hh"
#include "models/latency_cache.hh"
#include "models/model_zoo.hh"
#include "profiler/op_profile_db.hh"

namespace {

using infless::cluster::Resources;
using infless::models::ExecModel;
using infless::models::LatencyCache;
using infless::models::ModelZoo;
using infless::profiler::ProfileGrid;

TEST(LatencyCacheTest, TrueTicksBitIdenticalAcrossFullGrid)
{
    ExecModel exec;
    LatencyCache cache;
    const auto &zoo = ModelZoo::shared();
    ProfileGrid grid;

    std::size_t checked = 0;
    for (const auto &model : zoo.all()) {
        for (std::int64_t cpu : grid.cpuMillicores) {
            for (std::int64_t gpu : grid.gpuSmPercent) {
                Resources res{cpu, gpu, 0};
                for (int batch : grid.batchSizes) {
                    if (batch > model.maxBatch)
                        break;
                    auto direct = exec.trueTicks(model, batch, res);
                    ASSERT_EQ(cache.trueTicks(exec, model, batch, res),
                              direct)
                        << model.name << " cpu=" << cpu << " gpu=" << gpu
                        << " b=" << batch << " (miss)";
                    ASSERT_EQ(cache.trueTicks(exec, model, batch, res),
                              direct)
                        << model.name << " cpu=" << cpu << " gpu=" << gpu
                        << " b=" << batch << " (hit)";
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 1000u);
    // Second lookup of every point must have been a hit.
    EXPECT_EQ(cache.stats().hits, checked);
    EXPECT_EQ(cache.stats().misses, checked);
    EXPECT_EQ(cache.size(), checked);
}

TEST(LatencyCacheTest, MemoryDoesNotEnterTheKey)
{
    // The latency surface is pure in (model, cpu, gpu, batch): the same
    // config at a different memory size must hit the same cache line.
    ExecModel exec;
    LatencyCache cache;
    const auto &model = ModelZoo::shared().get("ResNet-50");
    Resources small{2000, 10, 512};
    Resources large{2000, 10, 8192};
    ASSERT_EQ(exec.trueTicks(model, 4, small),
              exec.trueTicks(model, 4, large));
    auto first = cache.trueTicks(exec, model, 4, small);
    EXPECT_EQ(cache.trueTicks(exec, model, 4, large), first);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LatencyCacheTest, DistinctModelsNeverAlias)
{
    // The open-addressing table compares full keys; two models sharing a
    // config must get independent values (no hash-collision aliasing).
    ExecModel exec;
    LatencyCache cache;
    const auto &zoo = ModelZoo::shared();
    Resources res{4000, 25, 0};
    for (const auto &model : zoo.all()) {
        EXPECT_EQ(cache.trueTicks(exec, model, 1, res),
                  exec.trueTicks(model, 1, res))
            << model.name;
    }
    EXPECT_EQ(cache.configCount(), zoo.all().size());
}

TEST(LatencyCacheTest, GrowsPastInitialCapacityWithoutLosingValues)
{
    // 12 cpu x 11 gpu configs per model pushes the line table well past
    // its initial 64 slots and through several rehashes.
    ExecModel exec;
    LatencyCache cache;
    const auto &model = ModelZoo::shared().get("MobileNet");
    ProfileGrid grid;
    for (std::int64_t cpu : grid.cpuMillicores) {
        for (std::int64_t gpu : grid.gpuSmPercent) {
            Resources res{cpu, gpu, 0};
            cache.trueTicks(exec, model, 1, res);
        }
    }
    std::size_t configs =
        grid.cpuMillicores.size() * grid.gpuSmPercent.size();
    EXPECT_EQ(cache.configCount(), configs);
    // Every cached value survives the rehashes.
    for (std::int64_t cpu : grid.cpuMillicores) {
        for (std::int64_t gpu : grid.gpuSmPercent) {
            Resources res{cpu, gpu, 0};
            ASSERT_EQ(cache.trueTicks(exec, model, 1, res),
                      exec.trueTicks(model, 1, res));
        }
    }
    EXPECT_EQ(cache.stats().hits, configs);
}

} // namespace
