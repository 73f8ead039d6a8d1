/**
 * @file
 * Golden digests of the COP composition and of the ground-truth
 * composition it approximates.
 *
 * Every zoo model, every batch 1..maxBatch and a resource set covering
 * the scheduler's menu, the whole profile grid and some off-grid points
 * are priced; the bit patterns of the results are hashed and compared
 * with a committed value. Any change to how operator times are looked
 * up, snapped, rescaled or composed over the DAG shows up here.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cluster/resources.hh"
#include "models/exec_model.hh"
#include "models/model_zoo.hh"
#include "profiler/cop.hh"
#include "profiler/op_profile_db.hh"

namespace {

using infless::cluster::Resources;
using infless::models::ExecModel;
using infless::models::ModelZoo;
using infless::profiler::CopPredictor;
using infless::profiler::OpProfileDb;
using infless::profiler::ProfileGrid;

/** FNV-1a over 64-bit words. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    }
    void mixInt(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
    void mixDouble(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

/**
 * The priced resource vectors: the scheduler's default CPU x GPU menu,
 * the full profile grid, and off-grid points that exercise snapping.
 */
std::vector<Resources>
pricedResources()
{
    std::vector<Resources> out;
    for (std::int64_t cpu : {500, 1000, 2000, 4000})
        for (std::int64_t gpu : {0, 5, 10, 20, 30, 50})
            out.push_back(Resources{cpu, gpu, 0});
    ProfileGrid grid;
    for (std::int64_t cpu : grid.cpuMillicores)
        for (std::int64_t gpu : grid.gpuSmPercent)
            out.push_back(Resources{cpu, gpu, 0});
    for (Resources r : {Resources{300, 0, 0}, Resources{300, 7, 0},
                        Resources{1200, 7, 512}, Resources{2600, 33, 0},
                        Resources{90, 3, 0}, Resources{20000, 100, 0}})
        out.push_back(r);
    return out;
}

TEST(CopGoldenDigest, RawAndPredictOverZoo)
{
    ExecModel exec;
    OpProfileDb db(exec);
    CopPredictor cop(db);
    const std::vector<Resources> priced = pricedResources();
    Fnv1a fnv;
    for (double distortion : {1.0, 1.3}) {
        cop.setDistortion(distortion);
        for (const auto &model : ModelZoo::shared().all()) {
            for (int b = 1; b <= model.maxBatch; ++b) {
                for (const Resources &res : priced) {
                    fnv.mixDouble(cop.rawMicros(model, b, res));
                    fnv.mixInt(cop.predict(model, b, res));
                }
            }
        }
    }
    fnv.mix(db.size());
    EXPECT_EQ(fnv.h, 0x91f3c4f2bfd2a2e7ULL);
}

TEST(CopGoldenDigest, ComposedMicrosOverZoo)
{
    ExecModel exec;
    const std::vector<Resources> priced = pricedResources();
    Fnv1a fnv;
    for (const auto &model : ModelZoo::shared().all()) {
        for (int b = 1; b <= model.maxBatch; ++b) {
            for (const Resources &res : priced)
                fnv.mixDouble(exec.composedMicros(model.dag, b, res));
        }
    }
    EXPECT_EQ(fnv.h, 0x2f2334dd3306929eULL);
}

} // namespace
