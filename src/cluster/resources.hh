/**
 * @file
 * Heterogeneous resource vectors.
 *
 * INFless abstracts every allocatable unit as a vector of CPU millicores,
 * GPU streaming-multiprocessor percent (CUDA MPS granularity) and memory.
 * The paper's beta factor makes CPU and GPU commensurable through their
 * FLOPS ratio (Eq. 2 and Eq. 10).
 */

#ifndef INFLESS_CLUSTER_RESOURCES_HH
#define INFLESS_CLUSTER_RESOURCES_HH

#include <cstdint>
#include <iosfwd>

namespace infless::cluster {

/**
 * A (CPU, GPU, memory) allocation.
 *
 * CPU is in millicores (1000 = one physical core), GPU in percent of one
 * device's SMs (100 = a whole GPU), memory in MiB.
 */
struct Resources
{
    std::int64_t cpuMillicores = 0;
    std::int64_t gpuSmPercent = 0;
    std::int64_t memoryMb = 0;

    /** CPU amount in cores. */
    double cpuCores() const { return cpuMillicores / 1000.0; }

    /** GPU amount in whole-device units. */
    double gpuDevices() const { return gpuSmPercent / 100.0; }

    /** True when every component is zero. */
    bool
    isZero() const
    {
        return cpuMillicores == 0 && gpuSmPercent == 0 && memoryMb == 0;
    }

    /** True when every component is non-negative. */
    bool
    isValid() const
    {
        return cpuMillicores >= 0 && gpuSmPercent >= 0 && memoryMb >= 0;
    }

    /** Component-wise "fits inside" test. */
    bool
    fitsIn(const Resources &capacity) const
    {
        return cpuMillicores <= capacity.cpuMillicores &&
               gpuSmPercent <= capacity.gpuSmPercent &&
               memoryMb <= capacity.memoryMb;
    }

    /**
     * The paper's scalar cost beta*c + g (Eq. 2), with c in cores and g in
     * GPU devices.
     *
     * @param beta CPU-to-GPU FLOPS conversion factor.
     */
    double
    weighted(double beta) const
    {
        return beta * cpuCores() + gpuDevices();
    }

    Resources &operator+=(const Resources &o);
    Resources &operator-=(const Resources &o);
    friend Resources operator+(Resources a, const Resources &b)
    {
        return a += b;
    }
    friend Resources operator-(Resources a, const Resources &b)
    {
        return a -= b;
    }
    bool operator==(const Resources &o) const = default;
};

/** Strict weak order on resource vectors: (cpu, gpu, memory)
 *  lexicographic. Keys the capacity index and per-capacity lists. */
struct ResourcesLess
{
    bool
    operator()(const Resources &a, const Resources &b) const
    {
        if (a.cpuMillicores != b.cpuMillicores)
            return a.cpuMillicores < b.cpuMillicores;
        if (a.gpuSmPercent != b.gpuSmPercent)
            return a.gpuSmPercent < b.gpuSmPercent;
        return a.memoryMb < b.memoryMb;
    }
};

/** Render as "cpu=2000mc gpu=10% mem=4096MB" without building a string,
 *  so assertion messages can take a Resources and format it only on
 *  failure. */
std::ostream &operator<<(std::ostream &os, const Resources &r);

/**
 * Default CPU<->GPU conversion factor.
 *
 * The paper evaluates beta by comparing the FLOPS of the two devices: a
 * Xeon Silver 4215 core peaks near 80 GFLOPS (2.5 GHz AVX-512 FMA) while
 * an RTX 2080Ti peaks near 13,400 GFLOPS, so one core is worth about
 * 0.006 GPUs.
 */
constexpr double kDefaultBeta = 80.0 / 13'400.0;

} // namespace infless::cluster

#endif // INFLESS_CLUSTER_RESOURCES_HH
