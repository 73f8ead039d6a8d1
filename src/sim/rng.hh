/**
 * @file
 * Deterministic random-number generation for simulations.
 *
 * Every stochastic component draws from an Rng seeded from the run
 * configuration, so a run is exactly reproducible from its seed. Substreams
 * derived with fork() stay independent of the order in which other
 * components draw.
 */

#ifndef INFLESS_SIM_RNG_HH
#define INFLESS_SIM_RNG_HH

#include <cstdint>
#include <mutex>
#include <random>

namespace infless::sim {

/** splitmix64 step; used both for seeding and for cheap hashing. */
constexpr std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless mix of two words; handy for deterministic per-key jitter. */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    return splitmix64(s);
}

/**
 * Seeded pseudo-random source with the distributions the simulator needs.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) { reseed(seed); }

    /** Re-seed; identical seeds reproduce identical streams. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t s = seed;
        engine_.seed(splitmix64(s));
    }

    /** Derive an independent substream keyed by @p key. */
    Rng
    fork(std::uint64_t key)
    {
        std::uint64_t base = engine_();
        return Rng(hashCombine(base, key));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    /** Exponential variate with the given rate (events per unit time). */
    double
    exponential(double rate)
    {
        return std::exponential_distribution<double>(rate)(engine_);
    }

    /** Normal variate. */
    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Poisson count with the given mean. */
    std::int64_t
    poisson(double mean)
    {
        if (mean <= 0.0)
            return 0;
        // std::poisson_distribution calls std::lgamma, which writes
        // libm's global signgam; serialize draws across threads (sweeps
        // materialize workloads on worker threads). The lock changes no
        // drawn value.
        static std::mutex lgamma_mutex;
        std::lock_guard<std::mutex> lock(lgamma_mutex);
        return std::poisson_distribution<std::int64_t>(mean)(engine_);
    }

    /** Bernoulli trial. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    /** Raw 64-bit draw. */
    std::uint64_t raw() { return engine_(); }

  private:
    std::mt19937_64 engine_;
};

} // namespace infless::sim

#endif // INFLESS_SIM_RNG_HH
