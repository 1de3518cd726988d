/**
 * @file
 * Deterministic, seedable random number generation.
 *
 * All stochastic behaviour in the library (hardware CTA placement
 * tie-breaking, workload generation, Poisson arrivals) flows through
 * this wrapper so experiments are reproducible bit-for-bit given a seed.
 */
#ifndef POD_COMMON_RNG_H
#define POD_COMMON_RNG_H

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace pod {

/**
 * A seedable pseudo-random generator with convenience draws.
 *
 * Thin wrapper over std::mt19937_64; copyable so simulations can fork
 * deterministic sub-streams.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed seed). */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    UniformInt(int64_t lo, int64_t hi)
    {
        std::uniform_int_distribution<int64_t> dist(lo, hi);
        return dist(engine_);
    }

    /** Uniform real in [lo, hi). */
    double
    UniformReal(double lo, double hi)
    {
        std::uniform_real_distribution<double> dist(lo, hi);
        return dist(engine_);
    }

    /** Bernoulli draw with probability p of true. */
    bool
    Bernoulli(double p)
    {
        std::bernoulli_distribution dist(p);
        return dist(engine_);
    }

    /** Exponentially distributed inter-arrival gap with the given rate. */
    double
    Exponential(double rate)
    {
        std::exponential_distribution<double> dist(rate);
        return dist(engine_);
    }

    /**
     * Log-normal draw parameterized by the desired mean and standard
     * deviation of the resulting distribution (not of the underlying
     * normal), convenient for skewed context-length distributions.
     */
    double LogNormalByMoments(double mean, double stddev);

    /** Pick an index in [0, weights.size()) with the given weights. */
    size_t Weighted(const std::vector<double>& weights);

  private:
    std::mt19937_64 engine_;
};

}  // namespace pod

#endif  // POD_COMMON_RNG_H
