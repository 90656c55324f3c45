// Deterministic random number generation.  Every stochastic component
// (traffic, fading, UE churn) takes an explicit seed so experiments are
// reproducible run-to-run, which EXPERIMENTS.md relies on.
#pragma once

#include <cstdint>
#include <random>

namespace nrs {

/// SplitMix64 finalizer: cheap, well-mixed seed derivation.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Thin wrapper over a 64-bit Mersenne Twister with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return uniform_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double gaussian() { return normal_(engine_); }

  /// Gaussian with the given mean / stddev.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Exponential draw with the given mean.
  double exponential(double mean) {
    return -mean * std::log(1.0 - uniform());
  }

  /// Poisson draw.
  unsigned poisson(double mean) {
    return std::poisson_distribution<unsigned>(mean)(engine_);
  }

  /// Bernoulli draw.
  bool chance(double p) { return uniform() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace nrs
