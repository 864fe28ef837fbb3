#ifndef CASCACHE_UTIL_RANDOM_H_
#define CASCACHE_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace cascache::util {

/// Deterministic, fast pseudo-random number generator (xoshiro256**),
/// seeded via SplitMix64. All simulation randomness flows through this
/// class so experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, bound). `bound` must be > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool NextBool(double p = 0.5);

  /// Exponential variate with the given rate (mean 1/rate).
  double NextExponential(double rate);

  /// Normal variate (Box-Muller, cached second value).
  double NextGaussian(double mean = 0.0, double stddev = 1.0);

  /// Log-normal variate: exp(N(mu, sigma)).
  double NextLogNormal(double mu, double sigma);

  /// Pareto variate with scale `xm` > 0 and shape `alpha` > 0.
  double NextPareto(double xm, double alpha);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    CASCACHE_CHECK(v != nullptr);
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextUint64(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Alias-method sampler over a fixed discrete distribution: O(n) setup,
/// O(1) per draw. Used for popularity-driven object sampling in workload
/// generation.
class DiscreteSampler {
 public:
  /// `weights` must be non-empty with non-negative entries and positive sum.
  explicit DiscreteSampler(const std::vector<double>& weights);

  /// Draws an index with probability proportional to its weight.
  size_t Sample(Rng* rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace cascache::util

#endif  // CASCACHE_UTIL_RANDOM_H_
