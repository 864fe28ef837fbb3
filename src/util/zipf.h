#ifndef CASCACHE_UTIL_ZIPF_H_
#define CASCACHE_UTIL_ZIPF_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "util/random.h"

namespace cascache::util {

/// Zipf-like popularity distribution over ranks 1..n: the probability of
/// rank i is proportional to 1/i^theta. Web object popularity follows this
/// law (Breslau et al., INFOCOM'99), which the reproduced paper relies on
/// when arguing its subtrace extraction is unbiased.
///
/// Sampling uses the alias method: O(n) setup, O(1) per draw.
class ZipfDistribution {
 public:
  /// `n` must be >= 1, `theta` > 0.
  ZipfDistribution(size_t n, double theta);

  /// Draws a rank in [0, n) (0 = most popular).
  size_t Sample(Rng* rng) const { return sampler_.Sample(rng); }

  /// Probability mass of rank i (0-based).
  double pmf(size_t i) const { return pmf_[i]; }

  size_t n() const { return pmf_.size(); }
  double theta() const { return theta_; }

  /// Raw (unnormalized) weight vector 1/i^theta for ranks 1..n.
  static std::vector<double> Weights(size_t n, double theta);

 private:
  double theta_;
  std::vector<double> pmf_;
  DiscreteSampler sampler_;
};

/// Memory-adaptive Zipf sampler over ranks [0, n). Below kAliasLimit it
/// wraps ZipfDistribution (alias method: O(n) doubles of setup, O(1) exact
/// draws — the historical sampler, so existing RNG streams are preserved).
/// At or above the limit the alias tables would cost O(n) doubles (~2.4 GB
/// at n = 10^8), so it switches to Hörmann's rejection-inversion
/// (Hörmann & Derflinger, "Rejection-inversion to generate variates from
/// monotone discrete distributions", TOMACS 1996; the sampler
/// commons-math/YCSB use): O(1) memory, ~1.05 draws of the underlying
/// uniform per sample. The two modes draw different streams, so a given
/// (n, theta) always selects the same mode deterministically — mode is a
/// pure function of n.
class ZipfSampler {
 public:
  /// Populations at or above this rank count use rejection-inversion.
  /// 1<<24 ranks of alias tables is ~400 MB — the largest footprint the
  /// scale-smoke RSS budget tolerates alongside the cache plane.
  static constexpr size_t kAliasLimit = size_t{1} << 24;

  ZipfSampler(size_t n, double theta);

  /// Draws a rank in [0, n) (0 = most popular).
  size_t Sample(Rng* rng) const {
    if (alias_ != nullptr) return alias_->Sample(rng);
    return SampleRejection(rng);
  }

  size_t n() const { return n_; }
  double theta() const { return theta_; }
  bool rejection_mode() const { return alias_ == nullptr; }

 private:
  size_t SampleRejection(Rng* rng) const;
  double HIntegral(double x) const;
  double H(double x) const;
  double HIntegralInverse(double x) const;

  size_t n_;
  double theta_;
  std::unique_ptr<ZipfDistribution> alias_;  ///< Null in rejection mode.

  // Rejection-inversion precomputed constants (Hörmann's notation).
  double h_integral_x1_ = 0.0;  ///< hIntegral(1.5) - 1.
  double h_integral_n_ = 0.0;   ///< hIntegral(n + 0.5).
  double s_ = 0.0;              ///< 2 - hIntegralInverse(hIntegral(2.5) - h(2)).
};

/// Least-squares estimate of the Zipf exponent from observed access counts:
/// fits log(count) ~ -theta * log(rank) + c over ranks with nonzero counts.
/// Used by tests to verify generated workloads have the configured skew.
/// `counts` must be sorted descending (rank order). Returns 0 if fewer than
/// two nonzero ranks.
double EstimateZipfTheta(const std::vector<double>& counts);

}  // namespace cascache::util

#endif  // CASCACHE_UTIL_ZIPF_H_
