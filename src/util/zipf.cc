#include "util/zipf.h"

#include <cmath>

#include "util/check.h"

namespace cascache::util {

std::vector<double> ZipfDistribution::Weights(size_t n, double theta) {
  CASCACHE_CHECK(n >= 1);
  CASCACHE_CHECK(theta > 0.0);
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  return w;
}

ZipfDistribution::ZipfDistribution(size_t n, double theta)
    : theta_(theta), pmf_(Weights(n, theta)), sampler_(pmf_) {
  double total = 0.0;
  for (double w : pmf_) total += w;
  for (double& w : pmf_) w /= total;
}

ZipfSampler::ZipfSampler(size_t n, double theta) : n_(n), theta_(theta) {
  CASCACHE_CHECK(n >= 1);
  CASCACHE_CHECK(theta > 0.0);
  if (n < kAliasLimit) {
    alias_ = std::make_unique<ZipfDistribution>(n, theta);
    return;
  }
  h_integral_x1_ = HIntegral(1.5) - 1.0;
  h_integral_n_ = HIntegral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

/// Integral of h(x) = x^-theta: (x^(1-theta) - 1) / (1 - theta), with the
/// log(x) limit at theta = 1. The "-1" constant keeps the expm1/log1p
/// formulations numerically stable for theta near 1 (Hörmann's trick as
/// implemented in commons-math).
double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  // helper(x) = (e^x - 1) / x, continuous at 0.
  const double t = (1.0 - theta_) * log_x;
  const double helper = std::abs(t) > 1e-8 ? std::expm1(t) / t : 1.0 + t / 2.0;
  return log_x * helper;
}

double ZipfSampler::H(double x) const {
  return std::exp(-theta_ * std::log(x));
}

double ZipfSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - theta_);
  if (t < -1.0) t = -1.0;  // Numerical guard near the lower tail.
  // helper(x) = log(1 + x) / x, continuous at 0.
  const double helper =
      std::abs(t) > 1e-8 ? std::log1p(t) / t : 1.0 - t / 2.0;
  return std::exp(x * helper);
}

size_t ZipfSampler::SampleRejection(Rng* rng) const {
  while (true) {
    const double u =
        h_integral_n_ + rng->NextDouble() * (h_integral_x1_ - h_integral_n_);
    const double x = HIntegralInverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    const double n_d = static_cast<double>(n_);
    if (k > n_d) k = n_d;
    // Accept if k is within the hat's half-width of x, or by the exact
    // rejection test against the histogram bar at k.
    if (k - x <= s_ || u >= HIntegral(k + 0.5) - H(k)) {
      return static_cast<size_t>(k) - 1;
    }
  }
}

double EstimateZipfTheta(const std::vector<double>& counts) {
  // Simple linear regression of log(count_i) on log(i+1).
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  size_t m = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] <= 0.0) continue;
    const double x = std::log(static_cast<double>(i + 1));
    const double y = std::log(counts[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++m;
  }
  if (m < 2) return 0.0;
  const double denom = m * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  const double slope = (m * sxy - sx * sy) / denom;
  return -slope;
}

}  // namespace cascache::util
