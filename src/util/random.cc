#include "util/random.h"

#include <cmath>

namespace cascache::util {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  CASCACHE_CHECK(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  CASCACHE_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  uint64_t draw = (span == 0) ? NextUint64() : NextUint64(span);
  return lo + static_cast<int64_t>(draw);
}

double Rng::NextDouble() {
  // 53 uniform mantissa bits.
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  CASCACHE_CHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double rate) {
  CASCACHE_CHECK(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::NextGaussian(double mean, double stddev) {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return mean + stddev * cached_gaussian_;
  }
  double u1, u2;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(NextGaussian(mu, sigma));
}

double Rng::NextPareto(double xm, double alpha) {
  CASCACHE_CHECK(xm > 0.0);
  CASCACHE_CHECK(alpha > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  CASCACHE_CHECK(!weights.empty());
  const size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    CASCACHE_CHECK(w >= 0.0);
    total += w;
  }
  CASCACHE_CHECK(total > 0.0);

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Remaining buckets are (numerically) exactly 1.
  for (uint32_t s : small) prob_[s] = 1.0;
  for (uint32_t l : large) prob_[l] = 1.0;
}

size_t DiscreteSampler::Sample(Rng* rng) const {
  CASCACHE_CHECK(rng != nullptr);
  const size_t i = static_cast<size_t>(rng->NextUint64(prob_.size()));
  return rng->NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace cascache::util
