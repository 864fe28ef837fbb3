#include "util/random.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

namespace cascache::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BoundedValuesInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, BoundedValuesCoverRange) {
  Rng rng(7);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) ++seen[rng.NextUint64(8)];
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected each.
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextIntSingleton) {
  Rng rng(9);
  EXPECT_EQ(rng.NextInt(5, 5), 5);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian(2.0, 3.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(RngTest, ParetoRespectsScaleAndTail) {
  Rng rng(19);
  int above_double_scale = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double p = rng.NextPareto(10.0, 2.0);
    EXPECT_GE(p, 10.0);
    if (p > 20.0) ++above_double_scale;
  }
  // P(X > 2*xm) = (1/2)^alpha = 0.25.
  EXPECT_NEAR(static_cast<double>(above_double_scale) / n, 0.25, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(21);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(25);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  EXPECT_NE(shuffled, v);
}

TEST(DiscreteSamplerTest, MatchesWeights) {
  Rng rng(29);
  const std::vector<double> weights = {4.0, 1.0, 0.0, 5.0};
  DiscreteSampler sampler(weights);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.4, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.5, 0.01);
}

TEST(DiscreteSamplerTest, SingleBucket) {
  Rng rng(31);
  DiscreteSampler sampler({2.5});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(DiscreteSamplerTest, UniformWeights) {
  Rng rng(33);
  DiscreteSampler sampler(std::vector<double>(10, 1.0));
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[sampler.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c / 50000.0, 0.1, 0.015);
}

}  // namespace
}  // namespace cascache::util
