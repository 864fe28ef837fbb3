#include "cache/frequency.h"

#include <gtest/gtest.h>

namespace cascache::cache {
namespace {

FrequencyEstimatorParams Params(int window = 3, double aging = 600.0,
                                double min_span = 1.0) {
  FrequencyEstimatorParams params;
  params.window = window;
  params.aging_interval = aging;
  params.min_span = min_span;
  return params;
}

/// Estimate of `desc` at `now`, taken on a copy so `desc` keeps its
/// cached estimate.
double EstimateOf(const FrequencyEstimator& est, ObjectDescriptor desc,
                  double now) {
  return est.Estimate(&desc, now);
}

TEST(FrequencyTest, NoAccessesMeansZero) {
  FrequencyEstimator est(Params());
  ObjectDescriptor desc;
  EXPECT_EQ(est.Estimate(&desc, 100.0), 0.0);
  EXPECT_EQ(EstimateOf(est, desc, 100.0), 0.0);
}

TEST(FrequencyTest, SlidingWindowFormula) {
  // f = K / (t - t_K) with K = 3 (paper §3.2). Short aging interval so
  // the estimate is recomputed rather than the one cached at the last
  // access returned.
  FrequencyEstimator est(Params(3, /*aging=*/5.0));
  ObjectDescriptor desc;
  est.OnAccess(&desc, 10.0);
  est.OnAccess(&desc, 20.0);
  est.OnAccess(&desc, 30.0);
  // At t=40: 3 accesses, t_3 = 10 -> f = 3/30.
  EXPECT_DOUBLE_EQ(EstimateOf(est, desc, 40.0), 3.0 / 30.0);
}

TEST(FrequencyTest, UsesAvailableAccessesWhenFewerThanK) {
  FrequencyEstimator est(Params(3, /*aging=*/5.0));
  ObjectDescriptor desc;
  est.OnAccess(&desc, 10.0);
  // 1 access, span = 40 - 10.
  EXPECT_DOUBLE_EQ(EstimateOf(est, desc, 40.0), 1.0 / 30.0);
  est.OnAccess(&desc, 20.0);
  EXPECT_DOUBLE_EQ(EstimateOf(est, desc, 40.0), 2.0 / 30.0);
}

TEST(FrequencyTest, WindowDropsOldAccesses) {
  FrequencyEstimator est(Params(/*window=*/2, /*aging=*/5.0));
  ObjectDescriptor desc;
  est.OnAccess(&desc, 0.0);
  est.OnAccess(&desc, 90.0);
  est.OnAccess(&desc, 100.0);
  // Window 2: t_2 = 90 -> f = 2/(110-90).
  EXPECT_DOUBLE_EQ(EstimateOf(est, desc, 110.0), 2.0 / 20.0);
}

TEST(FrequencyTest, MinSpanFloorsDenominator) {
  FrequencyEstimator est(Params(3, 600.0, /*min_span=*/1.0));
  ObjectDescriptor desc;
  est.OnAccess(&desc, 50.0);
  // Evaluated exactly at the access time: span 0 -> floored to 1.
  EXPECT_DOUBLE_EQ(EstimateOf(est, desc, 50.0), 1.0);
}

TEST(FrequencyTest, OnAccessRefreshesCachedEstimate) {
  FrequencyEstimator est(Params());
  ObjectDescriptor desc;
  est.OnAccess(&desc, 10.0);
  EXPECT_DOUBLE_EQ(desc.frequency, 1.0);  // Span floored at the instant.
  EXPECT_DOUBLE_EQ(desc.frequency_time, 10.0);
}

TEST(FrequencyTest, EstimateCachedUntilAgingInterval) {
  FrequencyEstimator est(Params(3, /*aging=*/100.0));
  ObjectDescriptor desc;
  est.OnAccess(&desc, 0.0);
  const double cached = est.Estimate(&desc, 50.0);  // Within interval.
  EXPECT_DOUBLE_EQ(cached, desc.frequency);
  EXPECT_DOUBLE_EQ(desc.frequency_time, 0.0);  // Not refreshed yet.
  // Past the aging interval the estimate is recomputed (and decays).
  const double aged = est.Estimate(&desc, 200.0);
  EXPECT_DOUBLE_EQ(desc.frequency_time, 200.0);
  EXPECT_LT(aged, cached);
  EXPECT_DOUBLE_EQ(aged, 1.0 / 200.0);
}

TEST(FrequencyTest, AgingDecaysIdleObjects) {
  FrequencyEstimator est(Params(3, 10.0));
  ObjectDescriptor desc;
  est.OnAccess(&desc, 0.0);
  est.OnAccess(&desc, 1.0);
  est.OnAccess(&desc, 2.0);
  const double hot = est.Estimate(&desc, 3.0);
  const double cold = est.Estimate(&desc, 1000.0);
  EXPECT_GT(hot, 10.0 * cold);
}

TEST(FrequencyTest, HigherRateGivesHigherEstimate) {
  FrequencyEstimator est(Params());
  ObjectDescriptor fast, slow;
  for (double t : {1.0, 2.0, 3.0}) est.OnAccess(&fast, t);
  for (double t : {1.0, 50.0, 100.0}) est.OnAccess(&slow, t);
  EXPECT_GT(EstimateOf(est, fast, 101.0), EstimateOf(est, slow, 101.0));
}

}  // namespace
}  // namespace cascache::cache
