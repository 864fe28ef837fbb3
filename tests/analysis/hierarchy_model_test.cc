#include "analysis/hierarchy_model.h"

#include <gtest/gtest.h>

#include "schemes/lru_scheme.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/zipf.h"

namespace cascache::analysis {
namespace {

HierarchyModelParams ZipfParams(uint64_t capacity) {
  HierarchyModelParams params;
  params.capacity_per_node = capacity;
  params.rates = util::ZipfDistribution::Weights(1000, 0.8);
  params.sizes.assign(1000, 10'000);
  return params;
}

TEST(HierarchyModelTest, ServeProbabilitiesSumToOne) {
  auto result = SolveHierarchyLru(ZipfParams(200'000));
  ASSERT_TRUE(result.ok()) << result.status();
  double total = 0.0;
  for (double p : result->serve_probability) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(result->serve_probability.size(), 5u);  // 4 levels + origin.
  EXPECT_EQ(result->levels.size(), 4u);
}

TEST(HierarchyModelTest, LeafServesMostUnderSkew) {
  auto result = SolveHierarchyLru(ZipfParams(500'000));
  ASSERT_TRUE(result.ok());
  // With large caches and Zipf skew, the leaf dominates and upper levels
  // each serve less than the one below (the filtering effect).
  EXPECT_GT(result->serve_probability[0], result->serve_probability[1]);
  EXPECT_GT(result->serve_probability[1], result->serve_probability[2]);
}

TEST(HierarchyModelTest, MetricsMonotoneInCapacity) {
  double prev_hit = -1.0;
  double prev_latency = 1e18;
  for (uint64_t capacity : {50'000, 200'000, 800'000}) {
    auto result = SolveHierarchyLru(ZipfParams(capacity));
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->byte_hit_ratio, prev_hit);
    EXPECT_LT(result->avg_latency, prev_latency);
    prev_hit = result->byte_hit_ratio;
    prev_latency = result->avg_latency;
  }
}

TEST(HierarchyModelTest, UniformSizesMakeHitRatiosEqual) {
  auto result = SolveHierarchyLru(ZipfParams(100'000));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->hit_ratio, result->byte_hit_ratio, 1e-9);
}

TEST(HierarchyModelTest, RejectsBadInput) {
  HierarchyModelParams params = ZipfParams(0);
  EXPECT_FALSE(SolveHierarchyLru(params).ok());
  params = ZipfParams(1000);
  params.rates.clear();
  params.sizes.clear();
  EXPECT_FALSE(SolveHierarchyLru(params).ok());
  params = ZipfParams(1000);
  params.tree.depth = 0;
  EXPECT_FALSE(SolveHierarchyLru(params).ok());
}

// The headline validation: the analytical model tracks the trace-driven
// simulator for hierarchical LRU on an IRM workload.
class ModelVsSimulator : public ::testing::TestWithParam<double> {};

TEST_P(ModelVsSimulator, ByteHitRatioAgrees) {
  const double cache_fraction = GetParam();

  trace::WorkloadParams wl;
  wl.num_objects = 2'000;
  wl.num_requests = 400'000;
  wl.num_clients = 270;  // 10 clients per leaf on average.
  wl.num_servers = 50;
  wl.seed = 31;
  auto workload_or = trace::GenerateWorkload(wl);
  ASSERT_TRUE(workload_or.ok());

  // Simulate.
  sim::NetworkParams net_params;
  net_params.architecture = sim::Architecture::kHierarchical;
  auto net_or = sim::Network::Build(net_params, &workload_or->catalog);
  ASSERT_TRUE(net_or.ok());
  schemes::LruScheme scheme;
  sim::CacheSet caches = (*net_or)->MakeCacheSet();
  sim::Simulator simulator(net_or->get(), &caches, &scheme);
  const uint64_t capacity = static_cast<uint64_t>(
      cache_fraction *
      static_cast<double>(workload_or->catalog.total_bytes()));
  ASSERT_TRUE(simulator.Run(*workload_or, capacity).ok());
  const sim::MetricsSummary sim_metrics = simulator.metrics().Summary();

  // Model with the empirical request mix.
  HierarchyModelParams model_params;
  model_params.capacity_per_node = capacity;
  for (uint64_t count : trace::CountAccesses(*workload_or)) {
    model_params.rates.push_back(static_cast<double>(count));
  }
  for (trace::ObjectId id = 0; id < workload_or->catalog.num_objects();
       ++id) {
    model_params.sizes.push_back(workload_or->catalog.size(id));
  }
  auto model_or = SolveHierarchyLru(model_params);
  ASSERT_TRUE(model_or.ok());

  // Tolerances reflect the model's known structural bias: treating the
  // filtered per-level miss streams as IRM overestimates upper-level
  // hits (the a-NET effect), which grows with cache size — measured at
  // ~2 points of byte hit at 1% capacity and ~8 points at 10%. Agreement
  // within 10 points / 20% across the sweep confirms the simulator and
  // the analysis describe the same system.
  EXPECT_NEAR(model_or->byte_hit_ratio, sim_metrics.byte_hit_ratio, 0.10)
      << "cache fraction " << cache_fraction;
  EXPECT_NEAR(model_or->avg_latency, sim_metrics.avg_latency,
              0.20 * sim_metrics.avg_latency);
  EXPECT_NEAR(model_or->avg_hops, sim_metrics.avg_hops,
              0.20 * sim_metrics.avg_hops);
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, ModelVsSimulator,
                         ::testing::Values(0.01, 0.03, 0.10));

}  // namespace
}  // namespace cascache::analysis
