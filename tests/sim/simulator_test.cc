#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "schemes/coordinated_scheme.h"
#include "schemes/lru_scheme.h"
#include "testing/scenario.h"

namespace cascache::sim {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;

// Chain: leaf(node 3) - 2 - 1 - root(0) - [virtual link] - origin.
// All link delays 1.0 (growth 1). One object of size 100 (mean size 100,
// so size_scale is exactly 1).
class SimulatorChainTest : public ::testing::Test {
 protected:
  SimulatorChainTest()
      : catalog_(MakeCatalog({{100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {}

  trace::ObjectCatalog catalog_;
  std::unique_ptr<Network> network_;
  sim::CacheSet caches_;
};

TEST_F(SimulatorChainTest, ColdMissGoesToOrigin) {
  schemes::LruScheme scheme;
  Simulator simulator(network_.get(), &caches_, &scheme);
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches_.Configure(config);

  simulator.Step(At(1.0, 0), /*collect=*/true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.requests, 1u);
  // 3 tree links + 1 virtual server link, each delay 1.0, size_scale 1.
  EXPECT_DOUBLE_EQ(s.avg_latency, 4.0);
  EXPECT_DOUBLE_EQ(s.avg_hops, 4.0);
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 0.0);
  // LRU caches everywhere: 4 insertions of 100 bytes, no reads.
  EXPECT_DOUBLE_EQ(s.avg_load_bytes, 400.0);
  EXPECT_DOUBLE_EQ(s.read_load_share, 0.0);
}

TEST_F(SimulatorChainTest, WarmHitAtLeafIsFree) {
  schemes::LruScheme scheme;
  Simulator simulator(network_.get(), &caches_, &scheme);
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches_.Configure(config);

  simulator.Step(At(1.0, 0), /*collect=*/false);  // Warm.
  simulator.Step(At(2.0, 0), /*collect=*/true);   // Hit at the leaf.
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_DOUBLE_EQ(s.avg_latency, 0.0);
  EXPECT_DOUBLE_EQ(s.avg_hops, 0.0);
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 1.0);
  EXPECT_DOUBLE_EQ(s.avg_load_bytes, 100.0);  // One read, no writes.
  EXPECT_DOUBLE_EQ(s.read_load_share, 1.0);
}

TEST_F(SimulatorChainTest, PartialHitUsesIntermediateCache) {
  schemes::LruScheme scheme;
  Simulator simulator(network_.get(), &caches_, &scheme);
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches_.Configure(config);

  simulator.Step(At(1.0, 0), false);
  // Evict the object from the leaf only; next request hits one level up.
  caches_.node(network_->RequesterNode(0))->lru()->Erase(0);
  simulator.Step(At(2.0, 0), true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.avg_latency, 1.0);
  EXPECT_DOUBLE_EQ(s.avg_hops, 1.0);
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 1.0);
  // Read at the hitting cache + re-insertion write at the leaf.
  EXPECT_DOUBLE_EQ(s.avg_load_bytes, 200.0);
}

TEST_F(SimulatorChainTest, SizeScalingMultipliesDelay) {
  // Two objects: 100 and 300 bytes; mean size 200. A cold miss for the
  // 300-byte object costs 4 links * (300/200) = 6.0.
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}, {300, 0}});
  auto network = MakeChainNetwork(&catalog, 4);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme);
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches.Configure(config);

  simulator.Step(At(1.0, 1), true);
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_latency, 6.0);
}

TEST_F(SimulatorChainTest, RunAppliesWarmupFraction) {
  schemes::LruScheme scheme;
  SimOptions options;
  options.warmup_fraction = 0.5;
  Simulator simulator(network_.get(), &caches_, &scheme, options);

  trace::Workload workload;
  workload.catalog.Add(100, 0);
  for (int i = 0; i < 10; ++i) {
    workload.requests.push_back(At(static_cast<double>(i), 0));
  }
  // Note Run uses its own catalog-driven network; here network_ was built
  // over catalog_ which matches workload.catalog's single object.
  ASSERT_TRUE(simulator.Run(workload, 1000).ok());
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.requests, 5u);       // Second half only.
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 1.0);  // Cached during warm-up.
}

TEST_F(SimulatorChainTest, RunRejectsBadArguments) {
  schemes::LruScheme scheme;
  Simulator simulator(network_.get(), &caches_, &scheme);
  trace::Workload empty;
  EXPECT_FALSE(simulator.Run(empty, 1000).ok());
  trace::Workload nonempty;
  nonempty.catalog.Add(100, 0);
  nonempty.requests.push_back(At(0.0, 0));
  EXPECT_FALSE(simulator.Run(nonempty, 0).ok());
}

TEST_F(SimulatorChainTest, RunRejectsBadWarmupFractionWithoutAborting) {
  // Option values come straight from the CLI: a bad warmup fraction must
  // surface as a Status from Run(), not abort construction.
  schemes::LruScheme scheme;
  SimOptions options;
  options.warmup_fraction = 1.5;
  Simulator simulator(network_.get(), &caches_, &scheme, options);
  trace::Workload workload;
  workload.catalog.Add(100, 0);
  workload.requests.push_back(At(0.0, 0));
  const util::Status status = simulator.Run(workload, 1000);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);

  SimOptions negative;
  negative.warmup_fraction = -0.1;
  Simulator simulator2(network_.get(), &caches_, &scheme, negative);
  EXPECT_EQ(simulator2.Run(workload, 1000).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(SimulatorChainTest, RunRejectsBadCostModelWithoutAborting) {
  schemes::LruScheme scheme;
  SimOptions options;
  options.cost_model.kind = CostModelKind::kWeighted;
  options.cost_model.alpha = -1.0;  // Invalid weight.
  Simulator simulator(network_.get(), &caches_, &scheme, options);
  trace::Workload workload;
  workload.catalog.Add(100, 0);
  workload.requests.push_back(At(0.0, 0));
  EXPECT_EQ(simulator.Run(workload, 1000).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(SimulatorSingleNodeTest, DepthOneTreeIsASingleProxy) {
  // Degenerate hierarchy: one cache, origin one virtual hop above it.
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, /*depth=*/1, /*base_delay=*/2.0);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme);
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches.Configure(config);

  simulator.Step(At(1.0, 0), true);  // Cold miss: server link only.
  MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.avg_latency, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_hops, 1.0);
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 0.0);

  simulator.Step(At(2.0, 0), true);  // Hit at the only cache.
  s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.avg_latency, 1.0);  // Mean of 2.0 and 0.0.
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 0.5);
}

TEST(SimulatorSingleNodeTest, CoordinatedOnSingleProxy) {
  // The DP degenerates to the single-cache admission rule f*m > l.
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, 1, 2.0);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::CoordinatedScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme);
  CacheNodeConfig config;
  config.mode = CacheMode::kCost;
  config.capacity_bytes = 1000;
  config.dcache_entries = 8;
  caches.Configure(config);

  simulator.Step(At(1.0, 0), false);  // Seeds the descriptor.
  EXPECT_FALSE(caches.node(0)->Contains(0));
  simulator.Step(At(2.0, 0), false);  // f*m = 2*2 > l = 0: cache it.
  EXPECT_TRUE(caches.node(0)->Contains(0));
  simulator.Step(At(3.0, 0), true);
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().byte_hit_ratio, 1.0);
}

TEST_F(SimulatorChainTest, RunConfiguresDCacheForCostSchemes) {
  // The d-cache gets dcache_ratio * (capacity / mean object size) slots.
  auto scheme_or = schemes::MakeScheme(
      {.kind = schemes::SchemeKind::kCoordinated});
  ASSERT_TRUE(scheme_or.ok());
  SimOptions options;
  options.dcache_ratio = 3.0;
  Simulator simulator(network_.get(), &caches_, scheme_or->get(), options);
  trace::Workload workload;
  workload.catalog.Add(100, 0);
  workload.requests.push_back(At(0.0, 0));
  workload.requests.push_back(At(1.0, 0));
  ASSERT_TRUE(simulator.Run(workload, 1000).ok());
  // capacity 1000 / mean 100 = 10 objects -> 30 descriptors.
  EXPECT_EQ(caches_.node(0)->ncl()->dcache_capacity(), 30u);
}

}  // namespace
}  // namespace cascache::sim
