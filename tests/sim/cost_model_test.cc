#include "sim/cost_model.h"

#include <gtest/gtest.h>

#include "schemes/coordinated_scheme.h"
#include "sim/simulator.h"
#include "testing/scenario.h"

namespace cascache::sim {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;

CostModel Make(CostModelKind kind, double alpha = 1.0, double beta = 1.0) {
  CostModelParams params;
  params.kind = kind;
  params.alpha = alpha;
  params.beta = beta;
  auto model_or = CostModel::Create(params);
  CASCACHE_CHECK_OK(model_or.status());
  return *model_or;
}

TEST(CostModelTest, LatencyScalesDelayBySize) {
  const CostModel model = Make(CostModelKind::kLatency);
  // delay 0.1 s, object 2x the mean size -> cost 0.2.
  EXPECT_DOUBLE_EQ(model.LinkCost(0.1, 2000, 1000.0), 0.2);
  EXPECT_DOUBLE_EQ(model.LinkCost(0.1, 500, 1000.0), 0.05);
}

TEST(CostModelTest, BandwidthIgnoresDelay) {
  const CostModel model = Make(CostModelKind::kBandwidth);
  EXPECT_DOUBLE_EQ(model.LinkCost(0.1, 2000, 1000.0), 2.0);
  EXPECT_DOUBLE_EQ(model.LinkCost(99.0, 2000, 1000.0), 2.0);
}

TEST(CostModelTest, HopsIsConstant) {
  const CostModel model = Make(CostModelKind::kHops);
  EXPECT_DOUBLE_EQ(model.LinkCost(0.1, 2000, 1000.0), 1.0);
  EXPECT_DOUBLE_EQ(model.LinkCost(5.0, 1, 1000.0), 1.0);
}

TEST(CostModelTest, WeightedCombinesBoth) {
  const CostModel model = Make(CostModelKind::kWeighted, 2.0, 3.0);
  // 2 * (0.1 * 2) + 3 * 2 = 6.4.
  EXPECT_DOUBLE_EQ(model.LinkCost(0.1, 2000, 1000.0), 6.4);
}

TEST(CostModelTest, WeightedRejectsBadWeights) {
  CostModelParams params;
  params.kind = CostModelKind::kWeighted;
  params.alpha = -1.0;
  EXPECT_FALSE(CostModel::Create(params).ok());
  params.alpha = 0.0;
  params.beta = 0.0;
  EXPECT_FALSE(CostModel::Create(params).ok());
}

TEST(CostModelTest, KindNames) {
  EXPECT_STREQ(Make(CostModelKind::kLatency).name(), "latency");
  EXPECT_STREQ(Make(CostModelKind::kBandwidth).name(), "bandwidth");
  EXPECT_STREQ(Make(CostModelKind::kHops).name(), "hops");
  EXPECT_STREQ(Make(CostModelKind::kWeighted).name(), "weighted");
}

// Integration: under the kHops model, the miss penalties recorded by the
// coordinated scheme are hop counts (chain with unit link delays would
// look identical under kLatency, so use growth > 1 to tell them apart).
TEST(CostModelIntegrationTest, HopCostsYieldHopPenalties) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  // Chain with growth 5: link delays 1, 5, 25 (leaf upward), server 125.
  auto network = MakeChainNetwork(&catalog, 4, 1.0, 5.0);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = CacheMode::kCost;
  config.capacity_bytes = 1000;
  config.dcache_entries = 16;
  caches.Configure(config);

  schemes::CoordinatedScheme scheme;
  SimOptions options;
  options.cost_model.kind = CostModelKind::kHops;
  Simulator simulator(network.get(), &caches, &scheme, options);
  simulator.Step(At(1.0, 0), false);

  // Under kHops, the descriptor miss penalties are hop distances to the
  // origin: root = 1, ..., leaf = 4 — independent of the delay growth.
  EXPECT_DOUBLE_EQ(caches.node(0)->FindDescriptor(0)->miss_penalty, 1.0);
  EXPECT_DOUBLE_EQ(caches.node(3)->FindDescriptor(0)->miss_penalty, 4.0);
}

TEST(CostModelIntegrationTest, LatencyCostsReflectDelayGrowth) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, 4, 1.0, 5.0);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = CacheMode::kCost;
  config.capacity_bytes = 1000;
  config.dcache_entries = 16;
  caches.Configure(config);

  schemes::CoordinatedScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme);  // Default: latency.
  simulator.Step(At(1.0, 0), false);

  // Delays: server link 125, then 25, 5, 1 down the chain.
  EXPECT_DOUBLE_EQ(caches.node(0)->FindDescriptor(0)->miss_penalty, 125.0);
  EXPECT_DOUBLE_EQ(caches.node(1)->FindDescriptor(0)->miss_penalty, 150.0);
  EXPECT_DOUBLE_EQ(caches.node(3)->FindDescriptor(0)->miss_penalty, 156.0);
}

// The metrics stay physical regardless of the optimized cost: latency is
// identical delay-math under every model for the same cache contents.
TEST(CostModelIntegrationTest, MetricsIndependentOfModelOnFirstMiss) {
  for (CostModelKind kind : {CostModelKind::kLatency, CostModelKind::kHops,
                             CostModelKind::kBandwidth}) {
    trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
    auto network = MakeChainNetwork(&catalog, 4, 1.0, 5.0);
    sim::CacheSet caches = network->MakeCacheSet();
    CacheNodeConfig config;
    config.mode = CacheMode::kCost;
    config.capacity_bytes = 1000;
    config.dcache_entries = 16;
    caches.Configure(config);
    schemes::CoordinatedScheme scheme;
    SimOptions options;
    options.cost_model.kind = kind;
    Simulator simulator(network.get(), &caches, &scheme, options);
    simulator.Step(At(1.0, 0), true);
    // Cold miss: 1 + 5 + 25 tree delays + 125 server link.
    EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_latency, 156.0)
        << CostModelKindName(kind);
  }
}

}  // namespace
}  // namespace cascache::sim
