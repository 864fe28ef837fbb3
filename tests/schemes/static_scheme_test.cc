#include "schemes/static_scheme.h"

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/simulator.h"
#include "testing/scenario.h"

namespace cascache::schemes {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;
using sim::CacheNodeConfig;
using sim::Simulator;

class StaticSchemeTest : public ::testing::Test {
 protected:
  // Objects: 0 and 1 are 100 B, object 2 is 200 B.
  StaticSchemeTest()
      : catalog_(MakeCatalog({{100, 0}, {100, 0}, {200, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {
    CacheNodeConfig config;
    config.mode = sim::CacheMode::kLru;
    config.capacity_bytes = 200;
    caches_.Configure(config);
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<sim::Network> network_;
  sim::CacheSet caches_;
};

TEST_F(StaticSchemeTest, Properties) {
  StaticScheme scheme(10);
  EXPECT_EQ(scheme.name(), "STATIC");
  EXPECT_EQ(scheme.cache_mode(), sim::CacheMode::kLru);
  EXPECT_FALSE(scheme.uses_dcache());
  EXPECT_FALSE(scheme.frozen());
}

TEST_F(StaticSchemeTest, NothingCachedDuringLearning) {
  StaticScheme scheme(100);
  Simulator simulator(network_.get(), &caches_, &scheme);
  for (double t = 1.0; t <= 5.0; t += 1.0) simulator.Step(At(t, 0), false);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(caches_.node(v)->Contains(0));
  }
  EXPECT_FALSE(scheme.frozen());
  EXPECT_EQ(scheme.requests_seen(), 5u);
}

TEST_F(StaticSchemeTest, FreezeFillsByDemandDensity) {
  StaticScheme scheme(6);
  Simulator simulator(network_.get(), &caches_, &scheme);
  // Demand: object 0 x3, object 2 x2, object 1 x1. Density (count/size):
  // obj0 3/100 > obj1 1/100 > obj2 2/200. Capacity 200 fits obj0+obj1.
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);
  simulator.Step(At(3.0, 2), false);
  simulator.Step(At(4.0, 2), false);
  simulator.Step(At(5.0, 1), false);
  simulator.Step(At(6.0, 0), false);  // Sixth request triggers the freeze.
  ASSERT_TRUE(scheme.frozen());
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->Contains(0)) << "node " << v;
    EXPECT_TRUE(caches_.node(v)->Contains(1)) << "node " << v;
    EXPECT_FALSE(caches_.node(v)->Contains(2)) << "node " << v;
  }
}

TEST_F(StaticSchemeTest, ContentsNeverChangeAfterFreeze) {
  StaticScheme scheme(3);
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);
  simulator.Step(At(3.0, 0), false);  // Freeze: object 0 everywhere.
  ASSERT_TRUE(scheme.frozen());
  // Hammer object 1; it must never displace object 0.
  for (double t = 4.0; t <= 20.0; t += 1.0) simulator.Step(At(t, 1), false);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->Contains(0));
    EXPECT_FALSE(caches_.node(v)->Contains(1));
  }
}

TEST_F(StaticSchemeTest, FrozenHitsServeRequests) {
  StaticScheme scheme(2);
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);  // Freeze.
  simulator.Step(At(3.0, 0), true);   // Hit at the leaf.
  const sim::MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 1.0);
  EXPECT_DOUBLE_EQ(s.avg_hops, 0.0);
}

TEST(StaticSchemeFactoryTest, RunnerDefaultsFreezeToWarmup) {
  sim::ExperimentConfig config;
  config.network.architecture = sim::Architecture::kHierarchical;
  config.network.tree.depth = 3;
  config.workload.num_objects = 300;
  config.workload.num_requests = 20'000;
  config.workload.num_clients = 50;
  config.workload.num_servers = 10;
  config.cache_fractions = {0.05};
  config.schemes = {{.kind = SchemeKind::kStatic}};
  auto runner_or = sim::ExperimentRunner::Create(config);
  ASSERT_TRUE(runner_or.ok());
  auto results_or = (*runner_or)->RunAll();
  ASSERT_TRUE(results_or.ok());
  EXPECT_EQ((*results_or)[0].scheme, "STATIC");
  // Frozen placement serves a meaningful share of the measured half.
  EXPECT_GT((*results_or)[0].metrics.byte_hit_ratio, 0.05);
}

TEST(StaticSchemeFactoryTest, DirectMakeRequiresFreeze) {
  EXPECT_FALSE(MakeScheme({.kind = SchemeKind::kStatic}).ok());
  auto ok = MakeScheme(
      {.kind = SchemeKind::kStatic, .static_freeze_requests = 100});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->name(), "STATIC");
  EXPECT_EQ(SchemeSpec{.kind = SchemeKind::kStatic}.Label(), "STATIC");
}

}  // namespace
}  // namespace cascache::schemes
