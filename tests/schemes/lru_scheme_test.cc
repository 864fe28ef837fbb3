#include "schemes/lru_scheme.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "testing/scenario.h"

namespace cascache::schemes {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;
using sim::CacheNodeConfig;
using sim::Simulator;

class LruSchemeTest : public ::testing::Test {
 protected:
  // Chain: leaf=3, 2, 1, root=0; object 0 and 1 of 100 bytes each.
  LruSchemeTest()
      : catalog_(MakeCatalog({{100, 0}, {100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {
    CacheNodeConfig config;
    config.mode = sim::CacheMode::kLru;
    config.capacity_bytes = 100;  // Each node holds exactly one object.
    caches_.Configure(config);
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<sim::Network> network_;
  sim::CacheSet caches_;
  LruScheme scheme_;
};

TEST_F(LruSchemeTest, PropertiesMatchPaperSetup) {
  EXPECT_EQ(scheme_.name(), "LRU");
  EXPECT_EQ(scheme_.cache_mode(), sim::CacheMode::kLru);
  EXPECT_FALSE(scheme_.uses_dcache());
}

TEST_F(LruSchemeTest, CachesEverywhereOnOriginMiss) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), true);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->Contains(0)) << "node " << v;
  }
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_write_bytes, 400.0);
}

TEST_F(LruSchemeTest, CachesOnlyBelowHitPoint) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);  // Object 0 everywhere.
  // Evict object 0 at the two lowest caches so the hit lands at node 1
  // (path index 2).
  caches_.node(3)->lru()->Erase(0);
  caches_.node(2)->lru()->Erase(0);
  simulator.Step(At(2.0, 0), true);
  // Hit at node 1; nodes 3 and 2 repopulated; node 0 untouched.
  EXPECT_TRUE(caches_.node(3)->Contains(0));
  EXPECT_TRUE(caches_.node(2)->Contains(0));
  const sim::MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.avg_hops, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_write_bytes, 200.0);
}

TEST_F(LruSchemeTest, EvictsLruOnContention) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);  // Object 0 everywhere.
  simulator.Step(At(2.0, 1), false);  // Object 1 replaces 0 (100-byte caches).
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(caches_.node(v)->Contains(0));
    EXPECT_TRUE(caches_.node(v)->Contains(1));
  }
}

TEST_F(LruSchemeTest, TouchOnHitProtectsRecency) {
  // Larger caches that fit both objects: hitting object 0 keeps it MRU.
  CacheNodeConfig config;
  config.mode = sim::CacheMode::kLru;
  config.capacity_bytes = 200;
  caches_.Configure(config);
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 1), false);
  simulator.Step(At(3.0, 0), false);  // Hit at the leaf; touch object 0.
  // Shrink to one object? Not possible live; instead verify LRU victim.
  EXPECT_EQ(caches_.node(3)->lru()->LruVictim(), 1u);
}

}  // namespace
}  // namespace cascache::schemes
