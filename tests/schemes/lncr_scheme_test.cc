#include "schemes/lncr_scheme.h"

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

class LncrSchemeTest : public ::testing::Test {
 protected:
  LncrSchemeTest()
      : catalog_(MakeCatalog({{100, 0}, {100, 0}, {100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {
    Configure(1000);
  }

  void Configure(uint64_t capacity) {
    CacheNodeConfig config;
    config.mode = sim::CacheMode::kCost;
    config.capacity_bytes = capacity;
    config.dcache_entries = 16;
    caches_.Configure(config);
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<sim::Network> network_;
  sim::CacheSet caches_;
  LncrScheme scheme_;
};

TEST_F(LncrSchemeTest, Properties) {
  EXPECT_EQ(scheme_.name(), "LNC-R");
  EXPECT_EQ(scheme_.cache_mode(), sim::CacheMode::kCost);
  EXPECT_TRUE(scheme_.uses_dcache());
}

TEST_F(LncrSchemeTest, CachesEverywhereLikeLru) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), true);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->Contains(0)) << "node " << v;
  }
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_write_bytes, 400.0);
}

TEST_F(LncrSchemeTest, MissPenaltyIsImmediateUpstreamLink) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), true);
  // Chain with unit link delays and size_scale 1: every node's miss
  // penalty for the object is 1.0 (its upstream link), including the root
  // whose upstream is the virtual server link (delay 1.0 under growth 1).
  for (topology::NodeId v = 0; v < 4; ++v) {
    const cache::ObjectDescriptor* desc =
        caches_.node(v)->FindDescriptor(0);
    ASSERT_NE(desc, nullptr) << "node " << v;
    EXPECT_DOUBLE_EQ(desc->miss_penalty, 1.0) << "node " << v;
  }
}

TEST_F(LncrSchemeTest, EvictsLeastNormalizedCostLoss) {
  Configure(200);  // Two objects per node.
  Simulator simulator(network_.get(), &caches_, &scheme_);
  // Make object 0 hot (three accesses) and object 1 cold.
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);
  simulator.Step(At(3.0, 0), false);
  simulator.Step(At(4.0, 1), false);
  // Inserting object 2 must evict the cold object 1 at the leaf.
  simulator.Step(At(5.0, 2), false);
  EXPECT_TRUE(caches_.node(3)->Contains(0));
  EXPECT_FALSE(caches_.node(3)->Contains(1));
  EXPECT_TRUE(caches_.node(3)->Contains(2));
}

TEST_F(LncrSchemeTest, DCacheTracksNonCachedObjects) {
  Configure(100);  // One object per node.
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 1), false);  // Evicts object 0 everywhere.
  // Object 0's descriptor must survive in the leaf's d-cache (demoted on
  // eviction) with its access history.
  EXPECT_TRUE(caches_.node(3)->ncl()->Find(0).dcached());
  const cache::ObjectDescriptor* desc = caches_.node(3)->FindDescriptor(0);
  ASSERT_NE(desc, nullptr);
  EXPECT_GE(desc->num_accesses, 1);
}

TEST_F(LncrSchemeTest, FrequencyHistorySurvivesEvictionAndDrivesReplacement) {
  Configure(100);
  Simulator simulator(network_.get(), &caches_, &scheme_);
  // Hammer object 0, then push it out with object 1, then re-request 0:
  // its remembered frequency should let it displace the cold object 1.
  for (double t = 1.0; t <= 5.0; t += 1.0) simulator.Step(At(t, 0), false);
  simulator.Step(At(6.0, 1), false);
  EXPECT_FALSE(caches_.node(3)->Contains(0));
  simulator.Step(At(7.0, 0), false);
  EXPECT_TRUE(caches_.node(3)->Contains(0));
  EXPECT_FALSE(caches_.node(3)->Contains(1));
}

TEST_F(LncrSchemeTest, HitRefreshesDescriptorAtServingCache) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);  // Hit at the leaf.
  const cache::ObjectDescriptor* desc =
      caches_.node(3)->FindDescriptor(0);
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->num_accesses, 2);
}

}  // namespace
}  // namespace cascache::schemes
