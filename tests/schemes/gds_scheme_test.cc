#include "schemes/gds_scheme.h"

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

class GdsSchemeTest : public ::testing::Test {
 protected:
  GdsSchemeTest()
      : catalog_(MakeCatalog({{100, 0}, {100, 0}, {100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {}

  void Configure(sim::CacheMode mode, uint64_t capacity) {
    CacheNodeConfig config;
    config.mode = mode;
    config.capacity_bytes = capacity;
    caches_.Configure(config);
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<sim::Network> network_;
  sim::CacheSet caches_;
};

TEST_F(GdsSchemeTest, GdsProperties) {
  GdsScheme scheme;
  EXPECT_EQ(scheme.name(), "GDS");
  EXPECT_EQ(scheme.cache_mode(), sim::CacheMode::kGds);
  EXPECT_FALSE(scheme.uses_dcache());
}

TEST_F(GdsSchemeTest, GdsCachesEverywhere) {
  Configure(sim::CacheMode::kGds, 1000);
  GdsScheme scheme;
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), true);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->Contains(0)) << "node " << v;
  }
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_write_bytes, 400.0);
}

TEST_F(GdsSchemeTest, GdsCreditArithmeticOnChain) {
  // Under the latency-proportional cost model the GDS credit of every
  // object is delay/mean_size + L (cost/size = delay * (size/mean) / size),
  // so eviction ordering is driven purely by the inflation value at the
  // last refresh — verify the credit and inflation bookkeeping exactly.
  Configure(sim::CacheMode::kGds, 200);  // Two 100-byte objects per node.
  GdsScheme scheme;
  Simulator simulator(network_.get(), &caches_, &scheme);

  simulator.Step(At(1.0, 0), false);
  EXPECT_DOUBLE_EQ(caches_.node(3)->gds()->CreditOf(0), 0.01);
  simulator.Step(At(2.0, 1), false);
  EXPECT_DOUBLE_EQ(caches_.node(3)->gds()->CreditOf(1), 0.01);

  // Object 2 needs 100 bytes: the tie between objects 0 and 1 breaks by
  // id, evicting object 0 and advancing L to its credit.
  simulator.Step(At(3.0, 2), false);
  EXPECT_FALSE(caches_.node(3)->Contains(0));
  EXPECT_DOUBLE_EQ(caches_.node(3)->gds()->inflation(), 0.01);
  EXPECT_DOUBLE_EQ(caches_.node(3)->gds()->CreditOf(2), 0.02);

  // Re-requesting object 0 now evicts object 1 (minimum credit 0.01).
  simulator.Step(At(4.0, 0), false);
  EXPECT_TRUE(caches_.node(3)->Contains(0));
  EXPECT_TRUE(caches_.node(3)->Contains(2));
  EXPECT_FALSE(caches_.node(3)->Contains(1));
  EXPECT_DOUBLE_EQ(caches_.node(3)->gds()->CreditOf(0), 0.02);
}

TEST_F(GdsSchemeTest, LfuProperties) {
  LfuScheme scheme;
  EXPECT_EQ(scheme.name(), "LFU");
  EXPECT_EQ(scheme.cache_mode(), sim::CacheMode::kLfu);
  EXPECT_FALSE(scheme.uses_dcache());
}

TEST_F(GdsSchemeTest, LfuCachesEverywhereAndCounts) {
  Configure(sim::CacheMode::kLfu, 1000);
  LfuScheme scheme;
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);  // Hit at the leaf.
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->Contains(0));
  }
  EXPECT_EQ(caches_.node(3)->lfu()->CountOf(0), 2u);
  EXPECT_EQ(caches_.node(0)->lfu()->CountOf(0), 1u);  // Root untouched.
}

TEST_F(GdsSchemeTest, LfuKeepsHotObjectUnderContention) {
  Configure(sim::CacheMode::kLfu, 100);
  LfuScheme scheme;
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);
  simulator.Step(At(3.0, 0), false);  // Count 3 at the leaf.
  simulator.Step(At(4.0, 1), false);  // One object per node: evicts 0.
  // LFU is in-cache only: insertion must evict the sole resident.
  EXPECT_TRUE(caches_.node(3)->Contains(1));
  EXPECT_FALSE(caches_.node(3)->Contains(0));
}

TEST_F(GdsSchemeTest, FactoryBuildsNewSchemes) {
  auto gds = MakeScheme({.kind = SchemeKind::kGds});
  ASSERT_TRUE(gds.ok());
  EXPECT_EQ((*gds)->name(), "GDS");
  auto lfu = MakeScheme({.kind = SchemeKind::kLfu});
  ASSERT_TRUE(lfu.ok());
  EXPECT_EQ((*lfu)->name(), "LFU");
  EXPECT_EQ(SchemeSpec{.kind = SchemeKind::kGds}.Label(), "GDS");
  EXPECT_EQ(SchemeSpec{.kind = SchemeKind::kLfu}.Label(), "LFU");
}

}  // namespace
}  // namespace cascache::schemes
