#include "schemes/modulo_scheme.h"

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

// Chain with 4 cache levels: path from the leaf is [3, 2, 1, 0(root)],
// then one virtual hop to the origin (hierarchical), as in the paper's
// discussion of MODULO leaving levels 1-3 unused at radius 4.
class ModuloSchemeTest : public ::testing::Test {
 protected:
  ModuloSchemeTest()
      : catalog_(MakeCatalog({{100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {
    CacheNodeConfig config;
    config.mode = sim::CacheMode::kLru;
    config.capacity_bytes = 1000;
    caches_.Configure(config);
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<sim::Network> network_;
  sim::CacheSet caches_;
};

TEST_F(ModuloSchemeTest, NameIncludesRadius) {
  EXPECT_EQ(ModuloScheme(4).name(), "MODULO(4)");
  EXPECT_EQ(ModuloScheme(4).radius(), 4);
  EXPECT_FALSE(ModuloScheme(4).uses_dcache());
}

TEST_F(ModuloSchemeTest, RadiusFourUsesOnlyLeafInHierarchy) {
  // Origin-served request: serving point is 4 hops above the leaf (3 tree
  // links + the virtual server link). Only the leaf (distance 4) caches.
  ModuloScheme scheme(4);
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), true);
  EXPECT_TRUE(caches_.node(3)->Contains(0));   // Leaf.
  EXPECT_FALSE(caches_.node(2)->Contains(0));  // Level 1.
  EXPECT_FALSE(caches_.node(1)->Contains(0));  // Level 2.
  EXPECT_FALSE(caches_.node(0)->Contains(0));  // Root.
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_write_bytes, 100.0);
}

TEST_F(ModuloSchemeTest, RadiusOneBehavesLikeLru) {
  ModuloScheme scheme(1);
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), true);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->Contains(0)) << "node " << v;
  }
}

TEST_F(ModuloSchemeTest, RadiusTwoPlacesEveryOtherNode) {
  // Distances from the serving point: leaf=4, node2=3, node1=2, root=1.
  ModuloScheme scheme(2);
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), true);
  EXPECT_TRUE(caches_.node(3)->Contains(0));   // Distance 4.
  EXPECT_FALSE(caches_.node(2)->Contains(0));  // Distance 3.
  EXPECT_TRUE(caches_.node(1)->Contains(0));   // Distance 2.
  EXPECT_FALSE(caches_.node(0)->Contains(0));  // Distance 1.
}

TEST_F(ModuloSchemeTest, PlacementMeasuredFromHitPoint) {
  ModuloScheme scheme(2);
  Simulator simulator(network_.get(), &caches_, &scheme);
  simulator.Step(At(1.0, 0), false);  // Object at nodes 3 and 1.
  caches_.node(3)->lru()->Erase(0);
  // Next request hits at node 1 (path index 2). Distances below the hit:
  // node2=1, leaf=2 -> only the leaf caches.
  simulator.Step(At(2.0, 0), true);
  EXPECT_TRUE(caches_.node(3)->Contains(0));
  EXPECT_FALSE(caches_.node(2)->Contains(0));
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_hops, 2.0);
}

TEST_F(ModuloSchemeTest, TouchesHitCache) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}, {100, 0}});
  auto network = MakeChainNetwork(&catalog, 4);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = sim::CacheMode::kLru;
  config.capacity_bytes = 200;
  caches.Configure(config);
  ModuloScheme scheme(4);
  Simulator simulator(network.get(), &caches, &scheme);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 1), false);
  simulator.Step(At(3.0, 0), false);  // Hit at leaf: touch object 0.
  EXPECT_EQ(caches.node(3)->lru()->LruVictim(), 1u);
}

TEST(ModuloFactoryTest, RejectsNonPositiveRadius) {
  EXPECT_FALSE(MakeScheme({.kind = SchemeKind::kModulo, .modulo_radius = 0})
                   .ok());
  EXPECT_TRUE(MakeScheme({.kind = SchemeKind::kModulo, .modulo_radius = 3})
                  .ok());
}

}  // namespace
}  // namespace cascache::schemes
