// Tests for heterogeneous per-level cache provisioning
// (SimOptions::level_capacity_growth).

#include <gtest/gtest.h>

#include "schemes/lru_scheme.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace cascache::sim {
namespace {

trace::Workload SmallWorkload() {
  trace::WorkloadParams params;
  params.num_objects = 500;
  params.num_requests = 10'000;
  params.num_clients = 50;
  params.num_servers = 10;
  params.seed = 9;
  auto workload_or = trace::GenerateWorkload(params);
  CASCACHE_CHECK_OK(workload_or.status());
  return std::move(workload_or).value();
}

std::unique_ptr<Network> HierNetwork(const trace::ObjectCatalog* catalog) {
  NetworkParams params;
  params.architecture = Architecture::kHierarchical;
  auto net_or = Network::Build(params, catalog);
  CASCACHE_CHECK_OK(net_or.status());
  return std::move(net_or).value();
}

TEST(CapacityProfileTest, NodeLevelsExposed) {
  const trace::Workload workload = SmallWorkload();
  auto network = HierNetwork(&workload.catalog);
  EXPECT_EQ(network->NodeLevel(0), 3);  // Root.
  EXPECT_EQ(network->MaxNodeLevel(), 3);
  int leaves = 0;
  for (topology::NodeId v = 0; v < network->num_nodes(); ++v) {
    if (network->NodeLevel(v) == 0) ++leaves;
  }
  EXPECT_EQ(leaves, 27);
}

TEST(CapacityProfileTest, EnRouteIsFlat) {
  const trace::Workload workload = SmallWorkload();
  NetworkParams params;
  params.architecture = Architecture::kEnRoute;
  auto net_or = Network::Build(params, &workload.catalog);
  ASSERT_TRUE(net_or.ok());
  EXPECT_EQ((*net_or)->MaxNodeLevel(), 0);
  EXPECT_EQ((*net_or)->NodeLevel(42), 0);
}

TEST(CapacityProfileTest, GrowthConcentratesCapacityUpward) {
  const trace::Workload workload = SmallWorkload();
  auto network = HierNetwork(&workload.catalog);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;
  options.level_capacity_growth = 4.0;
  Simulator simulator(network.get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.Run(workload, 100'000).ok());

  const uint64_t root_capacity = caches.node(0)->capacity_bytes();
  uint64_t leaf_capacity = 0;
  uint64_t total = 0;
  for (topology::NodeId v = 0; v < network->num_nodes(); ++v) {
    total += caches.node(v)->capacity_bytes();
    if (network->NodeLevel(v) == 0) {
      leaf_capacity = caches.node(v)->capacity_bytes();
    }
  }
  // Root holds 4^3 = 64x a leaf's capacity.
  EXPECT_NEAR(static_cast<double>(root_capacity) /
                  static_cast<double>(leaf_capacity),
              64.0, 1.0);
  // Total budget preserved (40 nodes x 100k), up to rounding.
  EXPECT_NEAR(static_cast<double>(total), 40.0 * 100'000, 64.0);
}

TEST(CapacityProfileTest, ShrinkConcentratesCapacityAtLeaves) {
  const trace::Workload workload = SmallWorkload();
  auto network = HierNetwork(&workload.catalog);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;
  options.level_capacity_growth = 0.5;
  Simulator simulator(network.get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.Run(workload, 100'000).ok());
  uint64_t leaf_capacity = 0;
  for (topology::NodeId v = 0; v < network->num_nodes(); ++v) {
    if (network->NodeLevel(v) == 0) {
      leaf_capacity = caches.node(v)->capacity_bytes();
      break;
    }
  }
  EXPECT_GT(leaf_capacity, caches.node(0)->capacity_bytes());
}

TEST(CapacityProfileTest, UniformGrowthMatchesPlainConfigure) {
  const trace::Workload workload = SmallWorkload();
  auto network = HierNetwork(&workload.catalog);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;
  options.level_capacity_growth = 1.0;
  Simulator simulator(network.get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.Run(workload, 12'345).ok());
  for (topology::NodeId v = 0; v < network->num_nodes(); ++v) {
    EXPECT_EQ(caches.node(v)->capacity_bytes(), 12'345u);
  }
}

TEST(CapacityProfileTest, RejectsNonPositiveGrowth) {
  const trace::Workload workload = SmallWorkload();
  auto network = HierNetwork(&workload.catalog);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;
  options.level_capacity_growth = 0.0;
  Simulator simulator(network.get(), &caches, &scheme, options);
  EXPECT_FALSE(simulator.Run(workload, 1000).ok());
}

}  // namespace
}  // namespace cascache::sim
