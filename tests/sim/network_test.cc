#include "sim/network.h"

#include <gtest/gtest.h>

#include "testing/scenario.h"

namespace cascache::sim {
namespace {

trace::ObjectCatalog SmallCatalog(uint32_t num_servers = 10) {
  trace::ObjectCatalog catalog;
  for (uint32_t i = 0; i < 50; ++i) {
    catalog.Add(100 + i, i % num_servers);
  }
  return catalog;
}

TEST(NetworkTest, BuildEnRoute) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  params.architecture = Architecture::kEnRoute;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok()) << net_or.status();
  Network& net = **net_or;
  EXPECT_EQ(net.num_nodes(), 100);
  EXPECT_EQ(net.architecture(), Architecture::kEnRoute);
  EXPECT_DOUBLE_EQ(net.server_link_delay(), 0.0);
  EXPECT_EQ(net.server_link_hops(), 0);
  EXPECT_GT(net.mean_object_size(), 0.0);
}

TEST(NetworkTest, BuildHierarchical) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  params.architecture = Architecture::kHierarchical;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok());
  Network& net = **net_or;
  EXPECT_EQ(net.num_nodes(), 40);  // Depth 4, fanout 3.
  EXPECT_GT(net.server_link_delay(), 0.0);
  EXPECT_EQ(net.server_link_hops(), 1);
  // All servers attach to the root.
  for (trace::ServerId s = 0; s < catalog.num_servers(); ++s) {
    EXPECT_EQ(net.ServerAttach(s), 0);
  }
}

TEST(NetworkTest, RejectsNullAndEmptyCatalog) {
  NetworkParams params;
  EXPECT_FALSE(Network::Build(params, nullptr).ok());
  trace::ObjectCatalog empty;
  EXPECT_FALSE(Network::Build(params, &empty).ok());
}

TEST(NetworkTest, EnRouteClientsAndServersOnManNodes) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  params.architecture = Architecture::kEnRoute;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok());
  Network& net = **net_or;
  // MAN ids are [50, 100) with the default Tiers parameters.
  for (trace::ClientId c = 0; c < 200; ++c) {
    const topology::NodeId n = net.RequesterNode(c);
    EXPECT_GE(n, 50);
    EXPECT_LT(n, 100);
  }
  for (trace::ServerId s = 0; s < catalog.num_servers(); ++s) {
    const topology::NodeId n = net.ServerAttach(s);
    EXPECT_GE(n, 50);
    EXPECT_LT(n, 100);
  }
}

TEST(NetworkTest, ClientAssignmentIsDeterministic) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  auto a = Network::Build(params, &catalog);
  auto b = Network::Build(params, &catalog);
  ASSERT_TRUE(a.ok() && b.ok());
  for (trace::ClientId c = 0; c < 100; ++c) {
    EXPECT_EQ((*a)->RequesterNode(c), (*b)->RequesterNode(c));
  }
}

TEST(NetworkTest, PathReachesServerAttach) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok());
  Network& net = **net_or;
  const topology::NodeId from = net.RequesterNode(0);
  const auto path = net.PathToServer(from, 3);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), from);
  EXPECT_EQ(path.back(), net.ServerAttach(3));
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_GT(net.LinkDelay(path[i], path[i + 1]), 0.0);
  }
}

TEST(NetworkTest, ConfigureCachesResetsState) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok());
  CacheSet caches = (*net_or)->MakeCacheSet();
  EXPECT_EQ(caches.num_nodes(), (*net_or)->num_nodes());

  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches.Configure(config);
  caches.node(0)->lru()->Insert(1, 100);
  EXPECT_TRUE(caches.node(0)->Contains(1));

  config.mode = CacheMode::kCost;
  config.dcache_entries = 4;
  caches.Configure(config);
  EXPECT_FALSE(caches.node(0)->Contains(1));
  EXPECT_EQ(caches.node(0)->mode(), CacheMode::kCost);
}

TEST(NetworkTest, MeanClientServerHopsIsPlausible) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok());
  const double hops = (*net_or)->MeanClientServerHops();
  // Paper Table 1 reports ~12 for this topology class.
  EXPECT_GT(hops, 5.0);
  EXPECT_LT(hops, 25.0);
}

TEST(NetworkTest, HierarchicalPathIsLeafToRoot) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  params.architecture = Architecture::kHierarchical;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok());
  Network& net = **net_or;
  const topology::NodeId leaf = net.RequesterNode(17);
  const auto path = net.PathToServer(leaf, 0);
  EXPECT_EQ(path.size(), 4u);  // Leaf, two internals, root.
  EXPECT_EQ(path.back(), 0);
}

TEST(ArchitectureNameTest, Names) {
  EXPECT_STREQ(ArchitectureName(Architecture::kEnRoute), "en-route");
  EXPECT_STREQ(ArchitectureName(Architecture::kHierarchical),
               "hierarchical");
}

}  // namespace
}  // namespace cascache::sim
