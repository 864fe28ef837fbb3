#include "sim/network.h"

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "schemes/lru_scheme.h"
#include "sim/simulator.h"
#include "testing/scenario.h"
#include "topology/shortest_path.h"
#include "trace/synthetic.h"

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
  const auto& path = net.ClientRoute(from, 3).nodes;
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
  const auto& path = net.ClientRoute(leaf, 0).nodes;
  EXPECT_EQ(path.size(), 4u);  // Leaf, two internals, root.
  EXPECT_EQ(path.back(), 0);
}

/// Every table route equals the path between its endpoints along the
/// shortest-path tree rooted at its server attach node, its delays are
/// the graph's link delays, and its prefix is their left-to-right running
/// sum, bit for bit. The table holds exactly
/// one route per (client site, in-use server site) pair, and every
/// (client, server) request resolves to the route between its attach
/// points.
void ExpectRouteTableMatchesRouting(const Network& net,
                                   uint32_t num_servers) {
  std::set<topology::NodeId> sites;
  std::set<topology::NodeId> attach_points;
  std::set<std::pair<topology::NodeId, topology::NodeId>> pairs;
  for (const Route& route : net.routes()) {
    ASSERT_FALSE(route.nodes.empty());
    const topology::NodeId from = route.nodes.front();
    const topology::NodeId to = route.nodes.back();
    sites.insert(from);
    attach_points.insert(to);
    pairs.insert({from, to});
    const topology::ShortestPathTree tree =
        topology::BuildShortestPathTree(net.graph(), to);
    EXPECT_EQ(route.nodes, tree.PathToRoot(from));
    ASSERT_EQ(route.delays.size() + 1, route.nodes.size());
    ASSERT_EQ(route.delay_prefix.size(), route.nodes.size());
    double sum = 0.0;
    EXPECT_EQ(route.delay_prefix[0], 0.0);
    for (size_t i = 0; i + 1 < route.nodes.size(); ++i) {
      EXPECT_EQ(route.delays[i],
                net.LinkDelay(route.nodes[i], route.nodes[i + 1]));
      sum += route.delays[i];
      EXPECT_EQ(route.delay_prefix[i + 1], sum);
    }
  }
  EXPECT_EQ(pairs.size(), net.routes().size());
  EXPECT_EQ(net.routes().size(), sites.size() * attach_points.size());
  for (trace::ClientId c = 0; c < 200; ++c) {
    const topology::NodeId requester = net.RequesterNode(c);
    for (trace::ServerId s = 0; s < num_servers; ++s) {
      const Route& route = net.ClientRoute(requester, s);
      EXPECT_EQ(route.nodes.front(), requester);
      EXPECT_EQ(route.nodes.back(), net.ServerAttach(s));
    }
  }
}

TEST(NetworkTest, RouteTableMatchesRoutingOnTiers) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  params.architecture = Architecture::kEnRoute;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok());
  ExpectRouteTableMatchesRouting(**net_or, catalog.num_servers());
}

TEST(NetworkTest, RouteTableMatchesRoutingOnDefaultTree) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  NetworkParams params;
  params.architecture = Architecture::kHierarchical;
  auto net_or = Network::Build(params, &catalog);
  ASSERT_TRUE(net_or.ok());
  ASSERT_EQ((*net_or)->routes().size(), 27u);  // One per leaf.
  ExpectRouteTableMatchesRouting(**net_or, catalog.num_servers());
}

/// A 1,365-node tree: depth 6, fanout 4.
NetworkParams DeepTreeParams() {
  NetworkParams params;
  params.architecture = Architecture::kHierarchical;
  params.tree.depth = 6;
  params.tree.fanout = 4;
  return params;
}

TEST(NetworkTest, RouteTableMatchesRoutingOnDeepTree) {
  const trace::ObjectCatalog catalog = SmallCatalog();
  auto net_or = Network::Build(DeepTreeParams(), &catalog);
  ASSERT_TRUE(net_or.ok());
  ASSERT_EQ((*net_or)->num_nodes(), 1365);
  ASSERT_EQ((*net_or)->routes().size(), 1024u);  // One per leaf.
  ExpectRouteTableMatchesRouting(**net_or, catalog.num_servers());
}

TEST(NetworkTest, DeepTreeReplayReconciles) {
  trace::WorkloadParams wp;
  wp.num_objects = 300;
  wp.num_requests = 4'000;
  wp.num_clients = 500;
  wp.num_servers = 10;
  auto workload_or = trace::GenerateWorkload(wp);
  ASSERT_TRUE(workload_or.ok());
  auto net_or = Network::Build(DeepTreeParams(), &workload_or->catalog);
  ASSERT_TRUE(net_or.ok());
  CacheSet caches = (*net_or)->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;
  // Link outages make some requests retry and fail on the tree, which
  // has no detours.
  options.faults.link_mtbf = 50.0;
  options.faults.link_downtime = 5.0;
  Simulator simulator(net_or->get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.Run(*workload_or, 20'000).ok());
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.requests, 2'000u);
  EXPECT_EQ(s.requests, s.served_requests + s.failed_requests);
  EXPECT_GT(s.cache_hits, 0u);
  EXPECT_GT(s.retries, 0u);
}

TEST(ArchitectureNameTest, Names) {
  EXPECT_STREQ(ArchitectureName(Architecture::kEnRoute), "en-route");
  EXPECT_STREQ(ArchitectureName(Architecture::kHierarchical),
               "hierarchical");
}

}  // namespace
}  // namespace cascache::sim
