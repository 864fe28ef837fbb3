#include "topology/shortest_path.h"

#include <limits>

#include <gtest/gtest.h>

#include "util/random.h"

namespace cascache::topology {
namespace {

Graph LineGraph(int n, double delay = 1.0) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) {
    CASCACHE_CHECK_OK(g.AddEdge(i, i + 1, delay));
  }
  return g;
}

TEST(ShortestPathTest, LineGraphDistances) {
  Graph g = LineGraph(5, 2.0);
  const ShortestPathTree tree = BuildShortestPathTree(g, 0);
  for (int v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(tree.dist[v], 2.0 * v);
    EXPECT_EQ(tree.hops[v], v);
  }
  EXPECT_EQ(tree.parent[0], kInvalidNode);
  EXPECT_EQ(tree.parent[3], 2);
}

TEST(ShortestPathTest, PathToRootOrder) {
  Graph g = LineGraph(4);
  const ShortestPathTree tree = BuildShortestPathTree(g, 3);
  const std::vector<NodeId> path = tree.PathToRoot(0);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(tree.PathToRoot(3), std::vector<NodeId>{3});
}

TEST(ShortestPathTest, PrefersCheaperLongerPath) {
  // 0-1 direct cost 10; 0-2-1 cost 3.
  Graph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 10.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 1, 2.0).ok());
  const ShortestPathTree tree = BuildShortestPathTree(g, 1);
  EXPECT_DOUBLE_EQ(tree.dist[0], 3.0);
  EXPECT_EQ(tree.PathToRoot(0), (std::vector<NodeId>{0, 2, 1}));
}

TEST(ShortestPathTest, UnreachableNodes) {
  Graph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  const ShortestPathTree tree = BuildShortestPathTree(g, 0);
  EXPECT_FALSE(tree.Reachable(2));
  EXPECT_TRUE(tree.Reachable(1));
  EXPECT_EQ(tree.hops[2], -1);
  EXPECT_EQ(tree.dist[2], std::numeric_limits<double>::infinity());
}

TEST(ShortestPathTest, DeterministicTieBreaking) {
  // Two equal-cost routes 0->1->3 and 0->2->3; parent of 3 must be the
  // smaller node id (1), and repeated builds agree.
  Graph g(4);
  ASSERT_TRUE(g.AddEdge(3, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(3, 2, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 1.0).ok());
  const ShortestPathTree a = BuildShortestPathTree(g, 0);
  const ShortestPathTree b = BuildShortestPathTree(g, 0);
  EXPECT_EQ(a.parent[3], b.parent[3]);
  EXPECT_EQ(a.parent[3], 1);
}

TEST(ShortestPathTest, FilterCutsLinksAndTreeIsReused) {
  // Two routes from 3 to 0: 3-1-0 (delay 2) and 3-2-0 (delay 4).
  Graph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 2.0).ok());
  const auto all = [](NodeId, NodeId) { return true; };
  ShortestPathTree tree;
  BuildShortestPathTree(g, 0, all, &tree);
  EXPECT_EQ(tree.PathToRoot(3), (std::vector<NodeId>{3, 1, 0}));

  // Cutting link 1-3 (asked in either direction) detours 3 through 2.
  const auto cut = [](NodeId u, NodeId v) {
    return !((u == 1 && v == 3) || (u == 3 && v == 1));
  };
  BuildShortestPathTree(g, 0, cut, &tree);
  EXPECT_EQ(tree.PathToRoot(3), (std::vector<NodeId>{3, 2, 0}));
  EXPECT_DOUBLE_EQ(tree.dist[3], 4.0);
  EXPECT_EQ(tree.hops[3], 2);

  // A node no usable link reaches is unreachable.
  BuildShortestPathTree(
      g, 0, [](NodeId, NodeId v) { return v != 3; }, &tree);
  EXPECT_FALSE(tree.Reachable(3));
  EXPECT_EQ(tree.parent[3], kInvalidNode);
  EXPECT_EQ(tree.hops[3], -1);

  // Reusing the tree for another root leaves nothing of the last build.
  BuildShortestPathTree(g, 3, all, &tree);
  EXPECT_EQ(tree.root, 3);
  EXPECT_EQ(tree.PathToRoot(0), (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(tree.parent[3], kInvalidNode);
}

// Property test: Dijkstra distances on random graphs match a
// Floyd-Warshall oracle.
class DijkstraVsFloydWarshall : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraVsFloydWarshall, DistancesAgree) {
  util::Rng rng(GetParam());
  const int n = 24;
  Graph g(n);
  // Random connected graph: spanning tree + extra edges.
  for (int v = 1; v < n; ++v) {
    const NodeId parent = static_cast<NodeId>(rng.NextUint64(v));
    ASSERT_TRUE(g.AddEdge(v, parent, rng.NextDouble(0.1, 5.0)).ok());
  }
  for (int extra = 0; extra < 20; ++extra) {
    const NodeId u = static_cast<NodeId>(rng.NextUint64(n));
    const NodeId v = static_cast<NodeId>(rng.NextUint64(n));
    if (u == v || g.HasEdge(u, v)) continue;
    ASSERT_TRUE(g.AddEdge(u, v, rng.NextDouble(0.1, 5.0)).ok());
  }

  // Floyd-Warshall oracle.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> fw(n, std::vector<double>(n, kInf));
  for (int v = 0; v < n; ++v) fw[v][v] = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    for (const Edge& e : g.Neighbors(u)) fw[u][e.to] = e.delay;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        fw[i][j] = std::min(fw[i][j], fw[i][k] + fw[k][j]);
      }
    }
  }

  for (int s = 0; s < n; ++s) {
    const std::vector<double> dist = BuildShortestPathTree(g, s).dist;
    for (int t = 0; t < n; ++t) {
      EXPECT_NEAR(dist[t], fw[s][t], 1e-9) << s << "->" << t;
    }
  }

  // Path reconstruction is consistent: summed link delays == dist.
  const ShortestPathTree tree = BuildShortestPathTree(g, 0);
  for (int v = 0; v < n; ++v) {
    const std::vector<NodeId> path = tree.PathToRoot(v);
    double sum = 0.0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      sum += g.EdgeDelay(path[i], path[i + 1]);
    }
    EXPECT_NEAR(sum, tree.dist[v], 1e-9);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, tree.hops[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DijkstraVsFloydWarshall,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Undirected graphs: the all-pairs delay matrix must be symmetric with a
// zero diagonal, and satisfy the triangle inequality.
TEST(ShortestPathTest, AllPairsMatrixProperties) {
  util::Rng rng(404);
  const int n = 16;
  Graph g(n);
  for (int v = 1; v < n; ++v) {
    ASSERT_TRUE(
        g.AddEdge(v, static_cast<NodeId>(rng.NextUint64(v)),
                  rng.NextDouble(0.1, 3.0))
            .ok());
  }
  std::vector<std::vector<double>> dist;
  for (NodeId root = 0; root < n; ++root) {
    dist.push_back(BuildShortestPathTree(g, root).dist);
  }
  for (int a = 0; a < n; ++a) {
    EXPECT_DOUBLE_EQ(dist[a][a], 0.0);
    for (int b = 0; b < n; ++b) {
      EXPECT_NEAR(dist[a][b], dist[b][a], 1e-9);
      for (int c = 0; c < n; ++c) {
        EXPECT_LE(dist[a][b], dist[a][c] + dist[c][b] + 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace cascache::topology
