#include "topology/shortest_path.h"

#include <limits>
#include <queue>

namespace cascache::topology {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool ShortestPathTree::Reachable(NodeId v) const {
  return v >= 0 && static_cast<size_t>(v) < dist.size() &&
         dist[static_cast<size_t>(v)] < kInf;
}

std::vector<NodeId> ShortestPathTree::PathToRoot(NodeId from) const {
  CASCACHE_CHECK(Reachable(from));
  std::vector<NodeId> path;
  NodeId v = from;
  while (v != kInvalidNode) {
    path.push_back(v);
    if (v == root) break;
    v = parent[static_cast<size_t>(v)];
  }
  CASCACHE_CHECK_MSG(path.back() == root, "broken parent chain");
  return path;
}

void BuildShortestPathTree(const Graph& graph, NodeId root,
                           const LinkFilter& usable, ShortestPathTree* out) {
  CASCACHE_CHECK(graph.IsValidNode(root));
  ShortestPathTree& tree = *out;
  const size_t n = static_cast<size_t>(graph.num_nodes());
  tree.root = root;
  tree.dist.assign(n, kInf);
  tree.parent.assign(n, kInvalidNode);
  tree.hops.assign(n, -1);

  using Item = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  tree.dist[static_cast<size_t>(root)] = 0.0;
  tree.hops[static_cast<size_t>(root)] = 0;
  queue.emplace(0.0, root);

  std::vector<bool> done(n, false);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (done[static_cast<size_t>(u)]) continue;
    done[static_cast<size_t>(u)] = true;
    for (const Edge& e : graph.Neighbors(u)) {
      const size_t v = static_cast<size_t>(e.to);
      if (done[v] || !usable(u, e.to)) continue;
      const double nd = d + e.delay;
      const bool better = nd < tree.dist[v];
      // Deterministic tie-break: equal distance, prefer the smaller parent.
      const bool tie = nd == tree.dist[v] && tree.parent[v] != kInvalidNode &&
                       u < tree.parent[v];
      if (better || tie) {
        tree.dist[v] = nd;
        tree.parent[v] = u;
        tree.hops[v] = tree.hops[static_cast<size_t>(u)] + 1;
        queue.emplace(nd, e.to);
      }
    }
  }
}

ShortestPathTree BuildShortestPathTree(const Graph& graph, NodeId root) {
  ShortestPathTree tree;
  BuildShortestPathTree(
      graph, root, [](NodeId, NodeId) { return true; }, &tree);
  return tree;
}

std::vector<std::vector<double>> AllPairsShortestDelays(const Graph& graph) {
  const int n = graph.num_nodes();
  std::vector<std::vector<double>> dist(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    dist[static_cast<size_t>(v)] = BuildShortestPathTree(graph, v).dist;
  }
  return dist;
}

}  // namespace cascache::topology
