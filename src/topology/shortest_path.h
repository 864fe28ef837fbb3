#ifndef CASCACHE_TOPOLOGY_SHORTEST_PATH_H_
#define CASCACHE_TOPOLOGY_SHORTEST_PATH_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "topology/graph.h"

namespace cascache::topology {

/// Shortest-path tree rooted at a node, produced by Dijkstra's algorithm.
/// The paper routes every request along the shortest-path tree rooted at
/// the origin server's attach node (§3.2), so this structure *is* the
/// distribution tree of §2.
struct ShortestPathTree {
  NodeId root = kInvalidNode;
  /// dist[v]: total delay from v to the root; +inf if unreachable.
  std::vector<double> dist;
  /// parent[v]: next hop from v toward the root; kInvalidNode for the root
  /// itself and for unreachable nodes.
  std::vector<NodeId> parent;
  /// hops[v]: link count from v to the root; -1 if unreachable.
  std::vector<int> hops;

  /// Dijkstra's frontier and settled flags, kept only to reuse their
  /// storage across builds.
  std::vector<std::pair<double, NodeId>> frontier;
  std::vector<char> settled;

  bool Reachable(NodeId v) const;

  /// Node sequence from `from` to the root, inclusive of both endpoints.
  /// `from` must be reachable.
  std::vector<NodeId> PathToRoot(NodeId from) const;
  /// The same sequence written to `*path`, reusing its storage.
  void PathToRoot(NodeId from, std::vector<NodeId>* path) const;
};

/// Runs Dijkstra from `root` over the links `usable(u, v)` admits, writing
/// the tree into `*out` and reusing its storage. `usable` says whether
/// the link from settled node `u` to its neighbour `v` may carry traffic
/// (requests travel v -> u, toward the root); it is asked only about
/// links to nodes not yet settled. Ties are broken deterministically by
/// node id (smaller parent id preferred) and a settled node is never
/// re-parented, so generated topologies route identically across runs.
/// A reused tree allocates nothing once its vectors have grown.
template <typename LinkFilter>
void BuildShortestPathTree(const Graph& graph, NodeId root,
                           const LinkFilter& usable, ShortestPathTree* out) {
  CASCACHE_CHECK(graph.IsValidNode(root));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ShortestPathTree& tree = *out;
  const size_t n = static_cast<size_t>(graph.num_nodes());
  tree.root = root;
  tree.dist.assign(n, kInf);
  tree.parent.assign(n, kInvalidNode);
  tree.hops.assign(n, -1);
  tree.settled.assign(n, 0);

  // A binary min-heap of (distance, node); equal items are identical, so
  // the pop order is fixed whatever the heap's arrangement.
  std::vector<std::pair<double, NodeId>>& queue = tree.frontier;
  queue.clear();
  tree.dist[static_cast<size_t>(root)] = 0.0;
  tree.hops[static_cast<size_t>(root)] = 0;
  queue.emplace_back(0.0, root);

  while (!queue.empty()) {
    std::pop_heap(queue.begin(), queue.end(), std::greater<>());
    const auto [d, u] = queue.back();
    queue.pop_back();
    if (tree.settled[static_cast<size_t>(u)]) continue;
    tree.settled[static_cast<size_t>(u)] = 1;
    for (const Edge& e : graph.Neighbors(u)) {
      const size_t v = static_cast<size_t>(e.to);
      if (tree.settled[v] || !usable(u, e.to)) continue;
      const double nd = d + e.delay;
      const bool better = nd < tree.dist[v];
      // Deterministic tie-break: equal distance, prefer the smaller parent.
      const bool tie = nd == tree.dist[v] && tree.parent[v] != kInvalidNode &&
                       u < tree.parent[v];
      if (better || tie) {
        tree.dist[v] = nd;
        tree.parent[v] = u;
        tree.hops[v] = tree.hops[static_cast<size_t>(u)] + 1;
        queue.emplace_back(nd, e.to);
        std::push_heap(queue.begin(), queue.end(), std::greater<>());
      }
    }
  }
}

/// The tree over every link of `graph`.
ShortestPathTree BuildShortestPathTree(const Graph& graph, NodeId root);

/// All-pairs shortest-path delays via repeated Dijkstra; O(V·E log V).
/// Intended for topology statistics and small-graph test oracles.
std::vector<std::vector<double>> AllPairsShortestDelays(const Graph& graph);

}  // namespace cascache::topology

#endif  // CASCACHE_TOPOLOGY_SHORTEST_PATH_H_
