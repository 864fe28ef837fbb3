#ifndef CASCACHE_TOPOLOGY_SHORTEST_PATH_H_
#define CASCACHE_TOPOLOGY_SHORTEST_PATH_H_

#include <functional>
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

  bool Reachable(NodeId v) const;

  /// Node sequence from `from` to the root, inclusive of both endpoints.
  /// `from` must be reachable.
  std::vector<NodeId> PathToRoot(NodeId from) const;
};

/// Whether the link from settled node `u` to its neighbour `v` may carry
/// traffic (requests travel v -> u, toward the root).
using LinkFilter = std::function<bool(NodeId u, NodeId v)>;

/// Runs Dijkstra from `root` over the links `usable` admits, writing the
/// tree into `*out` and reusing its storage. Ties are broken
/// deterministically by node id (smaller parent id preferred) and a
/// settled node is never re-parented, so generated topologies route
/// identically across runs. `usable` is asked only about links to nodes
/// not yet settled.
void BuildShortestPathTree(const Graph& graph, NodeId root,
                           const LinkFilter& usable, ShortestPathTree* out);

/// The tree over every link of `graph`.
ShortestPathTree BuildShortestPathTree(const Graph& graph, NodeId root);

/// All-pairs shortest-path delays via repeated Dijkstra; O(V·E log V).
/// Intended for topology statistics and small-graph test oracles.
std::vector<std::vector<double>> AllPairsShortestDelays(const Graph& graph);

}  // namespace cascache::topology

#endif  // CASCACHE_TOPOLOGY_SHORTEST_PATH_H_
