#ifndef CASCACHE_TOPOLOGY_GRAPH_H_
#define CASCACHE_TOPOLOGY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace cascache::topology {

/// Identifier of a node (cache / router) in the network graph.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Outgoing half of an undirected link.
struct Edge {
  NodeId to = kInvalidNode;
  double delay = 0.0;  ///< Base delay for an average-size object (seconds).
};

/// Undirected weighted graph modeling the cascaded-caching network
/// (paper §2: G=(V,E) with per-link costs). Node count is fixed at
/// construction; links carry the delay of transferring an average-size
/// object, which the cost model scales by object size.
class Graph {
 public:
  explicit Graph(int num_nodes);

  /// Adds an undirected link. Fails on self-loops, out-of-range endpoints,
  /// duplicate links, or negative delay.
  util::Status AddEdge(NodeId u, NodeId v, double delay);

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  size_t num_edges() const { return num_edges_; }

  bool IsValidNode(NodeId v) const { return v >= 0 && v < num_nodes(); }

  const std::vector<Edge>& Neighbors(NodeId u) const;

  /// Whether the link (u,v) exists: a scan of u's adjacency list (node
  /// degrees are single digits in the default topologies).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Delay of the link (u,v); the link must exist.
  double EdgeDelay(NodeId u, NodeId v) const;

  /// True if every node is reachable from node 0 (BFS). Empty graphs and
  /// single-node graphs are connected.
  bool IsConnected() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace cascache::topology

#endif  // CASCACHE_TOPOLOGY_GRAPH_H_
