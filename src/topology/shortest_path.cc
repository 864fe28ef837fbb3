#include "topology/shortest_path.h"

#include <limits>

namespace cascache::topology {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool ShortestPathTree::Reachable(NodeId v) const {
  return v >= 0 && static_cast<size_t>(v) < dist.size() &&
         dist[static_cast<size_t>(v)] < kInf;
}

std::vector<NodeId> ShortestPathTree::PathToRoot(NodeId from) const {
  std::vector<NodeId> path;
  PathToRoot(from, &path);
  return path;
}

void ShortestPathTree::PathToRoot(NodeId from,
                                  std::vector<NodeId>* path) const {
  CASCACHE_CHECK(Reachable(from));
  path->clear();
  NodeId v = from;
  while (v != kInvalidNode) {
    path->push_back(v);
    if (v == root) break;
    v = parent[static_cast<size_t>(v)];
  }
  CASCACHE_CHECK_MSG(path->back() == root, "broken parent chain");
}

ShortestPathTree BuildShortestPathTree(const Graph& graph, NodeId root) {
  ShortestPathTree tree;
  BuildShortestPathTree(
      graph, root, [](NodeId, NodeId) { return true; }, &tree);
  return tree;
}

}  // namespace cascache::topology
