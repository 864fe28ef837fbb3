#include "topology/graph.h"

#include <queue>
#include <string>

namespace cascache::topology {

namespace {

const Edge* FindEdge(const std::vector<Edge>& edges, NodeId v) {
  for (const Edge& e : edges) {
    if (e.to == v) return &e;
  }
  return nullptr;
}

}  // namespace

Graph::Graph(int num_nodes) {
  CASCACHE_CHECK(num_nodes >= 0);
  adjacency_.resize(static_cast<size_t>(num_nodes));
}

util::Status Graph::AddEdge(NodeId u, NodeId v, double delay) {
  if (!IsValidNode(u) || !IsValidNode(v)) {
    return util::Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) {
    return util::Status::InvalidArgument("self-loop not allowed");
  }
  if (delay < 0.0) {
    return util::Status::InvalidArgument("negative link delay");
  }
  if (HasEdge(u, v)) {
    return util::Status::AlreadyExists("duplicate link " + std::to_string(u) +
                                       "-" + std::to_string(v));
  }
  adjacency_[static_cast<size_t>(u)].push_back({v, delay});
  adjacency_[static_cast<size_t>(v)].push_back({u, delay});
  ++num_edges_;
  return util::Status::Ok();
}

const std::vector<Edge>& Graph::Neighbors(NodeId u) const {
  CASCACHE_CHECK(IsValidNode(u));
  return adjacency_[static_cast<size_t>(u)];
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (!IsValidNode(u) || !IsValidNode(v)) return false;
  return FindEdge(adjacency_[static_cast<size_t>(u)], v) != nullptr;
}

double Graph::EdgeDelay(NodeId u, NodeId v) const {
  const Edge* e = FindEdge(Neighbors(u), v);
  CASCACHE_CHECK_MSG(e != nullptr, "link does not exist");
  return e->delay;
}

bool Graph::IsConnected() const {
  if (num_nodes() <= 1) return true;
  std::vector<bool> seen(static_cast<size_t>(num_nodes()), false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = true;
  int visited = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const Edge& e : adjacency_[static_cast<size_t>(u)]) {
      if (!seen[static_cast<size_t>(e.to)]) {
        seen[static_cast<size_t>(e.to)] = true;
        ++visited;
        frontier.push(e.to);
      }
    }
  }
  return visited == num_nodes();
}

}  // namespace cascache::topology
