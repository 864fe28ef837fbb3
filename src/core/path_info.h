#ifndef CASCACHE_CORE_PATH_INFO_H_
#define CASCACHE_CORE_PATH_INFO_H_

#include <vector>

#include "core/placement.h"
#include "topology/graph.h"

namespace cascache::core {

/// Per-cache record piggybacked on a request message as it travels from
/// the requesting cache toward the serving node (paper §2.3): the
/// frequency, miss penalty and eviction cost loss of the requested object
/// with respect to that cache, plus the d-cache tag (§2.4) indicating
/// whether the node holds the object's descriptor at all.
struct PathNodeInfo {
  topology::NodeId node = topology::kInvalidNode;
  double frequency = 0.0;     ///< f_i (includes the current access).
  double miss_penalty = 0.0;  ///< m_i: summed link costs from A_0 to A_i.
  double cost_loss = 0.0;     ///< l_i: greedy NCL eviction loss.
  /// False if the node tagged the request "no descriptor" (§2.4); such
  /// nodes are removed from the candidate set.
  bool has_descriptor = false;
  /// False if the object cannot fit in the node's cache at all.
  bool feasible = false;
};

/// The assembled piggyback information for one request, ordered from A_1
/// (the cache adjacent to the serving node) to A_n (the requesting cache).
struct PathInfo {
  std::vector<PathNodeInfo> nodes;

  /// True for nodes that participate in the optimization: descriptor
  /// present and object insertable.
  static bool IsCandidate(const PathNodeInfo& info) {
    return info.has_descriptor && info.feasible;
  }

  /// Builds the PlacementInput over the candidate nodes into `*input`.
  /// `origin[i]` is set to the index into `nodes` that PlacementInput slot
  /// i represents. Both buffers are cleared and refilled, so the request
  /// hot path reuses their capacity.
  ///
  /// Locally estimated frequencies can violate the f_1 >= ... >= f_n
  /// monotonicity the model assumes (an artifact of independent sliding
  /// windows); they are clamped upward from the client side so each
  /// upstream candidate reports at least its downstream successor's rate.
  void FillPlacementInput(PlacementInput* input, std::vector<int>* origin)
      const;
};

}  // namespace cascache::core

#endif  // CASCACHE_CORE_PATH_INFO_H_
