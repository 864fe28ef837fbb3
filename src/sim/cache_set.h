#ifndef CASCACHE_SIM_CACHE_SET_H_
#define CASCACHE_SIM_CACHE_SET_H_

#include <vector>

#include "sim/node.h"

namespace cascache::sim {

/// The mutable cache plane of a simulation run: one CacheNode per network
/// node, indexed by graph node id. The Network owns only the immutable
/// shared state (graph, routing trees, attach points, catalog); every run
/// gets its own CacheSet from Network::MakeCacheSet(), which is the whole
/// isolation story of the concurrent experiment runner.
class CacheSet {
 public:
  CacheSet() = default;
  /// One cache per node, with a 1-byte placeholder capacity until
  /// Configure() is called at the start of a run.
  explicit CacheSet(int num_nodes);

  CacheSet(CacheSet&&) = default;
  CacheSet& operator=(CacheSet&&) = default;

  CacheNode* node(topology::NodeId id) {
    CASCACHE_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    return &nodes_[static_cast<size_t>(id)];
  }
  const CacheNode* node(topology::NodeId id) const {
    CASCACHE_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
    return &nodes_[static_cast<size_t>(id)];
  }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Raw node array for the replay hot loops (no per-access bounds
  /// check): node ids taken from a resolved routing path are valid by
  /// construction. Everything else should go through node().
  CacheNode* nodes_data() { return nodes_.data(); }

  /// Re-initializes every cache with the given configuration (start of a
  /// simulation run).
  void Configure(const CacheNodeConfig& config);

  /// Re-initializes caches with per-node capacities (heterogeneous
  /// provisioning studies). `capacities` must have one entry per node;
  /// the rest of `config` applies to every node.
  void ConfigureWithCapacities(const CacheNodeConfig& config,
                               const std::vector<uint64_t>& capacities);

 private:
  std::vector<CacheNode> nodes_;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_CACHE_SET_H_
