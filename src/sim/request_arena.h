#ifndef CASCACHE_SIM_REQUEST_ARENA_H_
#define CASCACHE_SIM_REQUEST_ARENA_H_

#include <cstdint>
#include <vector>

#include "topology/graph.h"
#include "trace/object_catalog.h"

namespace cascache::sim {

/// One replayed request, decoded out of the trace ahead of time: the
/// catalog lookups (size, origin server) and attach-point resolution
/// (requester hash, server attach) are hoisted into a tight decode loop so
/// the per-request hot path starts from plain integers instead of chasing
/// them one request at a time.
struct DecodedRequest {
  trace::ObjectId object = 0;
  uint64_t size = 0;
  trace::ServerId server = 0;
  topology::NodeId requester = 0;
  topology::NodeId attach = 0;
  double time = 0.0;
};

/// Per-request pipeline scratch, owned by the Simulator and reset (not
/// reallocated) every request. Everything the request path needs that is
/// not request-invariant lives here, so a replayed request performs no
/// heap allocation in the steady state.
struct RequestArena {
  /// Route-resolution scratch for the fault plane (reroutes produce paths
  /// that differ from the cached routes), laid out like a cached route:
  /// delay_prefix[i] == link_delays[0] + ... + link_delays[i-1], summed
  /// left to right per attempt. The unfaulted replay reads the
  /// simulator's route cache instead and never touches these three.
  std::vector<topology::NodeId> path;
  std::vector<double> link_delays;
  std::vector<double> delay_prefix;

  /// Per-request link costs along the active path. Unlike delays these
  /// depend on the object size under the latency/weighted cost models, so
  /// they are recomputed for every request (identical calls to the cost
  /// model as the unbatched replay — bit-identity).
  std::vector<double> link_costs;

  /// Fault plane: per-hop "cache process down" flags, parallel to the
  /// active path.
  std::vector<uint8_t> node_down;

  /// Fault plane: per-hop "disk tier down" flags (degraded-node fault
  /// class), parallel to the active path.
  std::vector<uint8_t> disk_down;

  /// Decode block for batched replay (Simulator::ReplayRange).
  std::vector<DecodedRequest> batch;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_REQUEST_ARENA_H_
