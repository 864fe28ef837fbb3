#ifndef CASCACHE_SIM_REQUEST_ARENA_H_
#define CASCACHE_SIM_REQUEST_ARENA_H_

#include <cstdint>
#include <vector>

#include "sim/network.h"
#include "trace/object_catalog.h"

namespace cascache::sim {

/// One replayed request, decoded out of the trace ahead of time: the
/// catalog lookups (size, origin server) and the route lookup (requester
/// hash, the Network's route for the requester/server pair) are hoisted
/// into a tight decode loop so the per-request hot path starts from plain
/// values instead of chasing them one request at a time. `time` is the
/// arrival time: the trace timestamp, or under the queueing plane the
/// arrival process's time for this request.
struct DecodedRequest {
  trace::ObjectId object = 0;
  uint64_t size = 0;
  const Route* route = nullptr;
  double time = 0.0;
};

/// Per-request pipeline scratch, owned by the Simulator and reset (not
/// reallocated) every request. Everything the request path needs that is
/// not request-invariant lives here, so a replayed request performs no
/// heap allocation in the steady state.
struct RequestArena {
  /// Fault plane: the detour of a rerouted request (a link outage or a
  /// crash cutting its table route), delays filled per request. Every
  /// other request replays on its table route.
  Route detour;

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
