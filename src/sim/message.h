#ifndef CASCACHE_SIM_MESSAGE_H_
#define CASCACHE_SIM_MESSAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "sim/cache_set.h"
#include "sim/event_trace.h"
#include "sim/metrics.h"
#include "sim/queueing.h"
#include "trace/object_catalog.h"

namespace cascache::sim {

/// Observability hooks of one exchange, wired by the simulator per
/// request. Both sinks are null when off (warm-up phase, disabled trace,
/// unsampled request), so every emit point costs one null check on the
/// hot path and nothing else.
struct ExchangeTelemetry {
  /// Per-node counter slots indexed by NodeId; null while warming up.
  NodeCounters* node_counters = nullptr;
  /// Event sink for this request; null when disabled or unsampled.
  EventTrace* trace = nullptr;
  /// Tree depth per NodeId for trace records; null means level 0
  /// everywhere (en-route architecture).
  const int* node_levels = nullptr;
  /// Index of the request in the replayed workload (the sampling key).
  uint64_t request_index = 0;
};

/// The request message ascending the distribution path (paper §2.3): it
/// enters at the requesting cache (hop 0) and climbs node by node until
/// a cache holds a servable copy or the origin server is reached. Schemes
/// attach per-hop piggyback state to it — the coordinated scheme appends
/// one (f_i, m_i, l_i) triple per candidate cache — and account the bytes
/// they add in `payload_bytes`.
struct RequestMessage {
  /// Path index of the hop currently processing the message.
  int hop = 0;
  /// Protocol bytes piggybacked onto the request beyond the plain
  /// object-id header (the paper's communication-overhead measure).
  uint64_t payload_bytes = 0;
  /// Fault plane: the piggyback entry this hop would contribute was lost
  /// (node crashed, or the entry was dropped in transit). Set by the
  /// simulator for the current hop only; schemes fall back to the
  /// paper's no-state behavior (the node is excluded from the candidate
  /// set) and must not touch the node's cache state.
  bool piggyback_lost = false;
  /// Sibling probes this request has sent so far, across hops: the
  /// ordinal that keys the fault plane's sibling-loss stream, so losses
  /// are query-order independent.
  int sibling_probes = 0;
};

/// The response message descending from the serving node back to the
/// requester (paper §2.3-2.4): it carries the placement decision and the
/// accumulated miss-penalty counter, which caching nodes reset as they
/// create nearer copies.
struct ResponseMessage {
  /// Path index of the serving cache; -1 when the origin served.
  int hit_index = -1;
  /// Protocol bytes carried downstream (penalty counter + decision
  /// bitmap for the coordinated scheme; 0 for the local schemes).
  uint64_t payload_bytes = 0;
  /// Miss-penalty counter: cumulative link cost from the nearest copy
  /// upstream, reset to 0 at every node that caches the object.
  double penalty = 0.0;
  /// Fault plane: the placement decision / penalty block was lost at the
  /// current hop (node crashed, or the block was dropped in transit).
  /// Set by the simulator for that hop only; schemes skip placement and
  /// penalty refresh there.
  bool decision_lost = false;
  /// Event-driven replay: a full node queue refused the request on the
  /// ascent. The exchange ends where it was refused — no serve, no
  /// descent, no placements.
  bool shed = false;
  /// Sibling cooperation: the object was served by a sibling of the node
  /// at `hit_index`, not by that node itself. The serve is proxy-only
  /// (Squid's proxy-only ICP peering): the probing node does not keep a
  /// copy, so the descent below `hit_index` is identical to a local hit
  /// there and every scheme's hop alignment carries over unchanged.
  bool served_by_sibling = false;
  /// NodeId of the serving sibling; valid only when served_by_sibling.
  topology::NodeId sibling = -1;
};

/// Everything one request/response exchange knows, shared by the
/// simulator and the per-hop scheme handlers. The request facts are
/// fixed for the exchange; the two messages are mutated hop by hop.
///
/// `path[0]` is the requesting cache and `path.back()` the server attach
/// node; `link_delays[i]` / `link_costs[i]` describe the link between
/// path[i] and path[i+1].
struct MessageContext {
  // --- Request facts (immutable during the exchange). -------------------
  trace::ObjectId object = 0;
  uint64_t size = 0;
  /// size / mean object size; multiplies base delays into costs, per the
  /// paper's "delay proportional to object size" cost function.
  double size_scale = 1.0;
  double now = 0.0;
  const std::vector<topology::NodeId>* path = nullptr;
  const std::vector<double>* link_delays = nullptr;
  /// Per-link generic costs under the configured CostModel; parallel to
  /// link_delays. Cost-aware schemes (LNC-R, GDS, Coordinated) optimize
  /// these; the physical metrics always use the delays.
  const std::vector<double>* link_costs = nullptr;
  /// Delay of the virtual attach-node-to-origin link (only nonzero under
  /// the hierarchical architecture).
  double server_link_delay = 0.0;
  /// Cost-model value of the virtual server link.
  double server_link_cost = 0.0;

  // --- Mutable exchange state. ------------------------------------------
  CacheSet* caches = nullptr;
  /// The request's own record: queue waits and message bytes (every
  /// node-scoped event is counted in telemetry.node_counters instead).
  RequestMetrics* metrics = nullptr;
  ExchangeTelemetry telemetry;
  RequestMessage request;
  ResponseMessage response;
  /// Event-driven replay only: the queueing plane and the contention
  /// knobs, so placement commits charge their store service where they
  /// happen (RecordPlacement). Both null under the analytic policy, which
  /// then pays one null check per accepted placement.
  QueueingPlane* queueing = nullptr;
  const ContentionParams* contention = nullptr;
  /// Whether any node of this exchange's cache plane runs a RAM tier.
  /// Set once per run by the simulator; gates the demote-on-evict hook in
  /// RecordPlacement so untiered runs pay one register test per placement.
  bool tiered = false;
  /// Analytic replay only: serving-tier service seconds (RAM or disk hit
  /// cost) accumulated while resolving this exchange; the simulator adds
  /// it to the request latency. Under the event-driven replay the tier
  /// service is charged through the queueing plane instead.
  double tier_service = 0.0;

  bool origin_served() const { return response.hit_index < 0; }
  int hit_index() const { return response.hit_index; }

  /// Path index of the highest node the request visited (serving cache,
  /// or the attach node when the origin served it).
  int top_index() const {
    return origin_served() ? static_cast<int>(path->size()) - 1
                           : response.hit_index;
  }

  /// Highest path index the response descends through, i.e. the first
  /// node below the serving point (the attach node itself when the
  /// origin served). Also the highest placement candidate.
  int first_missing() const {
    return origin_served() ? static_cast<int>(path->size()) - 1
                           : response.hit_index - 1;
  }

  /// Cache node at path index `i` of this exchange's cache plane. Raw
  /// array access: path nodes come from a resolved route, so the id is in
  /// range by construction (this is the scheme handlers' per-hop lookup).
  CacheNode* node(int i) const {
    return &caches->nodes_data()[(*path)[static_cast<size_t>(i)]];
  }

  /// Cache node that actually served the request: the sibling when
  /// served_by_sibling, else the node at hit_index(). Only meaningful on
  /// a cache hit (hit_index() >= 0).
  CacheNode* serving_node() const {
    return response.served_by_sibling
               ? &caches->nodes_data()[response.sibling]
               : node(response.hit_index);
  }

  /// Cost of the link immediately upstream of path index `i` (the local
  /// miss-penalty view of the single-cache policies); the virtual server
  /// link above the attach node.
  double upstream_link_cost(int i) const {
    return i == static_cast<int>(path->size()) - 1
               ? server_link_cost
               : (*link_costs)[static_cast<size_t>(i)];
  }

  // --- Placement accounting (shared by every scheme). -------------------
  // Each Record* call folds the per-node count and the trace record of
  // one observation into one call, so the seven schemes and the
  // simulator cannot drift apart; both go through the Observe funnel
  // below. The node count is the only count: the aggregate totals are
  // per-node sums (MetricsCollector::Summary).

  /// Records the outcome of a placement attempt at path index `hop`:
  /// an accepted copy plus the victims the store pushed out to make room
  /// (`inserted`), or a declined attempt (oversized object or copy
  /// already present).
  void RecordPlacement(int hop, bool inserted,
                       const std::vector<trace::ObjectId>& evicted);

  /// Records an accepted placement at a node off the request path caching
  /// `object_id` (STATIC's freeze fills spare capacity at every cache at
  /// once, so nothing is evicted). Freeze fills are bulk provisioning,
  /// not request-driven stores, so they charge no store service under the
  /// event-driven replay.
  void RecordPlacementAt(topology::NodeId node_id, trace::ObjectId object_id,
                         uint64_t bytes);

  /// Records an ascent lookup that found the object's descriptor in the
  /// d-cache at path index `hop` (the object itself is not cached there,
  /// or the node would have served).
  void RecordDCacheHit(int hop);

  /// Records a degraded decision at path index `hop`: the scheme fell
  /// back to its no-state behavior there because the node was down or
  /// the message block it needed was lost (fault plane).
  void RecordDegraded(int hop);

  /// Records a store-queue shed at path index `hop` (event-driven replay):
  /// the node's queue was full, so the descending placement decision was
  /// dropped there (the simulator also raises decision_lost for the hop).
  /// `depth` is the backlog depth that caused the refusal.
  void RecordStoreShed(int hop, uint32_t depth);

  /// Records which tier of `node_id` served this request and any RAM-tier
  /// churn (promotion + the RAM victims it pushed out) the serve caused.
  void RecordTierServe(topology::NodeId node_id,
                       const CacheNode::TierServe& tier);

  /// Records one ICP-style probe this request sent from path index `hop`
  /// to `sibling`.
  void RecordSiblingProbe(int hop, topology::NodeId sibling);

  /// Records a sibling serve: `sibling` (probed from path index `hop`)
  /// held a servable copy and returned the object. Counted as a hit at
  /// the sibling, so the serve is one of the aggregate cache hits.
  void RecordSiblingServe(int hop, topology::NodeId sibling);

  /// Records a disk-outage degradation at path index `hop`: the tiered
  /// node there was RAM-only / proxy-only and could not serve or store
  /// what its disk tier would have (disjoint from RecordDegraded).
  void RecordDiskDegraded(int hop);

  /// Tree depth of a node for trace records (0 when levels are unknown).
  int32_t NodeLevel(topology::NodeId node_id) const {
    return telemetry.node_levels == nullptr
               ? 0
               : telemetry.node_levels[node_id];
  }

 private:
  /// Trace-only slow path of the placement records (a placement record
  /// followed by one eviction record per victim), out of line so the
  /// untraced fast path stays a null check.
  void EmitPlacementTrace(topology::NodeId node_id, trace::ObjectId object_id,
                          uint64_t bytes,
                          std::span<const trace::ObjectId> evicted) const;

  /// Event-driven replay: charges an accepted placement's store service
  /// at `node_id` — FIFO wait behind the node's backlog plus the store
  /// cost — advancing the exchange's `now` and the request's queue-wait
  /// total. Out of line: runs only when a placement actually happens.
  void CommitStoreService(topology::NodeId node_id);
};

/// The one builder of node-scoped trace records: fills a TraceEvent with
/// the exchange's request index, `now`, object and size plus `node`, its
/// level and `value`, and emits it into `trace` (non-null). A negative
/// `node` marks a record that is not node-scoped (the origin serve): its
/// level is -1 too. Out of line: only sampled requests reach it.
void EmitNodeRecord(EventTrace* trace, const MessageContext& ctx,
                    TraceEventType type, topology::NodeId node, double value);

/// The telemetry funnel: every node-scoped observation of an exchange —
/// the simulator's and the schemes' alike — enters here. Adds `n` to
/// `node`'s `field` while per-node counters are live (`counters` is null
/// during warm-up; a null `field` is a record-only observation) and emits
/// one record when the request is sampled (`trace` non-null). Callers
/// pass their own counters/trace, so an exchange whose trace is a
/// compile-time null compiles the record branch away.
inline void Observe(NodeCounters* counters, EventTrace* trace,
                    const MessageContext& ctx,
                    uint64_t NodeCounters::*field, uint64_t n,
                    TraceEventType type, topology::NodeId node,
                    double value) {
  if (field != nullptr && counters != nullptr) counters[node].*field += n;
  if (trace != nullptr) EmitNodeRecord(trace, ctx, type, node, value);
}

/// Raises `node`'s max_queue_depth gauge to an admission's `depth`
/// (no-op while counters are off).
inline void RaiseQueueDepth(NodeCounters* counters, topology::NodeId node,
                            uint32_t depth) {
  if (counters != nullptr && depth > counters[node].max_queue_depth) {
    counters[node].max_queue_depth = depth;
  }
}

/// The sink-free core of every placement outcome: the placing node's
/// counters (`counters` is null while warming up).
/// MessageContext::RecordPlacement{,At} wrap it with the trace and tier
/// hooks; the simulator's inlined plain-LRU descent, which runs with
/// neither, calls it directly.
inline void CountPlacement(NodeCounters* counters, topology::NodeId node_id,
                           uint64_t bytes, bool inserted, size_t evicted) {
  if (counters == nullptr) return;
  NodeCounters& c = counters[node_id];
  if (!inserted) {
    ++c.placements_rejected;
    return;
  }
  ++c.placements;
  c.evictions += evicted;
  c.bytes_cached += bytes;
}

inline void MessageContext::RecordPlacement(
    int hop, bool inserted, const std::vector<trace::ObjectId>& evicted) {
  const topology::NodeId node_id = (*path)[static_cast<size_t>(hop)];
  NodeCounters* const counters = telemetry.node_counters;
  CountPlacement(counters, node_id, size, inserted, evicted.size());
  if (!inserted) {
    Observe(nullptr, telemetry.trace, *this, nullptr, 0,
            TraceEventType::kPlacementRejected, node_id, 0.0);
    return;
  }
  if (telemetry.trace != nullptr) {
    EmitPlacementTrace(node_id, object, size, evicted);
  }
  if (tiered && !evicted.empty()) {
    // Demote-on-evict: the inclusive RAM tier drops the disk victims.
    CacheNode& node = caches->nodes_data()[node_id];
    if (node.tiered()) {
      const int dropped = node.DropRamCopies(evicted);
      if (dropped > 0) {
        Observe(counters, telemetry.trace, *this, &NodeCounters::demotions,
                static_cast<uint64_t>(dropped), TraceEventType::kDemotion,
                node_id, static_cast<double>(dropped));
      }
    }
  }
  if (queueing != nullptr) CommitStoreService(node_id);
}

inline void MessageContext::RecordPlacementAt(topology::NodeId node_id,
                                              trace::ObjectId object_id,
                                              uint64_t bytes) {
  CountPlacement(telemetry.node_counters, node_id, bytes, /*inserted=*/true,
                 /*evicted=*/0);
  if (telemetry.trace != nullptr) {
    EmitPlacementTrace(node_id, object_id, bytes, {});
  }
}

inline void MessageContext::RecordDCacheHit(int hop) {
  Observe(telemetry.node_counters, telemetry.trace, *this,
          &NodeCounters::dcache_hits, 1, TraceEventType::kDCacheHit,
          (*path)[static_cast<size_t>(hop)], 0.0);
}

inline void MessageContext::RecordDegraded(int hop) {
  Observe(telemetry.node_counters, telemetry.trace, *this,
          &NodeCounters::degraded, 1, TraceEventType::kFaultDegraded,
          (*path)[static_cast<size_t>(hop)], static_cast<double>(hop));
}

inline void MessageContext::RecordStoreShed(int hop, uint32_t depth) {
  Observe(telemetry.node_counters, telemetry.trace, *this,
          &NodeCounters::store_sheds, 1, TraceEventType::kShed,
          (*path)[static_cast<size_t>(hop)], static_cast<double>(depth));
}

inline void MessageContext::RecordTierServe(topology::NodeId node_id,
                                            const CacheNode::TierServe& tier) {
  NodeCounters* const counters = telemetry.node_counters;
  if (counters != nullptr) {
    ++(tier.ram_hit ? counters[node_id].ram_hits
                    : counters[node_id].disk_hits);
  }
  const double demoted = static_cast<double>(tier.demotions);
  if (tier.promoted) {
    Observe(counters, telemetry.trace, *this, &NodeCounters::promotions, 1,
            TraceEventType::kPromotion, node_id, demoted);
  }
  if (tier.demotions > 0) {
    // A promotion's record already carries the RAM victims it pushed out.
    Observe(counters, tier.promoted ? nullptr : telemetry.trace, *this,
            &NodeCounters::demotions, static_cast<uint64_t>(tier.demotions),
            TraceEventType::kDemotion, node_id, demoted);
  }
}

inline void MessageContext::RecordSiblingProbe(int hop,
                                               topology::NodeId sibling) {
  // Counted at the probing node; the record names the probed sibling.
  if (telemetry.node_counters != nullptr) {
    ++telemetry.node_counters[(*path)[static_cast<size_t>(hop)]]
          .sibling_probes;
  }
  Observe(nullptr, telemetry.trace, *this, nullptr, 0,
          TraceEventType::kSiblingProbe, sibling, static_cast<double>(hop));
}

inline void MessageContext::RecordSiblingServe(int hop,
                                               topology::NodeId sibling) {
  NodeCounters* const counters = telemetry.node_counters;
  if (counters != nullptr) {
    ++counters[sibling].hits;
    counters[sibling].bytes_served += size;
  }
  Observe(counters, telemetry.trace, *this, &NodeCounters::sibling_serves, 1,
          TraceEventType::kSiblingServe, sibling, static_cast<double>(hop));
}

inline void MessageContext::RecordDiskDegraded(int hop) {
  Observe(telemetry.node_counters, telemetry.trace, *this,
          &NodeCounters::disk_degraded, 1, TraceEventType::kDiskDegraded,
          (*path)[static_cast<size_t>(hop)], static_cast<double>(hop));
}

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_MESSAGE_H_
