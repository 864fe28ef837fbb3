#ifndef CASCACHE_SIM_METRICS_H_
#define CASCACHE_SIM_METRICS_H_

#include <cstdint>
#include <vector>

#include "util/stats.h"

namespace cascache::sim {

/// What one simulated request contributes that no node counts: its size,
/// latency, hops, message bytes, queue wait and failure. Every
/// node-scoped event (hits, placements, sheds, tier serves, ...) is
/// counted once, in the node's NodeCounters, and MetricsCollector sums
/// those for the aggregate totals.
struct RequestMetrics {
  uint64_t size_bytes = 0;
  /// Access latency: summed size-scaled link delays from the requesting
  /// cache to the serving node (seconds).
  double latency = 0.0;
  /// Protocol bytes the scheme piggybacked on the ascending request
  /// message (paper §2.3: the (f_i, m_i, l_i) triples; 0 for schemes
  /// that decide locally).
  uint64_t request_msg_bytes = 0;
  /// Protocol bytes carried by the descending response message (penalty
  /// counter + placement bitmap).
  uint64_t response_msg_bytes = 0;
  /// Seconds this request spent waiting in node and link queues (service
  /// and transmission time excluded; zero under the analytic policy).
  double queue_wait = 0.0;
  /// Hops traveled before hitting the target (Figure 8a).
  int hops = 0;
  /// Fault plane: the request never reached its server (timed out
  /// max_retries times); recorded with the accumulated waiting time as
  /// its latency.
  bool failed = false;
};

/// Counters one cache node accumulates over the measured phase of a run:
/// the one count of every node-scoped event. MetricsSummary's event
/// totals are their sums over the nodes (MetricsCollector::Summary), so
/// the per-node view reconciles with the aggregates by construction.
/// Every field is a plain event count except the two byte totals and the
/// max_queue_depth gauge.
struct NodeCounters {
  uint64_t hits = 0;          ///< Requests this node served.
  uint64_t misses = 0;        ///< Requests that passed through unserved.
  uint64_t evictions = 0;     ///< Victims pushed out by placements.
  uint64_t placements = 0;    ///< Copies accepted into the store.
  uint64_t placements_rejected = 0;  ///< Placement attempts declined.
  uint64_t expirations = 0;   ///< Copies dropped on TTL expiry.
  uint64_t invalidations = 0;  ///< Copies dropped by invalidations.
  uint64_t stale_serves = 0;  ///< Hits that served a stale version.
  uint64_t dcache_hits = 0;   ///< Ascent lookups finding a d-cache entry.
  uint64_t bytes_served = 0;  ///< Bytes read out of this node's store.
  uint64_t bytes_cached = 0;  ///< Bytes written into this node's store.
  // --- Fault plane (all zero when fault injection is off). ----------------
  uint64_t crashes = 0;       ///< Cold restarts applied to this node.
  uint64_t retries = 0;       ///< Retries of requests entering here.
  uint64_t reroutes = 0;      ///< Detoured requests entering here.
  uint64_t degraded = 0;      ///< Degraded scheme decisions at this node.
  // --- Contention (all zero under the analytic scheduling policy). --------
  uint64_t sheds = 0;         ///< Requests refused by this node's queue.
  uint64_t store_sheds = 0;   ///< Placement decisions its queue dropped.
  /// Peak operations-ahead observed at an admission here. A gauge, not a
  /// count: operator+= takes the max, so rollups report the deepest
  /// queue seen anywhere in the rolled-up set.
  uint64_t max_queue_depth = 0;
  // --- Tiered nodes & sibling cooperation (all zero when off). ------------
  /// Serves out of this node's RAM tier. On a tiered node,
  /// ram_hits + disk_hits == hits.
  uint64_t ram_hits = 0;
  uint64_t disk_hits = 0;     ///< Serves out of this node's disk tier.
  uint64_t promotions = 0;    ///< Disk serves copied into the RAM tier.
  uint64_t demotions = 0;     ///< Objects dropped out of the RAM tier.
  uint64_t sibling_probes = 0;  ///< Probes this node sent to its siblings.
  uint64_t sibling_serves = 0;  ///< Of `hits`: serves for a sibling's probe.
  uint64_t disk_degraded = 0;  ///< Serves/stores lost to a disk outage here.

  /// Requests that consulted this node (every hop either hits or misses).
  uint64_t requests_seen() const { return hits + misses; }

  NodeCounters& operator+=(const NodeCounters& other);
};

/// Aggregated results of a run, matching the paper's evaluation metrics.
struct MetricsSummary {
  uint64_t requests = 0;
  double avg_latency = 0.0;          ///< Figure 6a/9a (seconds).
  double avg_response_ratio = 0.0;   ///< Figure 6b/9b (seconds per MB).
  double byte_hit_ratio = 0.0;       ///< Figure 7a/10a.
  double hit_ratio = 0.0;            ///< Request (count) hit ratio.
  double avg_traffic_byte_hops = 0.0;  ///< Figure 7b (byte*hops).
  double avg_hops = 0.0;             ///< Figure 8a.
  double avg_load_bytes = 0.0;       ///< Figure 8b/10b: (read+write)/req.
  double read_load_share = 0.0;      ///< Read fraction of total load.
  double avg_write_bytes = 0.0;
  uint64_t total_bytes_requested = 0;
  uint64_t bytes_from_caches = 0;
  /// Coherency: fraction of cache hits that served a stale version.
  double stale_hit_ratio = 0.0;
  uint64_t copies_expired = 0;
  uint64_t copies_invalidated = 0;
  /// Protocol overhead (paper §2.3-2.4), reported uniformly for every
  /// scheme: mean piggybacked bytes per request on the ascent / descent.
  double avg_request_msg_bytes = 0.0;
  double avg_response_msg_bytes = 0.0;
  /// avg_request_msg_bytes + avg_response_msg_bytes.
  double avg_message_bytes = 0.0;
  /// Raw event totals behind the ratios above (no round-tripping through
  /// divisions). Like every event total below, each is a sum of a
  /// NodeCounters field over the nodes.
  uint64_t cache_hits = 0;
  uint64_t stale_hits = 0;
  uint64_t insertions = 0;
  uint64_t bytes_written = 0;
  /// Fault plane totals (all zero when fault injection is off): crashes
  /// are counted at the crashed node, retries and reroutes at the
  /// requesting node, degraded decisions at the affected hop.
  /// failed_requests is a per-request count.
  uint64_t retries = 0;
  uint64_t failed_requests = 0;
  uint64_t reroutes = 0;
  uint64_t crashes_applied = 0;
  uint64_t degraded_decisions = 0;
  /// Contention totals (all zero under the analytic policy): a shed
  /// request is counted at the refusing node, a shed placement at the
  /// node whose store queue dropped it. bytes_read, the read side of the
  /// cache load, is the per-node bytes_served total (the write side,
  /// bytes_written, is Σ bytes_cached).
  uint64_t shed_requests = 0;
  uint64_t shed_placements = 0;
  /// requests - failed_requests - shed_requests: requests that actually
  /// received their object.
  uint64_t served_requests = 0;
  uint64_t bytes_read = 0;
  double avg_queue_wait = 0.0;
  /// Tier & sibling totals (all zero when tiers/siblings are off): ram/disk
  /// hits and promotions at the serving node, demotions at the node whose
  /// RAM tier shrank, sibling probes at the probing node, sibling hits at
  /// the serving sibling (Σ sibling_serves), disk_degraded at the outaged
  /// node. On runs where every node is tiered,
  /// ram_hits + disk_hits == cache_hits.
  uint64_t ram_hits = 0;
  uint64_t disk_hits = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t sibling_probes = 0;
  uint64_t sibling_hits = 0;
  uint64_t disk_degraded = 0;
};

/// Accumulates per-request metrics and per-node counters into the paper's
/// aggregate measures. The simulator skips recording during the warm-up
/// half of the trace.
class MetricsCollector {
 public:
  /// Folds one request into the aggregates: a one-request block.
  void Record(const RequestMetrics& metrics);

  /// Block-accumulation state for the batched replay: the per-request
  /// integer totals, deferred to one FlushBlock() per replayed range.
  /// Integer addition is associative, so deferring them is bit-identical,
  /// while every order-sensitive float (the Welford stats, the queue-wait
  /// sum) must keep hitting the collector per request in recording order.
  /// The Welford divisions themselves cannot be batched without changing
  /// results — the golden CSV pins their per-request rounding.
  struct BlockStats {
    uint64_t requests = 0;
    uint64_t total_bytes = 0;
    uint64_t failed = 0;
    uint64_t request_msg_bytes = 0;
    uint64_t response_msg_bytes = 0;
  };

  /// Streams one request into an open block: the order-sensitive stats
  /// update the collector directly, the integer totals accumulate in
  /// `acc` for a later FlushBlock().
  /// Splitting one request stream into blocks anywhere gives the same
  /// aggregates, to the bit. Inline: it runs once per recorded request,
  /// and its Welford updates overlap with the caller's tail when the
  /// compiler can see through the call.
  void RecordInBlock(const RequestMetrics& metrics, BlockStats* acc) {
    ++acc->requests;
    latency_.Add(metrics.latency);
    response_ratio_.Add(metrics.latency /
                        (static_cast<double>(metrics.size_bytes) /
                         kBytesPerMb));
    hops_.Add(static_cast<double>(metrics.hops));
    traffic_.Add(static_cast<double>(metrics.size_bytes) *
                 static_cast<double>(metrics.hops));
    queue_wait_sum_ += metrics.queue_wait;
    acc->total_bytes += metrics.size_bytes;
    if (metrics.failed) ++acc->failed;
    acc->request_msg_bytes += metrics.request_msg_bytes;
    acc->response_msg_bytes += metrics.response_msg_bytes;
  }

  /// Folds an accumulated block's integer totals into the aggregates.
  void FlushBlock(const BlockStats& acc);

  void Reset();

  MetricsSummary Summary() const;

  // --- Per-node counters (observability layer) ----------------------------

  /// (Re)allocates zeroed per-node counters, indexed by NodeId. Call
  /// after Reset(): Reset() discards the node slots along with the
  /// aggregates, and Summary() reads its event totals from these slots.
  void ResetNodes(int num_nodes);

  /// Raw counter array for hot-path emit points; nullptr until
  /// ResetNodes() allocates the slots.
  NodeCounters* node_counters_data() {
    return node_counters_.empty() ? nullptr : node_counters_.data();
  }
  const std::vector<NodeCounters>& node_counters() const {
    return node_counters_;
  }

  /// Sum of all per-node counters.
  NodeCounters NodeTotals() const;

 private:
  static constexpr double kBytesPerMb = 1024.0 * 1024.0;

  util::RunningStat latency_;
  util::RunningStat response_ratio_;
  util::RunningStat hops_;
  util::RunningStat traffic_;
  /// Integer totals of every flushed block.
  BlockStats totals_;
  double queue_wait_sum_ = 0.0;
  std::vector<NodeCounters> node_counters_;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_METRICS_H_
