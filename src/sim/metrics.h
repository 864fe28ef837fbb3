#ifndef CASCACHE_SIM_METRICS_H_
#define CASCACHE_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.h"

namespace cascache::sim {

/// Outcome of one simulated request, in the units the paper reports.
struct RequestMetrics {
  uint64_t size_bytes = 0;
  /// Access latency: summed size-scaled link delays from the requesting
  /// cache to the serving node (seconds).
  double latency = 0.0;
  /// Hops traveled before hitting the target (Figure 8a).
  int hops = 0;
  /// Served by a cache (true) or the origin server (false).
  bool cache_hit = false;
  /// Bytes read from caches serving this request (== size on cache hit).
  uint64_t read_bytes = 0;
  /// Bytes written into caches by placement decisions for this request.
  uint64_t write_bytes = 0;
  /// Number of cache insertions performed.
  int insertions = 0;
  /// Coherency: the serving copy was behind the origin version (only
  /// possible under CoherencyProtocol::kNone).
  bool stale_hit = false;
  /// Copies discarded on the request path because their TTL expired.
  int copies_expired = 0;
  /// Copies discarded because they were behind the origin version
  /// (CoherencyProtocol::kInvalidation).
  int copies_invalidated = 0;
  /// Protocol bytes the scheme piggybacked on the ascending request
  /// message (paper §2.3: the (f_i, m_i, l_i) triples; 0 for schemes
  /// that decide locally).
  uint64_t request_msg_bytes = 0;
  /// Protocol bytes carried by the descending response message (penalty
  /// counter + placement bitmap).
  uint64_t response_msg_bytes = 0;
  // --- Fault plane (all zero when fault injection is off). ----------------
  /// Timed-out attempts that were retried before this request resolved.
  int retries = 0;
  /// The request never reached its server (timed out max_retries times);
  /// recorded with the accumulated waiting time as its latency.
  bool failed = false;
  /// The request took a detour around a failed link or node.
  bool rerouted = false;
  /// Node crash/restart cycles applied while processing this request.
  int crashes_applied = 0;
  /// Hops where the scheme fell back to its no-state behavior because a
  /// node was down or a message block was lost.
  int degraded = 0;
  // --- Contention (all zero under the analytic scheduling policy). --------
  /// The request was refused by an overloaded node queue and never
  /// served; its latency is the time it spent queueing up to the refusal.
  bool shed = false;
  /// Placement decisions dropped on the descent because a node's store
  /// queue was full (the request itself was still served).
  int placements_shed = 0;
  /// Seconds this request spent waiting in node and link queues (service
  /// and transmission time excluded).
  double queue_wait = 0.0;
  // --- Tiered nodes & sibling cooperation (all zero when off). ------------
  /// Served from the serving node's RAM tier (tiered nodes only; at most
  /// one of ram_hit/disk_hit is set, and one is whenever a tiered node
  /// serves).
  bool ram_hit = false;
  /// Served from the serving node's disk tier.
  bool disk_hit = false;
  /// Objects promoted into a RAM tier while serving this request.
  int promotions = 0;
  /// Objects dropped out of a RAM tier (RAM eviction by a promotion, or
  /// the inclusive drop when the disk copy was evicted).
  int demotions = 0;
  /// ICP-style sibling probes issued on this request's behalf.
  int sibling_probes = 0;
  /// The request was served by a sibling of a node on its path
  /// (cache_hit is also set; hit_index stays the probing hop).
  bool sibling_hit = false;
  /// Hops degraded by a disk outage: a tiered node down to RAM-only /
  /// proxy-only could not serve or store there (disjoint from `degraded`,
  /// which counts message/crash fallbacks).
  int disk_degraded = 0;
};

/// Counters one cache node accumulates over the measured phase of a run
/// (the observability layer's per-node view; aggregates in
/// MetricsSummary remain the paper's reported quantities). Every field
/// is a plain event count except the two byte totals.
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
  /// Raw event totals behind the ratios above, exposed so per-node
  /// counters can be reconciled against the aggregates exactly (no
  /// round-tripping through divisions).
  uint64_t cache_hits = 0;
  uint64_t stale_hits = 0;
  uint64_t insertions = 0;
  uint64_t bytes_written = 0;
  /// Fault plane totals (all zero when fault injection is off). Each
  /// reconciles integer-exactly with the per-node counters: crashes are
  /// counted at the crashed node, retries and reroutes at the requesting
  /// node, degraded decisions at the affected hop.
  uint64_t retries = 0;
  uint64_t failed_requests = 0;
  uint64_t reroutes = 0;
  uint64_t crashes_applied = 0;
  uint64_t degraded_decisions = 0;
  /// Contention totals (all zero under the analytic policy). Each
  /// reconciles integer-exactly with the per-node counters: a shed
  /// request is counted at the refusing node, a shed placement at the
  /// node whose store queue dropped it, and bytes_read — the read side of
  /// the cache load — equals the per-node bytes_served total (the write
  /// side, bytes_written, was already exact).
  uint64_t shed_requests = 0;
  uint64_t shed_placements = 0;
  /// requests - failed_requests - shed_requests: requests that actually
  /// received their object.
  uint64_t served_requests = 0;
  uint64_t bytes_read = 0;
  double avg_queue_wait = 0.0;
  /// Tier & sibling totals (all zero when tiers/siblings are off). Each
  /// reconciles integer-exactly with the per-node counters: ram/disk hits
  /// and promotions at the serving node, demotions at the node whose RAM
  /// tier shrank, sibling probes at the probing node, sibling hits at the
  /// serving sibling (Σ sibling_serves), disk_degraded at the outaged
  /// node. On runs where every node is tiered,
  /// ram_hits + disk_hits == cache_hits.
  uint64_t ram_hits = 0;
  uint64_t disk_hits = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
  uint64_t sibling_probes = 0;
  uint64_t sibling_hits = 0;
  uint64_t disk_degraded = 0;

  std::string ToString() const;
};

/// Accumulates per-request metrics into the paper's aggregate measures.
/// The simulator skips recording during the warm-up half of the trace.
class MetricsCollector {
 public:
  /// Folds one request into the aggregates: a one-request block.
  void Record(const RequestMetrics& metrics);

  /// Block-accumulation state for the batched replay: recording straight
  /// into the collector left ~18 read-modify-write member updates per
  /// request as the remaining metrics cost. Integer-only by design:
  /// integer addition is associative, so deferring these to one
  /// FlushBlock() is bit-identical, while every order-sensitive float
  /// (the Welford stats, the queue-wait sum) must keep hitting the
  /// collector per request in recording order. The Welford divisions
  /// themselves cannot be batched without changing results — the golden
  /// CSV pins their per-request rounding — so batching recovers the
  /// bookkeeping around them, not the divisions.
  struct BlockStats {
    uint64_t requests = 0;
    uint64_t hits = 0;
    uint64_t total_bytes = 0;
    uint64_t hit_bytes = 0;
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t stale_hits = 0;
    uint64_t copies_expired = 0;
    uint64_t copies_invalidated = 0;
    uint64_t request_msg_bytes = 0;
    uint64_t response_msg_bytes = 0;
    uint64_t insertions = 0;
    uint64_t retries = 0;
    uint64_t failed = 0;
    uint64_t reroutes = 0;
    uint64_t crashes = 0;
    uint64_t degraded = 0;
    uint64_t shed_requests = 0;
    uint64_t shed_placements = 0;
    uint64_t ram_hits = 0;
    uint64_t disk_hits = 0;
    uint64_t promotions = 0;
    uint64_t demotions = 0;
    uint64_t sibling_probes = 0;
    uint64_t sibling_hits = 0;
    uint64_t disk_degraded = 0;
  };

  /// Streams one request into an open block: the order-sensitive stats
  /// update the collector directly, the integer counters accumulate in
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
    if (metrics.cache_hit) {
      ++acc->hits;
      acc->hit_bytes += metrics.size_bytes;
    }
    acc->read_bytes += metrics.read_bytes;
    acc->write_bytes += metrics.write_bytes;
    if (metrics.stale_hit) ++acc->stale_hits;
    acc->copies_expired += static_cast<uint64_t>(metrics.copies_expired);
    acc->copies_invalidated +=
        static_cast<uint64_t>(metrics.copies_invalidated);
    acc->request_msg_bytes += metrics.request_msg_bytes;
    acc->response_msg_bytes += metrics.response_msg_bytes;
    acc->insertions += static_cast<uint64_t>(metrics.insertions);
    acc->retries += static_cast<uint64_t>(metrics.retries);
    if (metrics.failed) ++acc->failed;
    if (metrics.rerouted) ++acc->reroutes;
    acc->crashes += static_cast<uint64_t>(metrics.crashes_applied);
    acc->degraded += static_cast<uint64_t>(metrics.degraded);
    if (metrics.shed) ++acc->shed_requests;
    acc->shed_placements += static_cast<uint64_t>(metrics.placements_shed);
    if (metrics.ram_hit) ++acc->ram_hits;
    if (metrics.disk_hit) ++acc->disk_hits;
    acc->promotions += static_cast<uint64_t>(metrics.promotions);
    acc->demotions += static_cast<uint64_t>(metrics.demotions);
    acc->sibling_probes += static_cast<uint64_t>(metrics.sibling_probes);
    if (metrics.sibling_hit) ++acc->sibling_hits;
    acc->disk_degraded += static_cast<uint64_t>(metrics.disk_degraded);
  }

  /// Folds an accumulated block's integer totals into the aggregates.
  void FlushBlock(const BlockStats& acc);

  void Reset();

  MetricsSummary Summary() const;

  // --- Per-node counters (observability layer) ----------------------------

  /// (Re)allocates zeroed per-node counters, indexed by NodeId. Call
  /// after Reset(): Reset() discards the node slots along with the
  /// aggregates.
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
  /// Integer totals of every flushed block: the one copy of the counts
  /// Summary() reports.
  BlockStats totals_;
  double queue_wait_sum_ = 0.0;
  std::vector<NodeCounters> node_counters_;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_METRICS_H_
