#include "sim/metrics.h"

namespace cascache::sim {

void MetricsCollector::Reset() { *this = MetricsCollector(); }

NodeCounters& NodeCounters::operator+=(const NodeCounters& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  placements += other.placements;
  placements_rejected += other.placements_rejected;
  expirations += other.expirations;
  invalidations += other.invalidations;
  stale_serves += other.stale_serves;
  dcache_hits += other.dcache_hits;
  bytes_served += other.bytes_served;
  bytes_cached += other.bytes_cached;
  crashes += other.crashes;
  retries += other.retries;
  reroutes += other.reroutes;
  degraded += other.degraded;
  sheds += other.sheds;
  store_sheds += other.store_sheds;
  ram_hits += other.ram_hits;
  disk_hits += other.disk_hits;
  promotions += other.promotions;
  demotions += other.demotions;
  sibling_probes += other.sibling_probes;
  sibling_serves += other.sibling_serves;
  disk_degraded += other.disk_degraded;
  // Gauge, not a count: a rollup reports the deepest queue in the set.
  if (other.max_queue_depth > max_queue_depth) {
    max_queue_depth = other.max_queue_depth;
  }
  return *this;
}

void MetricsCollector::ResetNodes(int num_nodes) {
  node_counters_.assign(static_cast<size_t>(num_nodes), NodeCounters());
}

NodeCounters MetricsCollector::NodeTotals() const {
  NodeCounters total;
  for (const NodeCounters& c : node_counters_) total += c;
  return total;
}

void MetricsCollector::FlushBlock(const BlockStats& acc) {
  BlockStats& t = totals_;
  t.requests += acc.requests;
  t.total_bytes += acc.total_bytes;
  t.failed += acc.failed;
  t.request_msg_bytes += acc.request_msg_bytes;
  t.response_msg_bytes += acc.response_msg_bytes;
}

void MetricsCollector::Record(const RequestMetrics& metrics) {
  BlockStats acc;
  RecordInBlock(metrics, &acc);
  FlushBlock(acc);
}

MetricsSummary MetricsCollector::Summary() const {
  const BlockStats& t = totals_;
  MetricsSummary s;
  s.requests = t.requests;
  if (t.requests == 0) return s;
  // Every node-scoped event was counted once, at its node: the event
  // totals are the per-node sums.
  const NodeCounters n = NodeTotals();
  const double requests = static_cast<double>(t.requests);
  s.avg_latency = latency_.mean();
  s.avg_response_ratio = response_ratio_.mean();
  s.byte_hit_ratio = t.total_bytes == 0
                         ? 0.0
                         : static_cast<double>(n.bytes_served) /
                               static_cast<double>(t.total_bytes);
  s.hit_ratio = static_cast<double>(n.hits) / requests;
  s.avg_traffic_byte_hops = traffic_.mean();
  s.avg_hops = hops_.mean();
  const double total_load = static_cast<double>(n.bytes_served) +
                            static_cast<double>(n.bytes_cached);
  s.avg_load_bytes = total_load / requests;
  s.read_load_share = total_load == 0.0
                          ? 0.0
                          : static_cast<double>(n.bytes_served) / total_load;
  s.avg_write_bytes = static_cast<double>(n.bytes_cached) / requests;
  s.total_bytes_requested = t.total_bytes;
  s.bytes_from_caches = n.bytes_served;
  s.stale_hit_ratio = n.hits == 0 ? 0.0
                                  : static_cast<double>(n.stale_serves) /
                                        static_cast<double>(n.hits);
  s.copies_expired = n.expirations;
  s.copies_invalidated = n.invalidations;
  s.avg_request_msg_bytes = static_cast<double>(t.request_msg_bytes) / requests;
  s.avg_response_msg_bytes =
      static_cast<double>(t.response_msg_bytes) / requests;
  s.avg_message_bytes = s.avg_request_msg_bytes + s.avg_response_msg_bytes;
  s.cache_hits = n.hits;
  s.stale_hits = n.stale_serves;
  s.insertions = n.placements;
  s.bytes_written = n.bytes_cached;
  s.retries = n.retries;
  s.failed_requests = t.failed;
  s.reroutes = n.reroutes;
  s.crashes_applied = n.crashes;
  s.degraded_decisions = n.degraded;
  s.shed_requests = n.sheds;
  s.shed_placements = n.store_sheds;
  s.served_requests = t.requests - t.failed - n.sheds;
  s.bytes_read = n.bytes_served;
  s.avg_queue_wait = queue_wait_sum_ / requests;
  s.ram_hits = n.ram_hits;
  s.disk_hits = n.disk_hits;
  s.promotions = n.promotions;
  s.demotions = n.demotions;
  s.sibling_probes = n.sibling_probes;
  s.sibling_hits = n.sibling_serves;
  s.disk_degraded = n.disk_degraded;
  return s;
}

}  // namespace cascache::sim
