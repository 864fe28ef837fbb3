#include "sim/metrics.h"

#include <cstdio>

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
  t.hits += acc.hits;
  t.total_bytes += acc.total_bytes;
  t.hit_bytes += acc.hit_bytes;
  t.read_bytes += acc.read_bytes;
  t.write_bytes += acc.write_bytes;
  t.stale_hits += acc.stale_hits;
  t.copies_expired += acc.copies_expired;
  t.copies_invalidated += acc.copies_invalidated;
  t.request_msg_bytes += acc.request_msg_bytes;
  t.response_msg_bytes += acc.response_msg_bytes;
  t.insertions += acc.insertions;
  t.retries += acc.retries;
  t.failed += acc.failed;
  t.reroutes += acc.reroutes;
  t.crashes += acc.crashes;
  t.degraded += acc.degraded;
  t.shed_requests += acc.shed_requests;
  t.shed_placements += acc.shed_placements;
  t.ram_hits += acc.ram_hits;
  t.disk_hits += acc.disk_hits;
  t.promotions += acc.promotions;
  t.demotions += acc.demotions;
  t.sibling_probes += acc.sibling_probes;
  t.sibling_hits += acc.sibling_hits;
  t.disk_degraded += acc.disk_degraded;
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
  const double requests = static_cast<double>(t.requests);
  s.avg_latency = latency_.mean();
  s.avg_response_ratio = response_ratio_.mean();
  s.byte_hit_ratio = t.total_bytes == 0
                         ? 0.0
                         : static_cast<double>(t.hit_bytes) /
                               static_cast<double>(t.total_bytes);
  s.hit_ratio = static_cast<double>(t.hits) / requests;
  s.avg_traffic_byte_hops = traffic_.mean();
  s.avg_hops = hops_.mean();
  const double total_load = static_cast<double>(t.read_bytes) +
                            static_cast<double>(t.write_bytes);
  s.avg_load_bytes = total_load / requests;
  s.read_load_share = total_load == 0.0
                          ? 0.0
                          : static_cast<double>(t.read_bytes) / total_load;
  s.avg_write_bytes = static_cast<double>(t.write_bytes) / requests;
  s.total_bytes_requested = t.total_bytes;
  s.bytes_from_caches = t.hit_bytes;
  s.stale_hit_ratio = t.hits == 0 ? 0.0
                                  : static_cast<double>(t.stale_hits) /
                                        static_cast<double>(t.hits);
  s.copies_expired = t.copies_expired;
  s.copies_invalidated = t.copies_invalidated;
  s.avg_request_msg_bytes = static_cast<double>(t.request_msg_bytes) / requests;
  s.avg_response_msg_bytes =
      static_cast<double>(t.response_msg_bytes) / requests;
  s.avg_message_bytes = s.avg_request_msg_bytes + s.avg_response_msg_bytes;
  s.cache_hits = t.hits;
  s.stale_hits = t.stale_hits;
  s.insertions = t.insertions;
  s.bytes_written = t.write_bytes;
  s.retries = t.retries;
  s.failed_requests = t.failed;
  s.reroutes = t.reroutes;
  s.crashes_applied = t.crashes;
  s.degraded_decisions = t.degraded;
  s.shed_requests = t.shed_requests;
  s.shed_placements = t.shed_placements;
  s.served_requests = t.requests - t.failed - t.shed_requests;
  s.bytes_read = t.read_bytes;
  s.avg_queue_wait = queue_wait_sum_ / requests;
  s.ram_hits = t.ram_hits;
  s.disk_hits = t.disk_hits;
  s.promotions = t.promotions;
  s.demotions = t.demotions;
  s.sibling_probes = t.sibling_probes;
  s.sibling_hits = t.sibling_hits;
  s.disk_degraded = t.disk_degraded;
  return s;
}

std::string MetricsSummary::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "requests=%llu latency=%.4fs response_ratio=%.3fs/MB "
      "byte_hit=%.4f hit=%.4f traffic=%.4gB*hops hops=%.3f "
      "load=%.4gB/req (read share %.2f)",
      static_cast<unsigned long long>(requests), avg_latency,
      avg_response_ratio, byte_hit_ratio, hit_ratio, avg_traffic_byte_hops,
      avg_hops, avg_load_bytes, read_load_share);
  return buf;
}

}  // namespace cascache::sim
