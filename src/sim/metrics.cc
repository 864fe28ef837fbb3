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
  requests_ += acc.requests;
  hits_ += acc.hits;
  total_bytes_ += acc.total_bytes;
  hit_bytes_ += acc.hit_bytes;
  read_bytes_ += acc.read_bytes;
  write_bytes_ += acc.write_bytes;
  stale_hits_ += acc.stale_hits;
  copies_expired_ += acc.copies_expired;
  copies_invalidated_ += acc.copies_invalidated;
  request_msg_bytes_ += acc.request_msg_bytes;
  response_msg_bytes_ += acc.response_msg_bytes;
  insertions_ += acc.insertions;
  retries_ += acc.retries;
  failed_requests_ += acc.failed;
  reroutes_ += acc.reroutes;
  crashes_applied_ += acc.crashes;
  degraded_decisions_ += acc.degraded;
  shed_requests_ += acc.shed_requests;
  shed_placements_ += acc.shed_placements;
  ram_hits_ += acc.ram_hits;
  disk_hits_ += acc.disk_hits;
  promotions_ += acc.promotions;
  demotions_ += acc.demotions;
  sibling_probes_ += acc.sibling_probes;
  sibling_hits_ += acc.sibling_hits;
  disk_degraded_ += acc.disk_degraded;
}

void MetricsCollector::Record(const RequestMetrics& metrics) {
  BlockStats acc;
  RecordInBlock(metrics, &acc);
  FlushBlock(acc);
}

MetricsSummary MetricsCollector::Summary() const {
  MetricsSummary s;
  s.requests = requests_;
  if (requests_ == 0) return s;
  s.avg_latency = latency_.mean();
  s.avg_response_ratio = response_ratio_.mean();
  s.byte_hit_ratio =
      total_bytes_ == 0
          ? 0.0
          : static_cast<double>(hit_bytes_) / static_cast<double>(total_bytes_);
  s.hit_ratio = static_cast<double>(hits_) / static_cast<double>(requests_);
  s.avg_traffic_byte_hops = traffic_.mean();
  s.avg_hops = hops_.mean();
  const double total_load =
      static_cast<double>(read_bytes_) + static_cast<double>(write_bytes_);
  s.avg_load_bytes = total_load / static_cast<double>(requests_);
  s.read_load_share =
      total_load == 0.0 ? 0.0 : static_cast<double>(read_bytes_) / total_load;
  s.avg_write_bytes =
      static_cast<double>(write_bytes_) / static_cast<double>(requests_);
  s.total_bytes_requested = total_bytes_;
  s.bytes_from_caches = hit_bytes_;
  s.stale_hit_ratio =
      hits_ == 0 ? 0.0
                 : static_cast<double>(stale_hits_) / static_cast<double>(hits_);
  s.copies_expired = copies_expired_;
  s.copies_invalidated = copies_invalidated_;
  s.avg_request_msg_bytes = static_cast<double>(request_msg_bytes_) /
                            static_cast<double>(requests_);
  s.avg_response_msg_bytes = static_cast<double>(response_msg_bytes_) /
                             static_cast<double>(requests_);
  s.avg_message_bytes = s.avg_request_msg_bytes + s.avg_response_msg_bytes;
  s.cache_hits = hits_;
  s.stale_hits = stale_hits_;
  s.insertions = insertions_;
  s.bytes_written = write_bytes_;
  s.retries = retries_;
  s.failed_requests = failed_requests_;
  s.reroutes = reroutes_;
  s.crashes_applied = crashes_applied_;
  s.degraded_decisions = degraded_decisions_;
  s.shed_requests = shed_requests_;
  s.shed_placements = shed_placements_;
  s.served_requests = requests_ - failed_requests_ - shed_requests_;
  s.bytes_read = read_bytes_;
  s.avg_queue_wait = queue_wait_sum_ / static_cast<double>(requests_);
  s.ram_hits = ram_hits_;
  s.disk_hits = disk_hits_;
  s.promotions = promotions_;
  s.demotions = demotions_;
  s.sibling_probes = sibling_probes_;
  s.sibling_hits = sibling_hits_;
  s.disk_degraded = disk_degraded_;
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
