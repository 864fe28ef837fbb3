#include "sim/metrics.h"

#include <vector>

#include <gtest/gtest.h>

namespace cascache::sim {
namespace {

/// A synthetic request: its own record plus the node-scoped events it
/// caused, which the simulator counts at the node, not in the record.
struct Synthetic {
  RequestMetrics metrics;
  NodeCounters events;
};

Synthetic Hit(uint64_t size, double latency, int hops) {
  Synthetic r;
  r.metrics.size_bytes = size;
  r.metrics.latency = latency;
  r.metrics.hops = hops;
  r.events.hits = 1;
  r.events.bytes_served = size;
  return r;
}

Synthetic Miss(uint64_t size, double latency, int hops, uint64_t writes) {
  Synthetic r;
  r.metrics.size_bytes = size;
  r.metrics.latency = latency;
  r.metrics.hops = hops;
  r.events.bytes_cached = writes;
  return r;
}

/// A collector with one node slot, where Record() counts every synthetic
/// request's events.
MetricsCollector OneNode() {
  MetricsCollector collector;
  collector.ResetNodes(1);
  return collector;
}

void Record(MetricsCollector* collector, const Synthetic& r) {
  collector->Record(r.metrics);
  collector->node_counters_data()[0] += r.events;
}

TEST(MetricsTest, EmptySummaryIsZero) {
  MetricsCollector collector;
  const MetricsSummary s = collector.Summary();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.avg_latency, 0.0);
  EXPECT_EQ(s.byte_hit_ratio, 0.0);
}

TEST(MetricsTest, AveragesOverRequests) {
  MetricsCollector collector = OneNode();
  Record(&collector, Hit(1 << 20, 0.2, 2));
  Record(&collector, Miss(1 << 20, 0.6, 6, 1 << 20));
  const MetricsSummary s = collector.Summary();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_NEAR(s.avg_latency, 0.4, 1e-12);
  EXPECT_NEAR(s.avg_hops, 4.0, 1e-12);
  // Response ratio: latency per MB; both objects are exactly 1 MB.
  EXPECT_NEAR(s.avg_response_ratio, 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 0.5);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.5);
}

TEST(MetricsTest, ResponseRatioNormalizesBySize) {
  MetricsCollector collector = OneNode();
  // Same latency for a small and a large object: the small object has a
  // much worse (higher) response ratio.
  Record(&collector, Hit(1 << 18, 0.4, 2));  // 0.25 MB -> 1.6 s/MB.
  const MetricsSummary s = collector.Summary();
  EXPECT_NEAR(s.avg_response_ratio, 1.6, 1e-12);
}

TEST(MetricsTest, TrafficIsByteHops) {
  MetricsCollector collector = OneNode();
  Record(&collector, Hit(1000, 0.1, 3));
  Record(&collector, Hit(500, 0.1, 4));
  const MetricsSummary s = collector.Summary();
  EXPECT_NEAR(s.avg_traffic_byte_hops, (3000.0 + 2000.0) / 2.0, 1e-9);
}

TEST(MetricsTest, LoadCombinesReadsAndWrites) {
  MetricsCollector collector = OneNode();
  Record(&collector, Hit(1000, 0.1, 1));            // Read 1000.
  Record(&collector, Miss(2000, 0.1, 5, 6000));     // Write 6000.
  const MetricsSummary s = collector.Summary();
  EXPECT_NEAR(s.avg_load_bytes, (1000.0 + 6000.0) / 2.0, 1e-9);
  EXPECT_NEAR(s.read_load_share, 1000.0 / 7000.0, 1e-9);
  EXPECT_NEAR(s.avg_write_bytes, 3000.0, 1e-9);
}

TEST(MetricsTest, ByteHitRatioWeighsBySize) {
  MetricsCollector collector = OneNode();
  Record(&collector, Hit(9000, 0.1, 1));
  Record(&collector, Miss(1000, 0.1, 5, 0));
  const MetricsSummary s = collector.Summary();
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 0.9);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.5);
  EXPECT_EQ(s.total_bytes_requested, 10000u);
  EXPECT_EQ(s.bytes_from_caches, 9000u);
}

TEST(MetricsTest, ResetClears) {
  MetricsCollector collector = OneNode();
  Record(&collector, Hit(1000, 0.1, 1));
  collector.Reset();
  EXPECT_EQ(collector.Summary().requests, 0u);
}

TEST(MetricsTest, SummaryExposesRawTotals) {
  MetricsCollector collector = OneNode();
  Synthetic miss = Miss(2000, 0.1, 5, 6000);
  miss.events.placements = 3;
  Record(&collector, miss);
  Record(&collector, Hit(1000, 0.1, 1));
  const MetricsSummary s = collector.Summary();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.bytes_written, 6000u);
  EXPECT_EQ(s.stale_hits, 0u);
}

TEST(MetricsTest, NodeCountersRollUp) {
  MetricsCollector collector;
  collector.ResetNodes(3);
  ASSERT_NE(collector.node_counters_data(), nullptr);
  NodeCounters* nodes = collector.node_counters_data();
  nodes[0].hits = 2;
  nodes[0].misses = 1;
  nodes[0].bytes_served = 500;
  nodes[2].hits = 1;
  nodes[2].evictions = 4;
  nodes[2].placements = 5;
  const NodeCounters total = collector.NodeTotals();
  EXPECT_EQ(total.hits, 3u);
  EXPECT_EQ(total.misses, 1u);
  EXPECT_EQ(total.evictions, 4u);
  EXPECT_EQ(total.placements, 5u);
  EXPECT_EQ(total.bytes_served, 500u);
  EXPECT_EQ(nodes[0].requests_seen(), 3u);
}

TEST(MetricsTest, NodeCountersAccumulateAllFields) {
  // Every aggregate event total is a sum of one NodeCounters field, so a
  // field operator+= skipped would silently read zero in MetricsSummary.
  NodeCounters a;
  a.hits = 1;
  a.misses = 2;
  a.evictions = 3;
  a.placements = 4;
  a.placements_rejected = 5;
  a.expirations = 6;
  a.invalidations = 7;
  a.stale_serves = 8;
  a.dcache_hits = 9;
  a.bytes_served = 10;
  a.bytes_cached = 11;
  a.crashes = 12;
  a.retries = 13;
  a.reroutes = 14;
  a.degraded = 15;
  a.sheds = 16;
  a.store_sheds = 17;
  a.max_queue_depth = 18;
  a.ram_hits = 19;
  a.disk_hits = 20;
  a.promotions = 21;
  a.demotions = 22;
  a.sibling_probes = 23;
  a.sibling_serves = 24;
  a.disk_degraded = 25;
  NodeCounters b = a;
  b += a;
  EXPECT_EQ(b.hits, 2u);
  EXPECT_EQ(b.misses, 4u);
  EXPECT_EQ(b.evictions, 6u);
  EXPECT_EQ(b.placements, 8u);
  EXPECT_EQ(b.placements_rejected, 10u);
  EXPECT_EQ(b.expirations, 12u);
  EXPECT_EQ(b.invalidations, 14u);
  EXPECT_EQ(b.stale_serves, 16u);
  EXPECT_EQ(b.dcache_hits, 18u);
  EXPECT_EQ(b.bytes_served, 20u);
  EXPECT_EQ(b.bytes_cached, 22u);
  EXPECT_EQ(b.crashes, 24u);
  EXPECT_EQ(b.retries, 26u);
  EXPECT_EQ(b.reroutes, 28u);
  EXPECT_EQ(b.degraded, 30u);
  EXPECT_EQ(b.sheds, 32u);
  EXPECT_EQ(b.store_sheds, 34u);
  EXPECT_EQ(b.ram_hits, 38u);
  EXPECT_EQ(b.disk_hits, 40u);
  EXPECT_EQ(b.promotions, 42u);
  EXPECT_EQ(b.demotions, 44u);
  EXPECT_EQ(b.sibling_probes, 46u);
  EXPECT_EQ(b.sibling_serves, 48u);
  EXPECT_EQ(b.disk_degraded, 50u);
  // The queue-depth gauge rolls up as a max, not a sum.
  EXPECT_EQ(b.max_queue_depth, 18u);
  NodeCounters deeper;
  deeper.max_queue_depth = 40;
  b += deeper;
  EXPECT_EQ(b.max_queue_depth, 40u);
  b += a;
  EXPECT_EQ(b.max_queue_depth, 40u);
}

TEST(MetricsTest, SummarySumsNodeCounters) {
  MetricsCollector collector;
  collector.ResetNodes(2);
  RequestMetrics request;
  request.size_bytes = 1000;
  collector.Record(request);
  collector.Record(request);
  NodeCounters* nodes = collector.node_counters_data();
  for (int v = 0; v < 2; ++v) {
    NodeCounters& c = nodes[v];
    const uint64_t k = static_cast<uint64_t>(v) + 1;  // 1, then 2.
    c.hits = 1;
    c.bytes_served = 300 * k;
    c.placements = 3 * k;
    c.bytes_cached = 400 * k;
    c.stale_serves = k - 1;
    c.expirations = 5 * k;
    c.invalidations = 6 * k;
    c.retries = 7 * k;
    c.reroutes = 8 * k;
    c.crashes = 9 * k;
    c.degraded = 10 * k;
    c.sheds = k - 1;
    c.store_sheds = 11 * k;
    c.ram_hits = 12 * k;
    c.disk_hits = 13 * k;
    c.promotions = 14 * k;
    c.demotions = 15 * k;
    c.sibling_probes = 16 * k;
    c.sibling_serves = 17 * k;
    c.disk_degraded = 18 * k;
  }
  const MetricsSummary s = collector.Summary();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.bytes_from_caches, 900u);
  EXPECT_EQ(s.bytes_read, 900u);
  EXPECT_EQ(s.insertions, 9u);
  EXPECT_EQ(s.bytes_written, 1200u);
  EXPECT_EQ(s.stale_hits, 1u);
  EXPECT_EQ(s.copies_expired, 15u);
  EXPECT_EQ(s.copies_invalidated, 18u);
  EXPECT_EQ(s.retries, 21u);
  EXPECT_EQ(s.reroutes, 24u);
  EXPECT_EQ(s.crashes_applied, 27u);
  EXPECT_EQ(s.degraded_decisions, 30u);
  EXPECT_EQ(s.shed_requests, 1u);
  EXPECT_EQ(s.shed_placements, 33u);
  EXPECT_EQ(s.served_requests, 1u);
  EXPECT_EQ(s.ram_hits, 36u);
  EXPECT_EQ(s.disk_hits, 39u);
  EXPECT_EQ(s.promotions, 42u);
  EXPECT_EQ(s.demotions, 45u);
  EXPECT_EQ(s.sibling_probes, 48u);
  EXPECT_EQ(s.sibling_hits, 51u);
  EXPECT_EQ(s.disk_degraded, 54u);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 1.0);
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 0.45);
  EXPECT_DOUBLE_EQ(s.stale_hit_ratio, 0.5);
  EXPECT_DOUBLE_EQ(s.avg_write_bytes, 600.0);
  EXPECT_DOUBLE_EQ(s.avg_load_bytes, 1050.0);
  EXPECT_DOUBLE_EQ(s.read_load_share, 900.0 / 2100.0);
}

TEST(MetricsTest, ResetDropsNodeCounters) {
  MetricsCollector collector;
  collector.ResetNodes(2);
  collector.node_counters_data()[1].hits = 7;
  collector.Reset();
  EXPECT_EQ(collector.node_counters_data(), nullptr);
  collector.ResetNodes(2);
  EXPECT_EQ(collector.node_counters()[1].hits, 0u);
}

TEST(MetricsTest, RecordBlockMatchesSequentialRecordsBitExactly) {
  // The replay records one request stream into blocks whose bounds fall
  // wherever a replayed range (a Run() chunk, a Step(), the completion
  // flush at the end of an event-driven run) ends. Any split must give
  // the one-block summary — including the floating-point summation
  // order. Record() is the finest split: one request per block.
  std::vector<Synthetic> batch;
  for (int i = 0; i < 257; ++i) {
    Synthetic r = (i % 3 == 0)
                      ? Hit(1000 + i * 7, 0.01 * i, 1 + i % 5)
                      : Miss(500 + i * 13, 0.02 * i, 2 + i % 4,
                             (i % 2) * 4096);
    r.events.retries = static_cast<uint64_t>(i % 3);
    r.metrics.queue_wait = 0.001 * (i % 11);
    r.events.sheds = i % 17 == 0 ? 1 : 0;
    r.events.store_sheds = i % 5 == 0 ? 1 : 0;
    if (i % 29 == 0) r.metrics.failed = true;
    batch.push_back(r);
  }

  // Records batch[cuts[k], cuts[k+1]) as one flushed block each.
  const auto record_split = [&batch](const std::vector<size_t>& cuts) {
    MetricsCollector collector = OneNode();
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      MetricsCollector::BlockStats block;
      for (size_t i = cuts[k]; i < cuts[k + 1]; ++i) {
        collector.RecordInBlock(batch[i].metrics, &block);
        collector.node_counters_data()[0] += batch[i].events;
      }
      collector.FlushBlock(block);
    }
    return collector.Summary();
  };
  const MetricsSummary b = record_split({0, batch.size()});
  MetricsCollector sequential = OneNode();
  for (const Synthetic& r : batch) Record(&sequential, r);
  for (const MetricsSummary& a :
       {sequential.Summary(), record_split({0, 1, 65, 200, batch.size()})}) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.failed_requests, b.failed_requests);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.shed_requests, b.shed_requests);
    EXPECT_EQ(a.shed_placements, b.shed_placements);
    EXPECT_EQ(a.served_requests, b.served_requests);
    EXPECT_EQ(a.total_bytes_requested, b.total_bytes_requested);
    EXPECT_EQ(a.bytes_from_caches, b.bytes_from_caches);
    EXPECT_EQ(a.bytes_written, b.bytes_written);
    // Bit-exact, not merely close: every split keeps the Welford update
    // order of the one-block path.
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.avg_hops, b.avg_hops);
    EXPECT_EQ(a.avg_response_ratio, b.avg_response_ratio);
    EXPECT_EQ(a.avg_traffic_byte_hops, b.avg_traffic_byte_hops);
    EXPECT_EQ(a.avg_load_bytes, b.avg_load_bytes);
    EXPECT_EQ(a.avg_queue_wait, b.avg_queue_wait);
  }
}

}  // namespace
}  // namespace cascache::sim
