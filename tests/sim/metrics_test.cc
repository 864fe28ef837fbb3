#include "sim/metrics.h"

#include <vector>

#include <gtest/gtest.h>

namespace cascache::sim {
namespace {

RequestMetrics Hit(uint64_t size, double latency, int hops) {
  RequestMetrics m;
  m.size_bytes = size;
  m.latency = latency;
  m.hops = hops;
  m.cache_hit = true;
  m.read_bytes = size;
  return m;
}

RequestMetrics Miss(uint64_t size, double latency, int hops,
                    uint64_t writes) {
  RequestMetrics m;
  m.size_bytes = size;
  m.latency = latency;
  m.hops = hops;
  m.cache_hit = false;
  m.write_bytes = writes;
  return m;
}

TEST(MetricsTest, EmptySummaryIsZero) {
  MetricsCollector collector;
  const MetricsSummary s = collector.Summary();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.avg_latency, 0.0);
  EXPECT_EQ(s.byte_hit_ratio, 0.0);
}

TEST(MetricsTest, AveragesOverRequests) {
  MetricsCollector collector;
  collector.Record(Hit(1 << 20, 0.2, 2));
  collector.Record(Miss(1 << 20, 0.6, 6, 1 << 20));
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
  MetricsCollector collector;
  // Same latency for a small and a large object: the small object has a
  // much worse (higher) response ratio.
  collector.Record(Hit(1 << 18, 0.4, 2));  // 0.25 MB -> 1.6 s/MB.
  const MetricsSummary s = collector.Summary();
  EXPECT_NEAR(s.avg_response_ratio, 1.6, 1e-12);
}

TEST(MetricsTest, TrafficIsByteHops) {
  MetricsCollector collector;
  collector.Record(Hit(1000, 0.1, 3));
  collector.Record(Hit(500, 0.1, 4));
  const MetricsSummary s = collector.Summary();
  EXPECT_NEAR(s.avg_traffic_byte_hops, (3000.0 + 2000.0) / 2.0, 1e-9);
}

TEST(MetricsTest, LoadCombinesReadsAndWrites) {
  MetricsCollector collector;
  collector.Record(Hit(1000, 0.1, 1));            // Read 1000.
  collector.Record(Miss(2000, 0.1, 5, 6000));     // Write 6000.
  const MetricsSummary s = collector.Summary();
  EXPECT_NEAR(s.avg_load_bytes, (1000.0 + 6000.0) / 2.0, 1e-9);
  EXPECT_NEAR(s.read_load_share, 1000.0 / 7000.0, 1e-9);
  EXPECT_NEAR(s.avg_write_bytes, 3000.0, 1e-9);
}

TEST(MetricsTest, ByteHitRatioWeighsBySize) {
  MetricsCollector collector;
  collector.Record(Hit(9000, 0.1, 1));
  collector.Record(Miss(1000, 0.1, 5, 0));
  const MetricsSummary s = collector.Summary();
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 0.9);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.5);
  EXPECT_EQ(s.total_bytes_requested, 10000u);
  EXPECT_EQ(s.bytes_from_caches, 9000u);
}

TEST(MetricsTest, ResetClears) {
  MetricsCollector collector;
  collector.Record(Hit(1000, 0.1, 1));
  collector.Reset();
  EXPECT_EQ(collector.Summary().requests, 0u);
}

TEST(MetricsTest, SummaryExposesRawTotals) {
  MetricsCollector collector;
  RequestMetrics m = Miss(2000, 0.1, 5, 6000);
  m.insertions = 3;
  collector.Record(m);
  collector.Record(Hit(1000, 0.1, 1));
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
  std::vector<RequestMetrics> batch;
  for (int i = 0; i < 257; ++i) {
    RequestMetrics m = (i % 3 == 0)
                           ? Hit(1000 + i * 7, 0.01 * i, 1 + i % 5)
                           : Miss(500 + i * 13, 0.02 * i, 2 + i % 4,
                                  (i % 2) * 4096);
    m.retries = i % 3;
    m.queue_wait = 0.001 * (i % 11);
    m.shed = i % 17 == 0;
    m.placements_shed = i % 5 == 0 ? 1 : 0;
    if (i % 29 == 0) m.failed = true;
    batch.push_back(m);
  }

  // Records batch[cuts[k], cuts[k+1]) as one flushed block each.
  const auto record_split = [&batch](const std::vector<size_t>& cuts) {
    MetricsCollector collector;
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      MetricsCollector::BlockStats block;
      for (size_t i = cuts[k]; i < cuts[k + 1]; ++i) {
        collector.RecordInBlock(batch[i], &block);
      }
      collector.FlushBlock(block);
    }
    return collector.Summary();
  };
  const MetricsSummary b = record_split({0, batch.size()});
  MetricsCollector sequential;
  for (const RequestMetrics& m : batch) sequential.Record(m);
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

TEST(MetricsTest, ToStringMentionsKeyFields) {
  MetricsCollector collector;
  collector.Record(Hit(1000, 0.1, 1));
  const std::string s = collector.Summary().ToString();
  EXPECT_NE(s.find("requests=1"), std::string::npos);
  EXPECT_NE(s.find("byte_hit"), std::string::npos);
}

}  // namespace
}  // namespace cascache::sim
