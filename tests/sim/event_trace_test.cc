#include "sim/event_trace.h"

#include <gtest/gtest.h>

#include "sim/experiment.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace cascache::sim {
namespace {

TraceEvent Event(uint64_t req, TraceEventType type, int32_t node) {
  TraceEvent e;
  e.request_index = req;
  e.time = static_cast<double>(req) * 0.5;
  e.type = type;
  e.node = node;
  e.level = 1;
  e.object = 42;
  e.size_bytes = 1000;
  e.value = 2.0;
  return e;
}

TEST(EventTraceTest, RingKeepsMostRecentRecords) {
  EventTraceOptions options;
  options.enabled = true;
  options.ring_capacity = 4;
  EventTrace trace(options);
  for (uint64_t i = 0; i < 6; ++i) {
    trace.Emit(Event(i, TraceEventType::kHit, 0));
  }
  EXPECT_EQ(trace.emitted(), 6u);
  EXPECT_EQ(trace.dropped(), 2u);
  const std::vector<TraceEvent> records = trace.Records();
  ASSERT_EQ(records.size(), 4u);
  // Oldest surviving record first.
  EXPECT_EQ(records.front().request_index, 2u);
  EXPECT_EQ(records.back().request_index, 5u);
}

TEST(EventTraceTest, ClearEmptiesTheRing) {
  EventTraceOptions options;
  options.ring_capacity = 4;
  EventTrace trace(options);
  trace.Emit(Event(0, TraceEventType::kHit, 0));
  trace.Clear();
  EXPECT_EQ(trace.emitted(), 0u);
  EXPECT_TRUE(trace.Records().empty());
}

TEST(EventTraceTest, SamplingRateZeroAndOneAreTotal) {
  EventTraceOptions options;
  options.sampling_rate = 1.0;
  EventTrace all(options);
  options.sampling_rate = 0.0;
  EventTrace none(options);
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(all.SampleRequest(i));
    EXPECT_FALSE(none.SampleRequest(i));
  }
}

TEST(EventTraceTest, SamplingIsDeterministicUnderFixedSeed) {
  EventTraceOptions options;
  options.sampling_rate = 0.3;
  options.seed = 12345;
  EventTrace a(options);
  EventTrace b(options);
  int sampled = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(a.SampleRequest(i), b.SampleRequest(i)) << "index " << i;
    if (a.SampleRequest(i)) ++sampled;
  }
  // The hash is uniform: the sampled fraction lands near the rate.
  EXPECT_GT(sampled, 2700);
  EXPECT_LT(sampled, 3300);
  // A different seed picks a different subset.
  options.seed = 54321;
  EventTrace c(options);
  int differs = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    if (a.SampleRequest(i) != c.SampleRequest(i)) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(EventTraceTest, TypeNamesAreStable) {
  // docs/METRICS.md documents these wire names; keep them in lockstep.
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kRequest), "request");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kHit), "hit");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kOrigin), "origin");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kMiss), "miss");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kExpired), "expired");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kInvalidated),
               "invalidated");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kStaleServe),
               "stale_serve");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kPlacement), "placement");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kPlacementRejected),
               "placement_rejected");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kEviction), "eviction");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kDCacheHit), "dcache_hit");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kNodeCrash), "node_crash");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kReroute), "reroute");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kRetry), "retry");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kRequestFailed),
               "request_failed");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kFaultDegraded),
               "fault_degraded");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kQueueDepth),
               "queue_depth");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kShed), "shed");
}

TEST(EventTraceTest, JsonLineGoldenShape) {
  TraceEvent e;
  e.request_index = 7;
  e.time = 1.5;
  e.type = TraceEventType::kPlacement;
  e.node = 3;
  e.level = 2;
  e.object = 99;
  e.size_bytes = 2048;
  e.value = 0.25;
  std::string fields = "prefix,";
  EventTrace::AppendJsonFields(e, &fields);
  EXPECT_EQ(fields,
            "prefix,\"req\":7,\"t\":1.500000,\"type\":\"placement\",\"node\":3,"
            "\"level\":2,\"object\":99,\"size\":2048,\"value\":0.25");
}

TEST(EventTraceTest, WriteJsonlRoundTrips) {
  RunResult cell;
  cell.scheme = "LRU";
  cell.cache_fraction = 0.5;
  cell.trace_events = {Event(1, TraceEventType::kRequest, 0),
                       Event(1, TraceEventType::kMiss, 0)};
  const std::string path =
      ::testing::TempDir() + "/event_trace_test_out.jsonl";
  ASSERT_TRUE(WriteTraceJsonl({cell}, path).ok());
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "{\"scheme\":\"LRU\",\"cache_fraction\":0.5,\"req\":1,"
            "\"t\":0.500000,\"type\":\"request\",\"node\":0,\"level\":1,"
            "\"object\":42,\"size\":1000,\"value\":2}");
  EXPECT_NE(lines[1].find("\"type\":\"miss\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventTraceTest, WriteJsonlBadPathFails) {
  EXPECT_FALSE(WriteTraceJsonl({}, "/nonexistent-dir/trace.jsonl").ok());
}

}  // namespace
}  // namespace cascache::sim
