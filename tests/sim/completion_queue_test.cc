#include "sim/completion_queue.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "schemes/lru_scheme.h"
#include "sim/simulator.h"
#include "testing/scenario.h"

namespace cascache::sim {
namespace {

/// A completion tagged with `id` (carried in size_bytes).
RequestMetrics Tagged(uint64_t id) {
  RequestMetrics m;
  m.size_bytes = id;
  return m;
}

/// Drains through `t` and returns the tags in the order they came out.
std::vector<uint64_t> DrainThrough(CompletionQueue* queue, double t) {
  std::vector<uint64_t> order;
  queue->DrainThrough(t, [&order](const CompletionQueue::Completion& done) {
    order.push_back(done.metrics.size_bytes);
  });
  return order;
}

TEST(CompletionQueueTest, DrainsInTimeOrderUpToTheArrival) {
  CompletionQueue queue;
  queue.Push(3.0, Tagged(30), true);
  queue.Push(1.0, Tagged(10), true);
  queue.Push(2.0, Tagged(20), true);
  EXPECT_EQ(DrainThrough(&queue, 2.5), (std::vector<uint64_t>{10, 20}));
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(DrainThrough(&queue, 10.0), (std::vector<uint64_t>{30}));
  EXPECT_TRUE(queue.empty());
}

TEST(CompletionQueueTest, CompletionAtArrivalTimeIsRecordedFirst) {
  // The replay drains through each arrival's time before its exchange:
  // a completion at exactly that time is recorded before the exchange
  // (completions precede arrivals at equal times), one just after it
  // waits for a later arrival.
  CompletionQueue queue;
  queue.Push(5.0, Tagged(1), true);
  queue.Push(std::nextafter(5.0, 6.0), Tagged(2), true);
  EXPECT_EQ(DrainThrough(&queue, 5.0), (std::vector<uint64_t>{1}));
  EXPECT_EQ(DrainThrough(&queue, 6.0), (std::vector<uint64_t>{2}));
}

TEST(CompletionQueueTest, EqualTimesDrainInPushOrder) {
  CompletionQueue queue;
  for (uint64_t id = 0; id < 5; ++id) queue.Push(4.0, Tagged(id), true);
  queue.Push(3.0, Tagged(99), false);  // Earlier time, pushed last.
  std::vector<bool> collect;
  std::vector<uint64_t> order;
  queue.DrainAll([&](const CompletionQueue::Completion& done) {
    order.push_back(done.metrics.size_bytes);
    collect.push_back(done.collect);
  });
  EXPECT_EQ(order, (std::vector<uint64_t>{99, 0, 1, 2, 3, 4}));
  EXPECT_EQ(collect,
            (std::vector<bool>{false, true, true, true, true, true}));
}

TEST(CompletionQueueTest, ClearForgetsCompletionsAndHorizon) {
  CompletionQueue queue;
  queue.Push(7.0, Tagged(1), true);
  EXPECT_TRUE(DrainThrough(&queue, 6.0).empty());
  queue.Clear();
  EXPECT_TRUE(queue.empty());
  // The horizon is gone too: a fresh run may complete before the last
  // run's arrivals.
  queue.Push(1.0, Tagged(2), true);
  EXPECT_EQ(DrainThrough(&queue, 1.0), (std::vector<uint64_t>{2}));
}

TEST(CompletionQueueDeathTest, CompletionBeforeItsArrivalAborts) {
  CompletionQueue queue;
  EXPECT_TRUE(DrainThrough(&queue, 5.0).empty());  // Arrival at 5.
  queue.Push(5.0, Tagged(1), true);                // Instant: fine.
  // A completion before the arrival that produced it would be recorded
  // after events already processed.
  EXPECT_DEATH(queue.Push(4.0, Tagged(2), true), "");
}

TEST(CompletionDrainTest, WarmupCompletionInMeasuredWindowIsNotRecorded) {
  // One cache, a 10 s lookup on an unbounded queue, arrivals 1 s apart:
  // both warm-up requests are still in flight when the measured ones
  // arrive, so their completions drain inside the measured window.
  trace::Workload workload;
  workload.catalog = testing::MakeCatalog({{100, 0}});
  for (double t = 1.0; t <= 4.0; t += 1.0) {
    workload.requests.push_back(testing::At(t, 0));
  }
  auto network = testing::MakeChainNetwork(&workload.catalog, /*depth=*/1);
  CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;
  options.warmup_fraction = 0.5;
  options.contention.lookup_cost = 10.0;
  Simulator simulator(network.get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.Run(workload, 1000).ok());

  const MetricsSummary s = simulator.metrics().Summary();
  // Only the two measured requests are recorded. Both hit behind the
  // warm-up backlog: the node is busy until 21 when the request at 3
  // arrives (wait 18, latency 28), then until 31 for the one at 4
  // (wait 27, latency 37).
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.avg_queue_wait, 22.5);
  EXPECT_EQ(s.avg_latency, 32.5);
}

}  // namespace
}  // namespace cascache::sim
