#include "sim/queueing.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "testing/scenario.h"

namespace cascache::sim {
namespace {

TEST(ContentionParamsTest, DefaultIsInactiveAndValid) {
  ContentionParams p;
  EXPECT_FALSE(p.active());
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ContentionParamsTest, AnyKnobActivates) {
  ContentionParams p;
  p.lookup_cost = 1e-3;
  EXPECT_TRUE(p.active());
  p = ContentionParams();
  p.node_queue_capacity = 4;
  EXPECT_TRUE(p.active());
  p = ContentionParams();
  p.link_bandwidth = 1e6;
  EXPECT_TRUE(p.active());
  p = ContentionParams();
  p.arrival_rate = 100.0;
  EXPECT_TRUE(p.active());
  p = ContentionParams();
  p.enabled = true;  // Zero-cost event mode (equivalence testing).
  EXPECT_TRUE(p.active());
}

TEST(ContentionParamsTest, ValidateRejectsBadKnobs) {
  ContentionParams p;
  p.lookup_cost = -1.0;
  EXPECT_FALSE(p.Validate().ok());
  p = ContentionParams();
  p.link_bandwidth = -1.0;
  EXPECT_FALSE(p.Validate().ok());
  p = ContentionParams();
  p.arrival_rate = -1.0;
  EXPECT_FALSE(p.Validate().ok());
  // A ramp without an open-loop rate has nothing to ramp.
  p = ContentionParams();
  p.arrival_ramp = 0.5;
  EXPECT_FALSE(p.Validate().ok());
  p.arrival_rate = 10.0;
  EXPECT_TRUE(p.Validate().ok());
}

TEST(QueueingPlaneTest, AdmitOpAccumulatesFifoBacklog) {
  QueueingPlane plane(2, 0);
  // Power-of-two cost: the waits below are exact in binary floating point.
  const double cost = 0.25;

  QueueingPlane::Admission a = plane.AdmitOp(0, 0.0, cost, 0);
  EXPECT_EQ(a.wait, 0.0);
  EXPECT_EQ(a.depth, 0u);
  EXPECT_FALSE(a.shed);
  EXPECT_EQ(plane.node_busy_until(0), 0.25);

  a = plane.AdmitOp(0, 0.0, cost, 0);
  EXPECT_EQ(a.wait, 0.25);
  EXPECT_EQ(a.depth, 1u);
  EXPECT_EQ(plane.node_busy_until(0), 0.5);

  // Other nodes are independent.
  a = plane.AdmitOp(1, 0.0, cost, 0);
  EXPECT_EQ(a.wait, 0.0);

  // After the backlog drains, admission is free again and the timeline
  // restarts from `now`.
  a = plane.AdmitOp(0, 10.0, cost, 0);
  EXPECT_EQ(a.wait, 0.0);
  EXPECT_EQ(a.depth, 0u);
  EXPECT_EQ(plane.node_busy_until(0), 10.25);
}

TEST(QueueingPlaneTest, BoundedQueueShedsAtCapacity) {
  QueueingPlane plane(1, 0);
  const double cost = 0.5;
  const uint32_t capacity = 2;
  EXPECT_FALSE(plane.AdmitOp(0, 0.0, cost, capacity).shed);  // depth 0
  EXPECT_FALSE(plane.AdmitOp(0, 0.0, cost, capacity).shed);  // depth 1
  EXPECT_GE(plane.BacklogDepth(0, 0.0, cost), capacity);
  EXPECT_EQ(plane.BacklogDepth(0, 0.0, cost), 2u);

  const QueueingPlane::Admission a = plane.AdmitOp(0, 0.0, cost, capacity);
  EXPECT_TRUE(a.shed);
  EXPECT_EQ(a.wait, 0.0);  // A refused op does not wait...
  EXPECT_EQ(a.depth, 2u);
  EXPECT_EQ(plane.node_busy_until(0), 1.0);  // ...and leaves no backlog.

  // An unbounded queue (capacity 0) never sheds.
  EXPECT_FALSE(plane.AdmitOp(0, 0.0, cost, 0).shed);
}

TEST(QueueingPlaneTest, BacklogDepthDoesNotCommit) {
  QueueingPlane plane(1, 0);
  plane.AdmitOp(0, 0.0, 1.0, 0);
  const double before = plane.node_busy_until(0);
  EXPECT_EQ(plane.BacklogDepth(0, 0.0, 1.0), 1u);
  EXPECT_LT(plane.BacklogDepth(0, 0.0, 1.0), 2u);  // Below a capacity of 2.
  EXPECT_EQ(plane.node_busy_until(0), before);
}

TEST(QueueingPlaneTest, ZeroCostOpsAreFree) {
  QueueingPlane plane(1, 0);
  const QueueingPlane::Admission a = plane.AdmitOp(0, 5.0, 0.0, 3);
  EXPECT_EQ(a.wait, 0.0);
  EXPECT_EQ(a.depth, 0u);
  EXPECT_FALSE(a.shed);
  EXPECT_EQ(plane.node_busy_until(0), 0.0);
  EXPECT_EQ(plane.BacklogDepth(0, 0.0, 0.0), 0u);
}

TEST(QueueingPlaneTest, TransferSerializesPerDirectedLink) {
  // A root (0) over three siblings (1, 2, 3).
  const trace::ObjectCatalog catalog =
      cascache::testing::MakeCatalog({{100, 0}});
  const std::unique_ptr<Network> network =
      cascache::testing::MakeTreeNetwork(&catalog, /*depth=*/2, /*fanout=*/3);
  QueueingPlane plane(network->num_nodes(), network->num_links());
  const LinkId up1 = network->graph().Link(1, 0).id;
  const LinkId up2 = network->graph().Link(2, 0).id;
  // Siblings of 1, ascending: 2, then 3.
  const LinkId leg12 = network->SiblingLinks(1)[0];
  const LinkId leg13 = network->SiblingLinks(1)[1];
  // 100 bytes at 400 bytes/s = 0.25 s of occupancy (exact).
  QueueingPlane::Transfer t = plane.TransferOn(up1, 1, 0, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.0);
  EXPECT_EQ(t.tx, 0.25);
  // Second transfer on the same directed link queues FIFO.
  t = plane.TransferOn(up1, 1, 0, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.25);
  EXPECT_EQ(t.tx, 0.25);
  // The reverse direction keeps its own FIFO timeline.
  t = plane.TransferOn(up1, 0, 1, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.0);
  t = plane.TransferOn(up1, 0, 1, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.25);
  // Other links are independent.
  t = plane.TransferOn(up2, 2, 0, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.0);
  // So is the sibling leg: a body from sibling 2 to probing hop 1 queues
  // behind earlier bodies on that pair only, in that direction only.
  t = plane.TransferOn(leg12, 2, 1, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.0);
  t = plane.TransferOn(leg12, 2, 1, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.25);
  t = plane.TransferOn(leg12, 1, 2, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.0);
  t = plane.TransferOn(leg13, 3, 1, 0.0, 100, 400.0);
  EXPECT_EQ(t.wait, 0.0);
  // Infinite bandwidth: free, no occupancy.
  t = plane.TransferOn(up1, 1, 0, 0.0, 100, 0.0);
  EXPECT_EQ(t.wait, 0.0);
  EXPECT_EQ(t.tx, 0.0);
  // Reset forgets every timeline, links and sibling pairs alike.
  plane.Reset();
  EXPECT_EQ(plane.TransferOn(up1, 1, 0, 0.0, 100, 400.0).wait, 0.0);
  EXPECT_EQ(plane.TransferOn(up1, 0, 1, 0.0, 100, 400.0).wait, 0.0);
  EXPECT_EQ(plane.TransferOn(leg12, 2, 1, 0.0, 100, 400.0).wait, 0.0);
}

TEST(QueueingPlaneTest, ResetForgetsBacklog) {
  QueueingPlane plane(2, 1);
  plane.AdmitOp(0, 0.0, 1.0, 0);
  plane.TransferOn(0, 1, 0, 0.0, 100, 100.0);
  plane.Reset();
  EXPECT_EQ(plane.node_busy_until(0), 0.0);
  EXPECT_EQ(plane.TransferOn(0, 1, 0, 0.0, 100, 100.0).wait, 0.0);
}

// --- Analytic-vs-event equivalence ------------------------------------
//
// The contract the contention refactor preserves: a zero-service-cost
// event-driven replay reproduces the analytic replay. Integer event
// totals match exactly (the same requests hit, insert and expire at the
// same caches); the floating-point means may differ only by summation
// order, because the event-driven run records requests in completion
// order rather than arrival order.

ExperimentConfig EquivalenceConfig() {
  ExperimentConfig config;
  config.network.architecture = Architecture::kHierarchical;
  config.network.tree.depth = 3;
  config.workload.num_objects = 200;
  config.workload.num_requests = 8000;
  config.workload.num_clients = 30;
  config.workload.num_servers = 8;
  config.workload.seed = 11;
  config.cache_fractions = {0.02};
  config.schemes = {{.kind = schemes::SchemeKind::kLru},
                    {.kind = schemes::SchemeKind::kCoordinated}};
  config.jobs = 1;
  return config;
}

void ExpectSummariesAgree(const MetricsSummary& a, const MetricsSummary& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.insertions, b.insertions);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_from_caches, b.bytes_from_caches);
  EXPECT_EQ(a.total_bytes_requested, b.total_bytes_requested);
  EXPECT_EQ(a.stale_hits, b.stale_hits);
  EXPECT_EQ(a.copies_expired, b.copies_expired);
  EXPECT_EQ(a.copies_invalidated, b.copies_invalidated);
  EXPECT_EQ(a.shed_requests, 0u);
  EXPECT_EQ(b.shed_requests, 0u);
  EXPECT_EQ(a.served_requests, b.served_requests);
  EXPECT_EQ(a.avg_queue_wait, 0.0);
  EXPECT_EQ(b.avg_queue_wait, 0.0);
  EXPECT_NEAR(a.avg_latency, b.avg_latency,
              1e-9 * std::max(1.0, a.avg_latency));
  EXPECT_NEAR(a.avg_hops, b.avg_hops, 1e-9 * std::max(1.0, a.avg_hops));
  EXPECT_DOUBLE_EQ(a.byte_hit_ratio, b.byte_hit_ratio);
  EXPECT_DOUBLE_EQ(a.hit_ratio, b.hit_ratio);
}

TEST(ContentionEquivalenceTest, ZeroCostEventModeMatchesAnalytic) {
  ExperimentConfig analytic = EquivalenceConfig();
  ExperimentConfig event = EquivalenceConfig();
  event.sim.contention.enabled = true;  // Event-driven, all costs zero.

  auto runner_a = ExperimentRunner::Create(analytic);
  ASSERT_TRUE(runner_a.ok()) << runner_a.status();
  auto results_a = (*runner_a)->RunAll();
  ASSERT_TRUE(results_a.ok()) << results_a.status();

  auto runner_e = ExperimentRunner::Create(event);
  ASSERT_TRUE(runner_e.ok()) << runner_e.status();
  auto results_e = (*runner_e)->RunAll();
  ASSERT_TRUE(results_e.ok()) << results_e.status();

  ASSERT_EQ(results_a->size(), results_e->size());
  for (size_t i = 0; i < results_a->size(); ++i) {
    SCOPED_TRACE((*results_a)[i].scheme);
    ExpectSummariesAgree((*results_a)[i].metrics, (*results_e)[i].metrics);
    // Per-node counters are pure integer state: identical node by node.
    ASSERT_EQ((*results_a)[i].per_node.size(), (*results_e)[i].per_node.size());
    for (size_t v = 0; v < (*results_a)[i].per_node.size(); ++v) {
      const NodeCounters& ca = (*results_a)[i].per_node[v].counters;
      const NodeCounters& ce = (*results_e)[i].per_node[v].counters;
      EXPECT_EQ(ca.hits, ce.hits);
      EXPECT_EQ(ca.misses, ce.misses);
      EXPECT_EQ(ca.placements, ce.placements);
      EXPECT_EQ(ca.evictions, ce.evictions);
      EXPECT_EQ(ce.sheds, 0u);
      EXPECT_EQ(ce.max_queue_depth, 0u);
    }
  }
}

// Satellite regression: TTL expiry decisions come off the one virtual
// clock, so both scheduling policies must agree on every expiry boundary
// (same copies expired at the same caches, same stale serves).
TEST(ContentionEquivalenceTest, TtlExpiryBoundariesAgreeAcrossPolicies) {
  ExperimentConfig analytic = EquivalenceConfig();
  analytic.sim.coherency.protocol = CoherencyProtocol::kTtl;
  analytic.sim.coherency.ttl = 40.0;  // Forces expiries mid-trace.
  analytic.sim.coherency.mutable_fraction = 0.3;
  ExperimentConfig event = analytic;
  event.sim.contention.enabled = true;

  auto runner_a = ExperimentRunner::Create(analytic);
  ASSERT_TRUE(runner_a.ok()) << runner_a.status();
  auto results_a = (*runner_a)->RunAll();
  ASSERT_TRUE(results_a.ok()) << results_a.status();

  auto runner_e = ExperimentRunner::Create(event);
  ASSERT_TRUE(runner_e.ok()) << runner_e.status();
  auto results_e = (*runner_e)->RunAll();
  ASSERT_TRUE(results_e.ok()) << results_e.status();

  ASSERT_EQ(results_a->size(), results_e->size());
  bool saw_expiry = false;
  for (size_t i = 0; i < results_a->size(); ++i) {
    SCOPED_TRACE((*results_a)[i].scheme);
    const MetricsSummary& ma = (*results_a)[i].metrics;
    const MetricsSummary& me = (*results_e)[i].metrics;
    EXPECT_EQ(ma.copies_expired, me.copies_expired);
    EXPECT_EQ(ma.cache_hits, me.cache_hits);
    EXPECT_EQ(ma.insertions, me.insertions);
    saw_expiry = saw_expiry || ma.copies_expired > 0;
    // Per-node expiry locations match exactly too.
    for (size_t v = 0; v < (*results_a)[i].per_node.size(); ++v) {
      EXPECT_EQ((*results_a)[i].per_node[v].counters.expirations,
                (*results_e)[i].per_node[v].counters.expirations);
    }
  }
  // The TTL must actually bite, or this test pins nothing.
  EXPECT_TRUE(saw_expiry);
}

}  // namespace
}  // namespace cascache::sim
