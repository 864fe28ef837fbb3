// Degraded-node fault class tests: deterministic disk-outage schedules
// (RAM-only service for tiered nodes, proxy-only for untiered ones),
// sibling-leg message loss as a pure hash, preservation of disk
// contents across an outage, and integer-exact reconciliation of the
// disk_degraded counters under full runs.

#include <gtest/gtest.h>

#include <vector>

#include "schemes/lru_scheme.h"
#include "schemes/scheme.h"
#include "sim/fault_plane.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "testing/scenario.h"
#include "util/check.h"
#include "util/random.h"

namespace cascache::sim {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;
using cascache::testing::MakeTreeNetwork;
using util::Rng;

FaultScheduleConfig DiskFaultConfig(double mtbf, double downtime,
                                    uint64_t seed = 5) {
  FaultScheduleConfig config;
  config.seed = seed;
  config.disk_fail_mtbf = mtbf;
  config.disk_fail_downtime = downtime;
  return config;
}

/// First t >= start (unit grid) where `plane` reports the node's disk
/// state equal to `want_down`; -1.0 when none found.
double FindDiskState(FaultPlane* plane, topology::NodeId node, double start,
                     bool want_down) {
  for (double t = start; t < start + 100'000.0; t += 1.0) {
    if (plane->DiskDown(node, t) == want_down) return t;
  }
  return -1.0;
}

/// First t >= 0 (unit grid) where path[0]'s disk is down while every
/// other path node's disk is up, so an outage test sees exactly one
/// degraded hop; -1.0 when none found.
double FindLoneLeafOutage(FaultPlane* plane,
                          const std::vector<topology::NodeId>& path) {
  for (double t = 0.0; t < 100'000.0; t += 1.0) {
    if (!plane->DiskDown(path[0], t)) continue;
    bool upstream_healthy = true;
    for (size_t i = 1; i < path.size(); ++i) {
      if (plane->DiskDown(path[i], t)) {
        upstream_healthy = false;
        break;
      }
    }
    if (upstream_healthy) return t;
  }
  return -1.0;
}

TEST(DegradedFaultTest, DiskOutageScheduleIsQueryOrderIndependent) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
  const FaultScheduleConfig config = DiskFaultConfig(40.0, 15.0);
  ASSERT_TRUE(config.active());
  ASSERT_TRUE(config.Validate().ok());

  FaultPlane forward(config, network.get());
  FaultPlane backward(config, network.get());
  const int num_nodes = network->num_nodes();
  std::vector<bool> forward_states;
  for (int v = 0; v < num_nodes; ++v) {
    for (int t = 0; t < 400; ++t) {
      forward_states.push_back(forward.DiskDown(v, static_cast<double>(t)));
    }
  }
  // Reverse query order against a fresh plane: identical answers (the
  // outage streams are deterministic prefixes, not query-order state).
  size_t idx = forward_states.size();
  for (int v = num_nodes - 1; v >= 0; --v) {
    for (int t = 399; t >= 0; --t) {
      --idx;
      ASSERT_EQ(backward.DiskDown(v, static_cast<double>(t)),
                forward_states[idx])
          << "node " << v << " t " << t;
    }
  }
  // The schedule actually alternates, and the disk stream does not leak
  // into the node-crash stream (crashes are disabled in this config).
  EXPECT_GE(FindDiskState(&forward, 0, 0.0, true), 0.0);
  EXPECT_GE(FindDiskState(&forward, 0, 0.0, false), 0.0);
  for (int t = 0; t < 400; t += 7) {
    EXPECT_FALSE(forward.NodeDown(0, static_cast<double>(t)));
  }
}

TEST(DegradedFaultTest, DiskStreamIsSaltedApartFromCrashStream) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
  FaultScheduleConfig config = DiskFaultConfig(40.0, 15.0);
  config.node_crash_mtbf = 40.0;
  config.node_downtime = 15.0;  // Identical rates; only the salt differs.
  FaultPlane plane(config, network.get());
  bool differs = false;
  for (int t = 0; t < 2'000 && !differs; ++t) {
    differs = plane.DiskDown(0, static_cast<double>(t)) !=
              plane.NodeDown(0, static_cast<double>(t));
  }
  EXPECT_TRUE(differs);
}

TEST(DegradedFaultTest, SiblingLossIsAPureHashOfRequestAndProbe) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
  FaultScheduleConfig config;
  config.sibling_loss_prob = 0.4;
  FaultPlane a(config, network.get());
  FaultPlane b(config, network.get());
  int lost = 0;
  for (uint64_t request = 0; request < 1'000; ++request) {
    for (int probe = 0; probe < 3; ++probe) {
      const bool first = a.SiblingLoss(request, probe);
      // Stable across repeated queries and across independent planes.
      EXPECT_EQ(a.SiblingLoss(request, probe), first);
      EXPECT_EQ(b.SiblingLoss(request, probe), first);
      lost += first ? 1 : 0;
    }
  }
  // Unbiased enough to actually exercise both branches.
  EXPECT_GT(lost, 600);
  EXPECT_LT(lost, 1'800);
}

TEST(DegradedFaultTest, TieredNodeServesRamOnlyDuringDiskOutage) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}, {100, 0}});
  auto network = MakeChainNetwork(&catalog, /*depth=*/3);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;
  options.tier.ram_fraction = 0.5;
  options.faults = DiskFaultConfig(40.0, 15.0);
  Simulator simulator(network.get(), &caches, &scheme, options);
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1'000;
  config.ram_fraction = options.tier.ram_fraction;
  caches.Configure(config);

  const topology::NodeId leaf = network->RequesterNode(0);
  CacheNode* node = caches.node(leaf);
  // Object 0: disk + RAM resident. Object 1: disk only.
  node->lru()->Insert(0, 100);
  node->ServeTiered(0, 100);
  node->lru()->Insert(1, 100);
  ASSERT_TRUE(node->ram()->Contains(0));
  ASSERT_FALSE(node->ram()->Contains(1));

  const double t_down = FindLoneLeafOutage(simulator.fault_plane(),
                                           network->ClientRoute(leaf, 0).nodes);
  ASSERT_GE(t_down, 0.0);

  // RAM-resident object: served out of the RAM tier, zero extra hops.
  simulator.Step(At(t_down, 0), /*collect=*/true);
  MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.ram_hits, 1u);
  EXPECT_EQ(s.disk_degraded, 0u);
  EXPECT_DOUBLE_EQ(s.avg_hops, 0.0);

  // Disk-only object: unavailable at the leaf (disk_degraded on the
  // ascent), served upstream, and the descending placement at the
  // degraded hop is lost too (second disk_degraded decision).
  simulator.Step(At(t_down, 1), /*collect=*/true);
  s = simulator.metrics().Summary();
  EXPECT_EQ(s.cache_hits, 1u);  // Still only the RAM serve above.
  EXPECT_EQ(s.disk_degraded, 2u);
  EXPECT_EQ(s.failed_requests, 0u);
  // Contents preserved: the outage costs availability, not data.
  EXPECT_TRUE(node->Contains(0));
  EXPECT_TRUE(node->Contains(1));
}

TEST(DegradedFaultTest, UntieredNodeDegradesToProxyOnly) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, /*depth=*/3);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;  // No tier: the whole node is its disk store.
  options.faults = DiskFaultConfig(40.0, 15.0);
  Simulator simulator(network.get(), &caches, &scheme, options);
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1'000;
  caches.Configure(config);

  const topology::NodeId leaf = network->RequesterNode(0);
  caches.node(leaf)->lru()->Insert(0, 100);
  const double t = FindLoneLeafOutage(simulator.fault_plane(),
                                      network->ClientRoute(leaf, 0).nodes);
  ASSERT_GE(t, 0.0);

  simulator.Step(At(t, 0), /*collect=*/true);
  const MetricsSummary s = simulator.metrics().Summary();
  // Proxy-only: the leaf's perfectly good copy cannot be served (one
  // disk_degraded on the ascent) and the placement coming back down is
  // dropped there (a second one); the request itself still completes.
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.disk_degraded, 2u);
  EXPECT_EQ(s.served_requests, 1u);
  EXPECT_TRUE(caches.node(leaf)->Contains(0));  // Data survives.
}

TEST(DegradedFaultTest, DiskContentsServeAgainAfterRecovery) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, /*depth=*/2);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options;
  options.tier.ram_fraction = 0.2;
  options.faults = DiskFaultConfig(40.0, 15.0);
  Simulator simulator(network.get(), &caches, &scheme, options);
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1'000;
  config.ram_fraction = options.tier.ram_fraction;
  caches.Configure(config);

  const topology::NodeId leaf = network->RequesterNode(0);
  caches.node(leaf)->lru()->Insert(0, 100);  // Disk only, not in RAM.
  FaultPlane* plane = simulator.fault_plane();
  const double t_down = FindDiskState(plane, leaf, 0.0, true);
  ASSERT_GE(t_down, 0.0);
  const double t_up = FindDiskState(plane, leaf, t_down, false);
  ASSERT_GT(t_up, t_down);

  simulator.Step(At(t_down, 0), /*collect=*/true);
  EXPECT_EQ(simulator.metrics().Summary().cache_hits, 0u);
  // After recovery the same pre-outage copy serves from disk (and is
  // promoted): no cold restart for the degraded-node class.
  simulator.Step(At(t_up, 0), /*collect=*/true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.promotions, 1u);
}

// Full-run reconciliation under the complete new axis: tiered nodes +
// sibling cooperation + disk outages + sibling loss, across a scheme
// with piggyback state (Coordinated) and one without (LRU). All the new
// counters must reconcile integer-exactly between the aggregate summary
// and the per-node counters, and no request may be silently dropped.
TEST(DegradedFaultTest, DegradedRunsReconcileExactly) {
  trace::Workload workload;
  Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    workload.catalog.Add(50 + rng.NextUint64(250), 0);
  }
  for (int i = 0; i < 6'000; ++i) {
    workload.requests.push_back(At(static_cast<double>(i) * 0.5,
                                   rng.NextUint64(60), rng.NextUint64(16)));
  }

  const schemes::SchemeSpec specs[] = {
      {.kind = schemes::SchemeKind::kLru},
      {.kind = schemes::SchemeKind::kCoordinated},
  };
  for (const schemes::SchemeSpec& spec : specs) {
    auto scheme_or = schemes::MakeScheme(spec);
    ASSERT_TRUE(scheme_or.ok());
    auto scheme = std::move(scheme_or).value();
    auto network = MakeTreeNetwork(&workload.catalog, /*depth=*/3,
                                   /*fanout=*/2);
    sim::CacheSet caches = network->MakeCacheSet();
    SimOptions options;
    options.tier.ram_fraction = 0.25;
    options.sibling.enabled = true;
    options.faults = DiskFaultConfig(200.0, 60.0);
    options.faults.sibling_loss_prob = 0.1;
    Simulator simulator(network.get(), &caches, scheme.get(), options);
    ASSERT_TRUE(simulator.Run(workload, 2'000).ok()) << scheme->name();

    const MetricsSummary s = simulator.metrics().Summary();
    EXPECT_EQ(s.requests, 3'000u) << scheme->name();
    EXPECT_EQ(s.served_requests + s.failed_requests + s.shed_requests,
              s.requests)
        << scheme->name();
    // Every node is tiered, so every hit is exactly one tier serve.
    EXPECT_EQ(s.ram_hits + s.disk_hits, s.cache_hits) << scheme->name();
    EXPECT_GT(s.disk_degraded, 0u) << scheme->name();

    const NodeCounters totals = simulator.metrics().NodeTotals();
    EXPECT_EQ(totals.hits, s.cache_hits) << scheme->name();
    EXPECT_EQ(totals.ram_hits, s.ram_hits) << scheme->name();
    EXPECT_EQ(totals.disk_hits, s.disk_hits) << scheme->name();
    EXPECT_EQ(totals.promotions, s.promotions) << scheme->name();
    EXPECT_EQ(totals.demotions, s.demotions) << scheme->name();
    EXPECT_EQ(totals.sibling_probes, s.sibling_probes) << scheme->name();
    EXPECT_EQ(totals.sibling_serves, s.sibling_hits) << scheme->name();
    EXPECT_EQ(totals.disk_degraded, s.disk_degraded) << scheme->name();
    EXPECT_EQ(totals.degraded, s.degraded_decisions) << scheme->name();

    // Determinism: an identical second run reproduces the summary bit
    // for bit (fault streams reset with the run).
    auto network2 = MakeTreeNetwork(&workload.catalog, /*depth=*/3,
                                    /*fanout=*/2);
    sim::CacheSet caches2 = network2->MakeCacheSet();
    auto scheme2_or = schemes::MakeScheme(spec);
    ASSERT_TRUE(scheme2_or.ok());
    auto scheme2 = std::move(scheme2_or).value();
    Simulator repeat(network2.get(), &caches2, scheme2.get(), options);
    ASSERT_TRUE(repeat.Run(workload, 2'000).ok());
    const MetricsSummary r = repeat.metrics().Summary();
    EXPECT_EQ(r.cache_hits, s.cache_hits) << scheme->name();
    EXPECT_EQ(r.disk_degraded, s.disk_degraded) << scheme->name();
    EXPECT_EQ(r.sibling_probes, s.sibling_probes) << scheme->name();
    EXPECT_DOUBLE_EQ(r.avg_latency, s.avg_latency) << scheme->name();
    EXPECT_DOUBLE_EQ(r.byte_hit_ratio, s.byte_hit_ratio) << scheme->name();
  }
}

}  // namespace
}  // namespace cascache::sim
