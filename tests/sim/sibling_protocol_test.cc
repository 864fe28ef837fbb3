// Sibling cooperation protocol tests: ICP-style probes on local miss,
// proxy-only sibling serves, the OnSiblingProbe/OnSiblingServe hook
// contract, hop alignment across every built-in scheme, the level
// filter, probe freshness, and the sibling-leg fault class.

#include <gtest/gtest.h>

#include <memory>
#include <string>
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
using cascache::testing::MakeTreeNetwork;
using util::Rng;

/// Records every hook invocation in order; LRU-mode, state-free. Used to
/// pin the simulator's dispatch sequence around sibling probes.
class RecordingScheme : public schemes::CachingScheme {
 public:
  struct Event {
    std::string kind;  // "ascend", "probe", "serve", "sibling_serve", ...
    int hop = -1;
    topology::NodeId sibling = topology::kInvalidNode;
  };

  std::string name() const override { return "Recording"; }
  CacheMode cache_mode() const override { return CacheMode::kLru; }
  bool observes_ascent() const override { return true; }
  bool uses_link_costs() const override { return false; }

  void OnAscend(MessageContext& ctx, int hop) override {
    (void)ctx;
    events.push_back({"ascend", hop, topology::kInvalidNode});
  }
  void OnServe(MessageContext& ctx) override {
    events.push_back({"serve", ctx.hit_index(), topology::kInvalidNode});
  }
  void OnSiblingServe(MessageContext& ctx) override {
    events.push_back(
        {"sibling_serve", ctx.hit_index(), ctx.response.sibling});
  }
  void OnSiblingProbe(MessageContext& ctx, int hop,
                      topology::NodeId sibling) override {
    (void)ctx;
    events.push_back({"probe", hop, sibling});
  }
  void OnDescend(MessageContext& ctx, int hop) override {
    (void)ctx;
    events.push_back({"descend", hop, topology::kInvalidNode});
  }

  std::vector<Event> events;
};

SimOptions SiblingOptions() {
  SimOptions options;
  options.sibling.enabled = true;
  return options;
}

CacheNodeConfig LruConfig(uint64_t capacity) {
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = capacity;
  return config;
}

TEST(SiblingProtocolTest, SiblingServeShortCircuitsAscent) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
  sim::CacheSet caches = network->MakeCacheSet();
  ASSERT_TRUE(network->HasSiblings());
  schemes::LruScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme, SiblingOptions());
  caches.Configure(LruConfig(1'000));

  const topology::NodeId leaf = network->RequesterNode(0);
  const std::vector<topology::NodeId>& siblings = network->Siblings(leaf);
  ASSERT_EQ(siblings.size(), 1u);  // Fanout 2: exactly one sibling.
  const topology::NodeId sib = siblings[0];
  caches.node(sib)->lru()->Insert(0, 100);

  simulator.Step(At(1.0, 0), /*collect=*/true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.cache_hits, 1u);  // A sibling serve is a cache hit.
  EXPECT_EQ(s.sibling_probes, 1u);
  EXPECT_EQ(s.sibling_hits, 1u);
  // The sibling leg: up to the shared parent (delay 1) and across to the
  // sibling (delay 1); two physical hops.
  EXPECT_DOUBLE_EQ(s.avg_latency, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_hops, 2.0);
  // Proxy-only: the probing leaf keeps no copy, the sibling keeps its.
  EXPECT_FALSE(caches.node(leaf)->Contains(0));
  EXPECT_TRUE(caches.node(sib)->Contains(0));
}

TEST(SiblingProtocolTest, ProbesAscendingIdThenAscendOnMiss) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/3);
  sim::CacheSet caches = network->MakeCacheSet();
  RecordingScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme, SiblingOptions());
  caches.Configure(LruConfig(1'000));

  const topology::NodeId leaf = network->RequesterNode(0);
  const std::vector<topology::NodeId>& leaf_sibs = network->Siblings(leaf);
  ASSERT_EQ(leaf_sibs.size(), 2u);
  EXPECT_LT(leaf_sibs[0], leaf_sibs[1]);  // Deterministic probe order.

  // Nobody has the object: every hop probes its siblings (in ascending
  // id), then falls back to OnAscend; the origin serves; the descent
  // then walks every hop back down.
  simulator.Step(At(1.0, 0), /*collect=*/true);
  const auto& ev = scheme.events;
  // Hops 0 and 1 have two siblings each; the root (hop 2) has none.
  // 2 probes + ascend at hop 0, 2 probes + ascend at hop 1, ascend at
  // hop 2, serve, 3 descends.
  ASSERT_EQ(ev.size(), 11u);
  EXPECT_EQ(ev[0].kind, "probe");
  EXPECT_EQ(ev[0].hop, 0);
  EXPECT_EQ(ev[0].sibling, leaf_sibs[0]);
  EXPECT_EQ(ev[1].kind, "probe");
  EXPECT_EQ(ev[1].sibling, leaf_sibs[1]);
  EXPECT_EQ(ev[2].kind, "ascend");
  EXPECT_EQ(ev[2].hop, 0);
  EXPECT_EQ(ev[3].kind, "probe");
  EXPECT_EQ(ev[3].hop, 1);
  EXPECT_EQ(ev[4].kind, "probe");
  EXPECT_EQ(ev[5].kind, "ascend");
  EXPECT_EQ(ev[5].hop, 1);
  EXPECT_EQ(ev[6].kind, "ascend");
  EXPECT_EQ(ev[6].hop, 2);
  EXPECT_EQ(ev[7].kind, "serve");
  EXPECT_EQ(ev[7].hop, -1);  // Origin served.
  EXPECT_EQ(ev[8].kind, "descend");
  EXPECT_EQ(ev[8].hop, 2);
  EXPECT_EQ(ev[9].hop, 1);
  EXPECT_EQ(ev[10].hop, 0);
  EXPECT_EQ(simulator.metrics().Summary().sibling_probes, 4u);
}

TEST(SiblingProtocolTest, SiblingServeSkipsOnAscendAtProbingHop) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
  sim::CacheSet caches = network->MakeCacheSet();
  RecordingScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme, SiblingOptions());
  caches.Configure(LruConfig(1'000));

  const topology::NodeId leaf = network->RequesterNode(0);
  const topology::NodeId sib = network->Siblings(leaf)[0];
  caches.node(sib)->lru()->Insert(0, 100);

  simulator.Step(At(1.0, 0), /*collect=*/true);
  // The probing hop behaves exactly like a serving point: probe, then
  // OnSiblingServe — no OnAscend there, and a hit at hop 0 has no
  // descent. This is what keeps hop-indexed ascent state (Coordinated's
  // piggyback stack) aligned with no scheme-side special-casing.
  const auto& ev = scheme.events;
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, "probe");
  EXPECT_EQ(ev[0].hop, 0);
  EXPECT_EQ(ev[1].kind, "sibling_serve");
  EXPECT_EQ(ev[1].hop, 0);
  EXPECT_EQ(ev[1].sibling, sib);
}

TEST(SiblingProtocolTest, MaxProbesBoundsTheProbeFanout) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/2, /*fanout=*/4);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options = SiblingOptions();
  options.sibling.max_probes = 1;
  Simulator simulator(network.get(), &caches, &scheme, options);
  caches.Configure(LruConfig(1'000));

  const topology::NodeId leaf = network->RequesterNode(0);
  ASSERT_EQ(network->Siblings(leaf).size(), 3u);
  simulator.Step(At(1.0, 0), /*collect=*/true);
  // Only the first sibling (lowest id) was probed at the leaf.
  EXPECT_EQ(simulator.metrics().Summary().sibling_probes, 1u);
}

TEST(SiblingProtocolTest, LevelFilterRestrictsProbingToThatLevel) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options = SiblingOptions();
  options.sibling.level = 1;  // Mid-level caches only.
  Simulator simulator(network.get(), &caches, &scheme, options);
  caches.Configure(LruConfig(1'000));

  const topology::NodeId leaf = network->RequesterNode(0);
  const topology::NodeId mid = network->Parent(leaf);
  ASSERT_EQ(network->NodeLevel(mid), 1);
  const topology::NodeId mid_sib = network->Siblings(mid)[0];
  // Copies at both the leaf's sibling and the mid-level sibling: the
  // leaf may not probe (level filter), so the serve comes from the
  // mid-level sibling at hop 1.
  caches.node(network->Siblings(leaf)[0])->lru()->Insert(0, 100);
  caches.node(mid_sib)->lru()->Insert(0, 100);

  simulator.Step(At(1.0, 0), /*collect=*/true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.sibling_probes, 1u);
  EXPECT_EQ(s.sibling_hits, 1u);
  // The descent below the probing hop runs as for a local hit there:
  // the leaf receives a copy (plain-LRU placement), the probing
  // mid-level node stays proxy-only.
  EXPECT_TRUE(caches.node(leaf)->Contains(0));
  EXPECT_FALSE(caches.node(mid)->Contains(0));
}

TEST(SiblingProtocolTest, SiblingLossFallsBackToTheAscent) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options = SiblingOptions();
  options.faults.sibling_loss_prob = 1.0;  // Every probe (or reply) lost.
  Simulator simulator(network.get(), &caches, &scheme, options);
  caches.Configure(LruConfig(1'000));

  const topology::NodeId leaf = network->RequesterNode(0);
  const topology::NodeId sib = network->Siblings(leaf)[0];
  caches.node(sib)->lru()->Insert(0, 100);

  simulator.Step(At(1.0, 0), /*collect=*/true);
  const MetricsSummary s = simulator.metrics().Summary();
  // The probe went out but its answer never arrived: the request
  // ascended past the sibling's perfectly good copy to the origin.
  EXPECT_GE(s.sibling_probes, 1u);
  EXPECT_EQ(s.sibling_hits, 0u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_GE(s.degraded_decisions, 1u);
  EXPECT_TRUE(caches.node(sib)->Contains(0));  // Probes never mutate.
}

// With every sibling probe lost, the delivered results must be exactly
// the sibling-disabled replay (plus the probe/degraded accounting):
// losses may not corrupt hit, latency, or placement behavior.
TEST(SiblingProtocolTest, TotalSiblingLossMatchesDisabledSiblings) {
  trace::Workload workload;
  Rng rng(99);
  for (int i = 0; i < 64; ++i) {
    workload.catalog.Add(50 + rng.NextUint64(200), 0);
  }
  for (int i = 0; i < 4'000; ++i) {
    workload.requests.push_back(At(static_cast<double>(i),
                                   rng.NextUint64(64), rng.NextUint64(16)));
  }

  auto run = [&](bool sibling, double loss) {
    trace::ObjectCatalog& catalog = workload.catalog;
    auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
    sim::CacheSet caches = network->MakeCacheSet();
    schemes::LruScheme scheme;
    SimOptions options;
    options.sibling.enabled = sibling;
    options.faults.sibling_loss_prob = loss;
    Simulator simulator(network.get(), &caches, &scheme, options);
    CASCACHE_CHECK_OK(simulator.Run(workload, 2'000));
    return simulator.metrics().Summary();
  };

  const MetricsSummary off = run(false, 0.0);
  const MetricsSummary lost = run(true, 1.0);
  EXPECT_EQ(lost.cache_hits, off.cache_hits);
  EXPECT_EQ(lost.sibling_hits, 0u);
  EXPECT_GT(lost.sibling_probes, 0u);
  EXPECT_DOUBLE_EQ(lost.avg_latency, off.avg_latency);
  EXPECT_DOUBLE_EQ(lost.byte_hit_ratio, off.byte_hit_ratio);
  EXPECT_DOUBLE_EQ(lost.avg_hops, off.avg_hops);
  EXPECT_EQ(lost.insertions, off.insertions);
}

// Freshness across the sibling leg: an expired sibling copy is skipped
// (not served, not erased) — probes are observational.
TEST(SiblingProtocolTest, StaleSiblingCopyIsSkippedNotErased) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeTreeNetwork(&catalog, /*depth=*/3, /*fanout=*/2);
  sim::CacheSet caches = network->MakeCacheSet();
  schemes::LruScheme scheme;
  SimOptions options = SiblingOptions();
  options.coherency.protocol = CoherencyProtocol::kTtl;
  options.coherency.ttl = 10.0;
  Simulator simulator(network.get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());
  caches.Configure(LruConfig(1'000));

  const topology::NodeId leaf = network->RequesterNode(0);
  const topology::NodeId sib = network->Siblings(leaf)[0];
  caches.node(sib)->lru()->Insert(0, 100);
  caches.node(sib)->StampCopy(0, /*fetch_time=*/0.0, /*version=*/1);

  // Well past the TTL: the sibling's copy is expired, so the probe
  // reads as a miss and the request goes to the origin.
  simulator.Step(At(100.0, 0), /*collect=*/true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.sibling_probes, 2u);  // Leaf level + mid level.
  EXPECT_EQ(s.sibling_hits, 0u);
  EXPECT_TRUE(caches.node(sib)->Contains(0));  // Skipped, not erased.

  // Within the TTL the same copy serves. The first request's descent
  // placed copies along the path at t=100; by t=150 those have expired
  // too, so the leaf misses again and probes the freshly stamped sibling.
  caches.node(sib)->StampCopy(0, /*fetch_time=*/145.0, /*version=*/1);
  simulator.Step(At(150.0, 0), /*collect=*/true);
  EXPECT_EQ(simulator.metrics().Summary().sibling_hits, 1u);
}

// Every built-in scheme must survive sibling cooperation with its
// hop-indexed state aligned (Coordinated's DP asserts internally if the
// ascent stack desyncs) and with the sibling counters reconciling
// integer-exactly against the per-node counters.
TEST(SiblingProtocolTest, AllSchemesReconcileUnderSiblingCooperation) {
  trace::Workload workload;
  Rng rng(7);
  for (int i = 0; i < 80; ++i) {
    workload.catalog.Add(50 + rng.NextUint64(300), 0);
  }
  for (int i = 0; i < 6'000; ++i) {
    workload.requests.push_back(At(static_cast<double>(i),
                                   rng.NextUint64(80), rng.NextUint64(24)));
  }

  const schemes::SchemeSpec specs[] = {
      {.kind = schemes::SchemeKind::kLru},
      {.kind = schemes::SchemeKind::kModulo, .modulo_radius = 2},
      {.kind = schemes::SchemeKind::kLncr},
      {.kind = schemes::SchemeKind::kCoordinated},
      {.kind = schemes::SchemeKind::kGds},
      {.kind = schemes::SchemeKind::kLfu},
      {.kind = schemes::SchemeKind::kStatic, .static_freeze_requests = 1'000},
  };
  for (const schemes::SchemeSpec& spec : specs) {
    auto scheme_or = schemes::MakeScheme(spec);
    ASSERT_TRUE(scheme_or.ok());
    std::unique_ptr<schemes::CachingScheme> scheme =
        std::move(scheme_or).value();
    auto network = MakeTreeNetwork(&workload.catalog, /*depth=*/3,
                                   /*fanout=*/3);
    sim::CacheSet caches = network->MakeCacheSet();
    SimOptions options = SiblingOptions();
    options.dcache_ratio = 3.0;
    Simulator simulator(network.get(), &caches, scheme.get(), options);
    ASSERT_TRUE(simulator.Run(workload, 3'000).ok()) << scheme->name();

    const MetricsSummary s = simulator.metrics().Summary();
    EXPECT_EQ(s.requests, 3'000u) << scheme->name();  // Post-warmup half.
    EXPECT_GT(s.sibling_probes, 0u) << scheme->name();
    EXPECT_LE(s.sibling_hits, s.sibling_probes) << scheme->name();
    EXPECT_LE(s.sibling_hits, s.cache_hits) << scheme->name();

    const NodeCounters totals = simulator.metrics().NodeTotals();
    EXPECT_EQ(totals.sibling_probes, s.sibling_probes) << scheme->name();
    EXPECT_EQ(totals.sibling_serves, s.sibling_hits) << scheme->name();
    EXPECT_EQ(totals.hits, s.cache_hits) << scheme->name();
    // A sibling serve is a hit at the serving sibling.
    for (const NodeCounters& c : simulator.metrics().node_counters()) {
      EXPECT_LE(c.sibling_serves, c.hits) << scheme->name();
    }
  }
}

}  // namespace
}  // namespace cascache::sim
