#include "schemes/coordinated_scheme.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "testing/scenario.h"
#include "trace/synthetic.h"

namespace cascache::schemes {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;
using sim::CacheNodeConfig;
using sim::Simulator;

// Chain: leaf=node3, node2, node1, root=node0, virtual server link; all
// link delays 1.0; single 100-byte object (size_scale 1).
class CoordinatedSchemeTest : public ::testing::Test {
 protected:
  CoordinatedSchemeTest()
      : catalog_(MakeCatalog({{100, 0}, {100, 0}, {100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {
    Configure(1000);
  }

  void Configure(uint64_t capacity, size_t dcache = 16) {
    CacheNodeConfig config;
    config.mode = sim::CacheMode::kCost;
    config.capacity_bytes = capacity;
    config.dcache_entries = dcache;
    caches_.Configure(config);
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<sim::Network> network_;
  sim::CacheSet caches_;
  CoordinatedScheme scheme_;
};

TEST_F(CoordinatedSchemeTest, Properties) {
  EXPECT_EQ(scheme_.name(), "Coordinated");
  EXPECT_EQ(scheme_.cache_mode(), sim::CacheMode::kCost);
  EXPECT_TRUE(scheme_.uses_dcache());
}

TEST_F(CoordinatedSchemeTest, FirstRequestOnlySeedsDescriptors) {
  // No node has a descriptor yet, so every node is tagged out of the
  // candidate set (paper §2.4): nothing is cached, but the response pass
  // admits descriptors with the correct miss penalties.
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), true);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(caches_.node(v)->Contains(0)) << "node " << v;
  }
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_write_bytes, 0.0);
  EXPECT_EQ(scheme_.stats().excluded_no_descriptor, 4u);
  EXPECT_EQ(scheme_.stats().dp_runs, 0u);
  // Miss penalties accumulate from the origin: root=1, node1=2, node2=3,
  // leaf=4 (unit links, size_scale 1, virtual server link 1).
  EXPECT_DOUBLE_EQ(caches_.node(0)->FindDescriptor(0)->miss_penalty, 1.0);
  EXPECT_DOUBLE_EQ(caches_.node(1)->FindDescriptor(0)->miss_penalty, 2.0);
  EXPECT_DOUBLE_EQ(caches_.node(2)->FindDescriptor(0)->miss_penalty, 3.0);
  EXPECT_DOUBLE_EQ(caches_.node(3)->FindDescriptor(0)->miss_penalty, 4.0);
}

TEST_F(CoordinatedSchemeTest, SecondRequestPlacesAtClientEdgeOnly) {
  // With equal frequencies at every node and ample space (l = 0), the DP
  // places a single copy at the requesting cache: any upstream copy would
  // add no saving (f_i - f_{i+1} = 0) at a non-negative loss.
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), true);
  EXPECT_TRUE(caches_.node(3)->Contains(0));   // Leaf only.
  EXPECT_FALSE(caches_.node(2)->Contains(0));
  EXPECT_FALSE(caches_.node(1)->Contains(0));
  EXPECT_FALSE(caches_.node(0)->Contains(0));
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().avg_write_bytes, 100.0);
  EXPECT_EQ(scheme_.stats().dp_runs, 1u);
  EXPECT_EQ(scheme_.stats().placements, 1u);
  EXPECT_GT(scheme_.stats().total_gain, 0.0);
}

TEST_F(CoordinatedSchemeTest, ThirdRequestHitsAtLeaf) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);
  simulator.Step(At(3.0, 0), true);
  const sim::MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.avg_latency, 0.0);
  EXPECT_DOUBLE_EQ(s.avg_hops, 0.0);
  EXPECT_DOUBLE_EQ(s.byte_hit_ratio, 1.0);
}

TEST_F(CoordinatedSchemeTest, InsertedCopyResetsDownstreamPenalty) {
  // After the leaf caches the object, a fresh placement elsewhere must
  // reference the leaf copy: re-request from the same client and check
  // that the leaf descriptor's miss penalty reflects the nearest upstream
  // copy (hit at leaf -> no change), then evict the leaf copy and verify
  // the next response updates penalties relative to the new serving node.
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);  // Leaf caches the object.
  ASSERT_TRUE(caches_.node(3)->Contains(0));
  caches_.node(3)->EraseObject(0);  // Forcibly drop the copy (keep desc).

  simulator.Step(At(3.0, 0), false);  // Origin serves again.
  // The object is re-placed at the leaf (it is clearly hot there now).
  EXPECT_TRUE(caches_.node(3)->Contains(0));
  // Upstream d-cache descriptors saw the response pass: node2's miss
  // penalty is its distance to the origin copy (3 links).
  EXPECT_TRUE(caches_.node(2)->ncl()->Find(0).dcached());
  EXPECT_DOUBLE_EQ(caches_.node(2)->FindDescriptor(0)->miss_penalty, 3.0);
}

TEST_F(CoordinatedSchemeTest, HotObjectDisplacesColdUnderContention) {
  Configure(100);  // One object per node.
  Simulator simulator(network_.get(), &caches_, &scheme_);
  // Object 1 is requested twice, 49 seconds apart: it gets placed at the
  // leaf with a *small* recorded cost loss (f ~ 2/49, m = 4).
  simulator.Step(At(1.0, 1), false);
  simulator.Step(At(50.0, 1), false);
  ASSERT_TRUE(caches_.node(3)->Contains(1));
  // Object 0 arrives back-to-back: at its second request its saving at
  // the leaf (f*m = 2*4) dwarfs the loss of evicting object 1 (~0.16), so
  // the DP picks the leaf and displaces the cold object.
  simulator.Step(At(51.0, 0), false);
  simulator.Step(At(52.0, 0), false);
  EXPECT_TRUE(caches_.node(3)->Contains(0));
  EXPECT_FALSE(caches_.node(3)->Contains(1));
}

TEST_F(CoordinatedSchemeTest, OversizedObjectIsNeverPlaced) {
  trace::ObjectCatalog catalog = MakeCatalog({{5000, 0}, {100, 0}});
  auto network = MakeChainNetwork(&catalog, 4);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = sim::CacheMode::kCost;
  config.capacity_bytes = 1000;  // Object 0 (5000 B) can never fit.
  config.dcache_entries = 16;
  caches.Configure(config);
  CoordinatedScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme);
  for (double t = 1.0; t <= 6.0; t += 1.0) simulator.Step(At(t, 0), false);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(caches.node(v)->Contains(0));
  }
}

TEST_F(CoordinatedSchemeTest, StatsAccumulateAndReset) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);
  EXPECT_EQ(scheme_.stats().requests, 2u);
  EXPECT_GT(scheme_.stats().candidates, 0u);
  scheme_.ResetStats();
  EXPECT_EQ(scheme_.stats().requests, 0u);
  EXPECT_EQ(scheme_.stats().candidates, 0u);
}

TEST_F(CoordinatedSchemeTest, CandidateHistogramAndOverhead) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  // First request: 0 candidates (no descriptors anywhere).
  simulator.Step(At(1.0, 0), false);
  EXPECT_EQ(scheme_.stats().k_histogram[0], 1u);
  // Second request: all 4 caches are candidates.
  simulator.Step(At(2.0, 0), false);
  EXPECT_EQ(scheme_.stats().k_histogram[4], 1u);
  EXPECT_DOUBLE_EQ(scheme_.stats().MeanCandidates(), 4.0);
  // Overhead accounting: request 1 piggybacks 4 exclusion tags + counter
  // + bitmap; request 2 piggybacks 4 triples (96 B) + counter + bitmap.
  EXPECT_GT(scheme_.stats().piggyback_bytes, 96u);
  EXPECT_LT(scheme_.stats().MeanPiggybackBytesPerRequest(), 200.0);
}

TEST_F(CoordinatedSchemeTest, LruDCachePolicyAlsoWorks) {
  CacheNodeConfig config;
  config.mode = sim::CacheMode::kCost;
  config.capacity_bytes = 1000;
  config.dcache_entries = 16;
  config.dcache_policy = cache::DCachePolicy::kLru;
  caches_.Configure(config);
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(2.0, 0), false);
  simulator.Step(At(3.0, 0), true);
  EXPECT_TRUE(caches_.node(3)->Contains(0));
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().byte_hit_ratio, 1.0);
}

TEST_F(CoordinatedSchemeTest, NoDCacheMeansNoCandidatesButStillWorks) {
  Configure(1000, /*dcache=*/0);
  Simulator simulator(network_.get(), &caches_, &scheme_);
  // Without a d-cache no node ever has a descriptor for a non-cached
  // object, so nothing is ever placed — degenerate but stable.
  for (double t = 1.0; t <= 5.0; t += 1.0) simulator.Step(At(t, 0), true);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(caches_.node(v)->Contains(0));
  }
  EXPECT_EQ(scheme_.stats().dp_runs, 0u);
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().byte_hit_ratio, 0.0);
}

// Every protocol statistic of a fixed en-route run, pinned exactly. The
// ascent computes l_i only for descriptor hops and may stop a walk once
// Theorem 2 rules the hop out; none of this may move a decision, a
// candidate count or a piggybacked byte.
struct PinnedStats {
  double cache_fraction;
  uint64_t requests;
  uint64_t dp_runs;
  uint64_t candidates;
  uint64_t placements;
  uint64_t excluded_no_descriptor;
  uint64_t piggyback_bytes;
  double total_gain;
  std::vector<uint64_t> k_histogram;  ///< Buckets 0.. (the rest are 0).
};

TEST(CoordinatedStatsPinTest, EnRouteRunMatchesRecordedStats) {
  trace::WorkloadParams params;
  params.num_objects = 2'000;
  params.num_requests = 40'000;
  params.num_clients = 100;
  params.num_servers = 40;
  auto workload_or = trace::GenerateWorkload(params);
  ASSERT_TRUE(workload_or.ok()) << workload_or.status().ToString();
  const trace::Workload workload = std::move(workload_or).value();
  auto network_or = sim::Network::Build(sim::NetworkParams(),
                                        &workload.catalog);
  ASSERT_TRUE(network_or.ok()) << network_or.status().ToString();
  const std::unique_ptr<sim::Network> network = std::move(network_or).value();

  // Recorded on the unbounded, ungated ascent (every hop walked its
  // whole plan).
  const PinnedStats kPinned[] = {
      {0.001, 40000, 2406, 3941, 1051, 399196, 888507, 0x1.c6da014fbc9fdp+6,
       {37594, 1749, 375, 107, 49, 40, 21, 18, 16, 8, 9, 4, 1, 4, 3, 0, 1, 1}},
      {0.01, 40000, 10302, 17560, 5915, 297772, 1104343, 0x1.b4f52522cf49p+8,
       {29698, 6892, 1928, 741, 323, 129, 71, 61, 36, 30, 26, 14, 9, 7,
        5, 4, 7, 7, 0, 0, 1, 3, 4, 2, 1, 0, 1}},
      {0.1, 40000, 20346, 68086, 16944, 108244, 2113579, 0x1.0e3bac1d41f23p+9,
       {19654, 7415, 4343, 2519, 1705, 998, 733, 596, 439, 300, 254, 195,
        163, 149, 114, 98, 75, 57, 45, 27, 24, 23, 28, 14, 16, 8, 5, 1, 1,
        0, 1}},
  };
  for (const PinnedStats& want : kPinned) {
    SCOPED_TRACE(want.cache_fraction);
    CoordinatedScheme scheme;
    sim::CacheSet caches = network->MakeCacheSet();
    Simulator simulator(network.get(), &caches, &scheme);
    const uint64_t capacity = static_cast<uint64_t>(
        want.cache_fraction *
        static_cast<double>(workload.catalog.total_bytes()));
    ASSERT_TRUE(simulator.Run(workload, capacity).ok());
    const CoordinatedScheme::Stats& got = scheme.stats();
    EXPECT_EQ(got.requests, want.requests);
    EXPECT_EQ(got.dp_runs, want.dp_runs);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.placements, want.placements);
    EXPECT_EQ(got.excluded_no_descriptor, want.excluded_no_descriptor);
    EXPECT_EQ(got.piggyback_bytes, want.piggyback_bytes);
    EXPECT_EQ(got.total_gain, want.total_gain);  // Bit for bit.
    for (int k = 0; k < CoordinatedScheme::Stats::kMaxTrackedCandidates;
         ++k) {
      const uint64_t bucket = static_cast<size_t>(k) < want.k_histogram.size()
                                  ? want.k_histogram[static_cast<size_t>(k)]
                                  : 0;
      EXPECT_EQ(got.k_histogram[k], bucket) << "k = " << k;
    }
  }
}

}  // namespace
}  // namespace cascache::schemes
