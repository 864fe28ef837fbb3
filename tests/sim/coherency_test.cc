#include "sim/coherency.h"

#include <gtest/gtest.h>

#include "schemes/lru_scheme.h"
#include "sim/simulator.h"
#include "testing/scenario.h"

namespace cascache::sim {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;

TEST(UpdateScheduleTest, ImmutableObjectsStayAtVersionZero) {
  UpdateSchedule schedule({0.0, 10.0}, {0.0, 5.0});
  EXPECT_FALSE(schedule.IsMutable(0));
  EXPECT_TRUE(schedule.IsMutable(1));
  EXPECT_EQ(schedule.VersionAt(0, 1e9), 0u);
}

TEST(UpdateScheduleTest, PeriodicVersions) {
  // Period 10, phase 4: updates at t = 6, 16, 26, ...
  UpdateSchedule schedule({10.0}, {4.0});
  EXPECT_EQ(schedule.VersionAt(0, 0.0), 0u);
  EXPECT_EQ(schedule.VersionAt(0, 5.9), 0u);
  EXPECT_EQ(schedule.VersionAt(0, 6.1), 1u);
  EXPECT_EQ(schedule.VersionAt(0, 15.9), 1u);
  EXPECT_EQ(schedule.VersionAt(0, 16.1), 2u);
  EXPECT_EQ(schedule.VersionAt(0, 106.1), 11u);
}

TEST(UpdateScheduleTest, VersionsAreMonotone) {
  CoherencyParams params;
  params.mutable_fraction = 0.5;
  params.mean_update_period = 100.0;
  auto schedule_or = UpdateSchedule::Create(50, params);
  ASSERT_TRUE(schedule_or.ok());
  for (trace::ObjectId id = 0; id < 50; ++id) {
    uint32_t prev = 0;
    for (double t = 0.0; t < 1000.0; t += 37.0) {
      const uint32_t v = schedule_or->VersionAt(id, t);
      EXPECT_GE(v, prev);
      prev = v;
    }
  }
}

TEST(UpdateScheduleTest, MutableFractionApproximatelyRespected) {
  CoherencyParams params;
  params.mutable_fraction = 0.3;
  auto schedule_or = UpdateSchedule::Create(2000, params);
  ASSERT_TRUE(schedule_or.ok());
  int mutable_count = 0;
  for (trace::ObjectId id = 0; id < 2000; ++id) {
    if (schedule_or->IsMutable(id)) ++mutable_count;
  }
  EXPECT_NEAR(mutable_count / 2000.0, 0.3, 0.05);
}

TEST(UpdateScheduleTest, RejectsBadParameters) {
  CoherencyParams params;
  params.mutable_fraction = 1.5;
  EXPECT_FALSE(UpdateSchedule::Create(10, params).ok());
  params = CoherencyParams{};
  params.mean_update_period = 0.0;
  EXPECT_FALSE(UpdateSchedule::Create(10, params).ok());
  params = CoherencyParams{};
  params.protocol = CoherencyProtocol::kTtl;
  params.ttl = -1.0;
  EXPECT_FALSE(UpdateSchedule::Create(10, params).ok());
}

TEST(CoherencyProtocolTest, Names) {
  EXPECT_STREQ(CoherencyProtocolName(CoherencyProtocol::kNone), "none");
  EXPECT_STREQ(CoherencyProtocolName(CoherencyProtocol::kTtl), "ttl");
  EXPECT_STREQ(CoherencyProtocolName(CoherencyProtocol::kInvalidation),
               "invalidation");
}

// --- Simulator integration on the unit chain -------------------------------

class CoherencySimTest : public ::testing::Test {
 protected:
  CoherencySimTest()
      : catalog_(MakeCatalog({{100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {
    CacheNodeConfig config;
    config.mode = CacheMode::kLru;
    config.capacity_bytes = 1000;
    caches_.Configure(config);
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<sim::Network> network_;
  sim::CacheSet caches_;
  schemes::LruScheme scheme_;
};

TEST_F(CoherencySimTest, TtlExpiryForcesRefetch) {
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kTtl;
  options.coherency.ttl = 10.0;
  Simulator simulator(network_.get(), &caches_, &scheme_, options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());

  simulator.Step(At(1.0, 0), false);  // Cold miss; cached everywhere.
  simulator.Step(At(5.0, 0), true);   // Fresh hit at the leaf.
  // t=20: all copies are 19 s old (> ttl 10): every cache on the path
  // drops its copy and the origin serves.
  simulator.Step(At(20.0, 0), true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.copies_expired, 4u);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.5);  // One hit (t=5), one miss (t=20).
  // The t=20 fetch restamps: a hit at t=25 is fresh again.
  simulator.Step(At(25.0, 0), true);
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().hit_ratio, 2.0 / 3.0);
}

TEST_F(CoherencySimTest, TtlHitDoesNotRefreshStamp) {
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kTtl;
  options.coherency.ttl = 10.0;
  Simulator simulator(network_.get(), &caches_, &scheme_, options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(9.0, 0), false);   // Hit, but no revalidation.
  simulator.Step(At(12.0, 0), true);   // 11 s after fetch: expired.
  EXPECT_EQ(simulator.metrics().Summary().copies_expired, 4u);
}

TEST(CoherencyStaleTest, NoneProtocolCountsStaleHits) {
  // Object 0 updates at t = 10 (period 20, phase 10). A copy fetched at
  // t=1 and hit at t=15 is stale.
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, 4);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches.Configure(config);
  schemes::LruScheme scheme;
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kNone;
  options.coherency.mutable_fraction = 1.0;
  options.coherency.mean_update_period = 20.0;
  Simulator simulator(network.get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());
  // Install a deterministic schedule via the test constructor path: the
  // randomized one is awkward here, so drive the check through a long
  // window instead — fetch at t=1, hit far in the future is stale.
  simulator.Step(At(1.0, 0), false);
  simulator.Step(At(10'000.0, 0), true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.hit_ratio, 1.0);   // Served from cache...
  EXPECT_DOUBLE_EQ(s.stale_hit_ratio, 1.0);  // ...but stale.
  EXPECT_EQ(s.copies_expired, 0u);
  EXPECT_EQ(s.copies_invalidated, 0u);
}

TEST(CoherencyStaleTest, InvalidationDropsOutdatedCopies) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, 4);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches.Configure(config);
  schemes::LruScheme scheme;
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kInvalidation;
  options.coherency.mutable_fraction = 1.0;
  options.coherency.mean_update_period = 20.0;
  Simulator simulator(network.get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());
  simulator.Step(At(1.0, 0), false);
  // Far in the future the origin version has advanced: all four copies
  // are invalidated and the origin serves a fresh one.
  simulator.Step(At(10'000.0, 0), true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.0);
  EXPECT_EQ(s.copies_invalidated, 4u);
  EXPECT_DOUBLE_EQ(s.stale_hit_ratio, 0.0);
  // Immediately after, the fresh copy hits.
  simulator.Step(At(10'001.0, 0), true);
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().hit_ratio, 0.5);
}

TEST(CoherencyStaleTest, StaleVersionPropagatesDownstream) {
  // Under kNone, a stale serving copy stamps downstream copies with its
  // own (old) version: hitting those later is still a stale hit.
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, 4);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches.Configure(config);
  schemes::LruScheme scheme;
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kNone;
  options.coherency.mutable_fraction = 1.0;
  options.coherency.mean_update_period = 20.0;
  Simulator simulator(network.get(), &caches, &scheme, options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());

  simulator.Step(At(1.0, 0), false);          // Fetch v0 everywhere.
  caches.node(3)->EraseObject(0);           // Drop the leaf copy only.
  simulator.Step(At(10'000.0, 0), false);     // Stale hit at node 2 re-
                                              // populates the leaf with v0.
  const auto* stamp = caches.node(3)->FindCopy(0);
  ASSERT_NE(stamp, nullptr);
  EXPECT_EQ(stamp->version, 0u);
  EXPECT_DOUBLE_EQ(stamp->fetch_time, 10'000.0);
  simulator.Step(At(10'001.0, 0), true);      // Stale hit at the leaf.
  EXPECT_DOUBLE_EQ(simulator.metrics().Summary().stale_hit_ratio, 1.0);
}

TEST(CoherencyCostModeTest, TtlDropDemotesDescriptorUnderCoordinated) {
  // A TTL expiry at a cost-mode node must route through EraseObject so
  // the descriptor (and its access history) survives in the d-cache and
  // the node invariants hold.
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, 4);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = CacheMode::kCost;
  config.capacity_bytes = 1000;
  config.dcache_entries = 16;
  caches.Configure(config);
  auto scheme_or =
      schemes::MakeScheme({.kind = schemes::SchemeKind::kCoordinated});
  ASSERT_TRUE(scheme_or.ok());
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kTtl;
  options.coherency.ttl = 10.0;
  Simulator simulator(network.get(), &caches, scheme_or->get(), options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());

  simulator.Step(At(1.0, 0), false);  // Seed descriptors.
  simulator.Step(At(2.0, 0), false);  // Placed at the leaf.
  ASSERT_TRUE(caches.node(3)->Contains(0));
  simulator.Step(At(50.0, 0), true);  // TTL 10 expired: drop + refetch.
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.copies_expired, 1u);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches.node(v)->CheckInvariants()) << "node " << v;
  }
  // The demoted descriptor kept its history (>= 3 accesses recorded).
  const cache::ObjectDescriptor* desc =
      caches.node(3)->FindDescriptor(0);
  ASSERT_NE(desc, nullptr);
  EXPECT_GE(desc->num_accesses, 3);
}

// Fixture for driving the coordinated scheme (cost-mode caches + d-cache)
// through the coherency path of the message pipeline.
class CoherencyCoordinatedTest : public ::testing::Test {
 protected:
  CoherencyCoordinatedTest()
      : catalog_(MakeCatalog({{100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {
    CacheNodeConfig config;
    config.mode = CacheMode::kCost;
    config.capacity_bytes = 1000;
    config.dcache_entries = 16;
    caches_.Configure(config);
    auto scheme_or =
        schemes::MakeScheme({.kind = schemes::SchemeKind::kCoordinated});
    CASCACHE_CHECK(scheme_or.ok());
    scheme_ = std::move(*scheme_or);
  }

  /// First request seeds the descriptors, second places the object at the
  /// leaf (see SimulatorSingleNodeTest.CoordinatedOnSingleProxy).
  void SeedAndPlace(Simulator& simulator) {
    simulator.Step(At(1.0, 0), false);
    simulator.Step(At(2.0, 0), false);
    ASSERT_TRUE(caches_.node(3)->Contains(0));
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<sim::Network> network_;
  sim::CacheSet caches_;
  std::unique_ptr<schemes::CachingScheme> scheme_;
};

TEST_F(CoherencyCoordinatedTest, NoneProtocolServesAndCountsStaleHit) {
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kNone;
  options.coherency.mutable_fraction = 1.0;
  options.coherency.mean_update_period = 20.0;
  Simulator simulator(network_.get(), &caches_, scheme_.get(), options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());
  SeedAndPlace(simulator);
  // Far in the future the origin version has advanced, but without a
  // protocol the leaf still serves its v0 copy — counted as stale.
  simulator.Step(At(10'000.0, 0), true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.hit_ratio, 1.0);
  EXPECT_DOUBLE_EQ(s.stale_hit_ratio, 1.0);
  EXPECT_EQ(s.copies_expired, 0u);
  EXPECT_EQ(s.copies_invalidated, 0u);
}

TEST_F(CoherencyCoordinatedTest, TtlExpiryDropsCopyOnAscent) {
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kTtl;
  options.coherency.ttl = 10.0;
  Simulator simulator(network_.get(), &caches_, scheme_.get(), options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());
  SeedAndPlace(simulator);
  // 48 s after the leaf copy was fetched (> ttl 10): the ascent drops it
  // and the request continues to the origin.
  simulator.Step(At(50.0, 0), true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.copies_expired, 1u);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.0);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->CheckInvariants()) << "node " << v;
  }
}

TEST_F(CoherencyCoordinatedTest, InvalidationDropsOutdatedCopyOnAscent) {
  SimOptions options;
  options.coherency.protocol = CoherencyProtocol::kInvalidation;
  options.coherency.mutable_fraction = 1.0;
  options.coherency.mean_update_period = 20.0;
  Simulator simulator(network_.get(), &caches_, scheme_.get(), options);
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());
  SeedAndPlace(simulator);
  // The origin version advanced past the leaf copy's: invalidated on
  // ascent, served fresh from the origin, never a stale serve.
  simulator.Step(At(10'000.0, 0), true);
  const MetricsSummary s = simulator.metrics().Summary();
  EXPECT_EQ(s.copies_invalidated, 1u);
  EXPECT_DOUBLE_EQ(s.hit_ratio, 0.0);
  EXPECT_DOUBLE_EQ(s.stale_hit_ratio, 0.0);
  for (topology::NodeId v = 0; v < 4; ++v) {
    EXPECT_TRUE(caches_.node(v)->CheckInvariants()) << "node " << v;
  }
}

TEST(CoherencyDisabledTest, PaperSettingHasNoTracking) {
  trace::ObjectCatalog catalog = MakeCatalog({{100, 0}});
  auto network = MakeChainNetwork(&catalog, 4);
  sim::CacheSet caches = network->MakeCacheSet();
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = 1000;
  caches.Configure(config);
  schemes::LruScheme scheme;
  Simulator simulator(network.get(), &caches, &scheme);  // Defaults.
  ASSERT_TRUE(simulator.EnableCoherency(1).ok());
  simulator.Step(At(1.0, 0), false);
  // No stamps are recorded in the paper setting.
  EXPECT_EQ(caches.node(3)->FindCopy(0), nullptr);
}

}  // namespace
}  // namespace cascache::sim
