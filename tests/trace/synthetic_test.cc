#include "trace/synthetic.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "testing/ref_generator.h"
#include "util/random.h"
#include "util/zipf.h"

namespace cascache::trace {
namespace {

WorkloadParams SmallParams() {
  WorkloadParams params;
  params.num_objects = 2000;
  params.num_requests = 100000;
  params.num_clients = 100;
  params.num_servers = 20;
  params.seed = 11;
  return params;
}

TEST(SyntheticTest, GeneratesRequestedCounts) {
  auto workload_or = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload_or.ok());
  EXPECT_EQ(workload_or->catalog.num_objects(), 2000u);
  EXPECT_EQ(workload_or->requests.size(), 100000u);
}

TEST(SyntheticTest, TimestampsAreIncreasing) {
  auto workload_or = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload_or.ok());
  double prev = 0.0;
  for (const Request& req : workload_or->requests) {
    EXPECT_GE(req.time, prev);
    prev = req.time;
  }
  EXPECT_GT(workload_or->Duration(), 0.0);
}

TEST(SyntheticTest, ArrivalRateApproximatelyMatches) {
  WorkloadParams params = SmallParams();
  params.request_rate = 50.0;
  auto workload_or = GenerateWorkload(params);
  ASSERT_TRUE(workload_or.ok());
  const double observed_rate =
      static_cast<double>(params.num_requests) / workload_or->Duration();
  EXPECT_NEAR(observed_rate, 50.0, 1.0);
}

TEST(SyntheticTest, IdsWithinBounds) {
  auto workload_or = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload_or.ok());
  for (const Request& req : workload_or->requests) {
    EXPECT_LT(req.object, 2000u);
    EXPECT_LT(req.client, 100u);
  }
  for (ObjectId id = 0; id < 2000; ++id) {
    EXPECT_LT(workload_or->catalog.server(id), 20u);
  }
}

TEST(SyntheticTest, ObjectSizesWithinConfiguredBounds) {
  WorkloadParams params = SmallParams();
  params.min_object_size = 500;
  params.max_object_size = 1 << 20;
  auto workload_or = GenerateWorkload(params);
  ASSERT_TRUE(workload_or.ok());
  for (ObjectId id = 0; id < params.num_objects; ++id) {
    const uint64_t size = workload_or->catalog.size(id);
    EXPECT_GE(size, 500u);
    EXPECT_LE(size, static_cast<uint64_t>(1 << 20));
  }
}

TEST(SyntheticTest, PopularityFollowsRankOrder) {
  // Object ids are popularity ranks: id 0 must be requested far more often
  // than a tail object, and access counts should decrease overall.
  auto workload_or = GenerateWorkload(SmallParams());
  ASSERT_TRUE(workload_or.ok());
  const std::vector<uint64_t> counts = CountAccesses(*workload_or);
  EXPECT_GT(counts[0], counts[500]);
  EXPECT_GT(counts[0], 100u);
  // Head mass dominates: top 10% of objects take most requests under
  // theta=0.8.
  uint64_t head = 0, total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    if (i < counts.size() / 10) head += counts[i];
  }
  EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.4);
}

class SyntheticZipfSweep : public ::testing::TestWithParam<double> {};

TEST_P(SyntheticZipfSweep, ObservedSkewTracksConfiguredTheta) {
  WorkloadParams params = SmallParams();
  params.num_objects = 500;
  params.num_requests = 400000;
  params.zipf_theta = GetParam();
  auto workload_or = GenerateWorkload(params);
  ASSERT_TRUE(workload_or.ok());
  std::vector<double> counts;
  for (uint64_t c : CountAccesses(*workload_or)) {
    counts.push_back(static_cast<double>(c));
  }
  std::sort(counts.rbegin(), counts.rend());
  EXPECT_NEAR(util::EstimateZipfTheta(counts), GetParam(), 0.12);
}

INSTANTIATE_TEST_SUITE_P(Thetas, SyntheticZipfSweep,
                         ::testing::Values(0.6, 0.8, 1.0));

TEST(SyntheticTest, DeterministicInSeed) {
  auto a = GenerateWorkload(SmallParams());
  auto b = GenerateWorkload(SmallParams());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->requests.size(), b->requests.size());
  for (size_t i = 0; i < a->requests.size(); i += 997) {
    EXPECT_EQ(a->requests[i].object, b->requests[i].object);
    EXPECT_EQ(a->requests[i].client, b->requests[i].client);
    EXPECT_DOUBLE_EQ(a->requests[i].time, b->requests[i].time);
  }
}

TEST(SyntheticTest, SeedChangesStream) {
  WorkloadParams params = SmallParams();
  auto a = GenerateWorkload(params);
  params.seed = 12;
  auto b = GenerateWorkload(params);
  ASSERT_TRUE(a.ok() && b.ok());
  int diffs = 0;
  for (size_t i = 0; i < 1000; ++i) {
    if (a->requests[i].object != b->requests[i].object) ++diffs;
  }
  EXPECT_GT(diffs, 100);
}

TEST(SyntheticTest, RejectsBadParameters) {
  WorkloadParams params = SmallParams();
  params.num_objects = 0;
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = SmallParams();
  params.zipf_theta = 0.0;
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = SmallParams();
  params.request_rate = -1.0;
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = SmallParams();
  params.min_object_size = 1000;
  params.max_object_size = 10;
  EXPECT_FALSE(GenerateWorkload(params).ok());

  params = SmallParams();
  params.num_clients = 0;
  EXPECT_FALSE(GenerateWorkload(params).ok());
}

TEST(SyntheticTest, RejectsNonFiniteZipfExponents) {
  // NaN passes a plain `theta <= 0` test and would reach the Zipf
  // sampler's positivity CHECK.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    WorkloadParams params = SmallParams();
    params.zipf_theta = bad;
    EXPECT_FALSE(GenerateWorkload(params).ok());
    params = SmallParams();
    params.client_zipf_theta = bad;
    EXPECT_FALSE(GenerateWorkload(params).ok());
  }
}

// The single emitter, with every workload-model component off, draws the
// historical stationary stream: compared record by record against the
// reference copy of the former static emitter over random parameters.
// The procedural catalog draws nothing from the RNG, so both emitters
// start from the same state.
TEST(GeneratorReferenceTest, StaticStreamMatchesReferenceEmitter) {
  util::Rng pick(20030305);
  for (int trial = 0; trial < 40; ++trial) {
    WorkloadParams params;
    params.procedural_catalog = true;
    params.num_objects = 1 + static_cast<uint32_t>(pick.NextUint64(200'000));
    params.num_clients = 1 + static_cast<uint32_t>(pick.NextUint64(5'000));
    params.num_servers = 1 + static_cast<uint32_t>(pick.NextUint64(64));
    params.num_requests = 1'000 + pick.NextUint64(4'000);
    params.zipf_theta = pick.NextDouble(0.3, 1.5);
    params.client_zipf_theta = pick.NextDouble(0.2, 1.2);
    params.request_rate = pick.NextDouble(1.0, 1'000.0);
    if (pick.NextBool()) {
      params.temporal_locality = pick.NextDouble(0.01, 0.95);
      params.temporal_window = 1 + static_cast<uint32_t>(pick.NextUint64(5'000));
      params.temporal_mean_depth = pick.NextDouble(1.0, 300.0);
    }
    params.seed = pick.NextUint64();
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": objects=" << params.num_objects
                 << " clients=" << params.num_clients
                 << " theta=" << params.zipf_theta
                 << " temporal=" << params.temporal_locality
                 << " window=" << params.temporal_window
                 << " depth=" << params.temporal_mean_depth
                 << " seed=" << params.seed);

    auto workload_or = GenerateWorkload(params);
    ASSERT_TRUE(workload_or.ok()) << workload_or.status();
    const std::vector<Request>& got = workload_or->requests;

    util::Rng rng(params.seed);
    std::vector<Request> want;
    testing::RefEmitStaticRequests(
        params, &rng, [&](const Request& req) { want.push_back(req); });

    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got[i].time, &want[i].time, sizeof(double)), 0)
          << "time of request " << i;
      ASSERT_EQ(got[i].client, want[i].client) << "client of request " << i;
      ASSERT_EQ(got[i].object, want[i].object) << "object of request " << i;
    }
  }
}

}  // namespace
}  // namespace cascache::trace
