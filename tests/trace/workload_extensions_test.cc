// Tests for the temporal-locality extension (LRU-stack re-references),
// alone and combined with popularity drift.

#include <gtest/gtest.h>

#include "trace/synthetic.h"

namespace cascache::trace {
namespace {

WorkloadParams BaseParams() {
  WorkloadParams params;
  params.num_objects = 1000;
  params.num_requests = 120'000;
  params.num_clients = 50;
  params.num_servers = 10;
  params.seed = 21;
  return params;
}

/// Fraction of requests that repeat an object seen within the last
/// `window` requests.
double ReuseWithin(const Workload& workload, size_t window) {
  std::vector<ObjectId> ring;
  size_t head = 0;
  uint64_t reuses = 0;
  for (const Request& req : workload.requests) {
    for (ObjectId recent : ring) {
      if (recent == req.object) {
        ++reuses;
        break;
      }
    }
    if (ring.size() < window) {
      ring.push_back(req.object);
    } else {
      ring[head] = req.object;
      head = (head + 1) % window;
    }
  }
  return static_cast<double>(reuses) /
         static_cast<double>(workload.requests.size());
}

TEST(TemporalLocalityTest, ZeroKeepsIndependentReferenceModel) {
  WorkloadParams params = BaseParams();
  params.temporal_locality = 0.0;
  auto a = GenerateWorkload(params);
  ASSERT_TRUE(a.ok());
  // Identical to a second generation (pure function of the seed).
  auto b = GenerateWorkload(params);
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->requests.size(); i += 1111) {
    EXPECT_EQ(a->requests[i].object, b->requests[i].object);
  }
}

TEST(TemporalLocalityTest, RaisesShortTermReuse) {
  WorkloadParams params = BaseParams();
  params.num_requests = 60'000;
  auto base = GenerateWorkload(params);
  ASSERT_TRUE(base.ok());

  params.temporal_locality = 0.5;
  params.temporal_window = 2'000;
  params.temporal_mean_depth = 50.0;
  auto temporal = GenerateWorkload(params);
  ASSERT_TRUE(temporal.ok());

  const double base_reuse = ReuseWithin(*base, 100);
  const double temporal_reuse = ReuseWithin(*temporal, 100);
  EXPECT_GT(temporal_reuse, base_reuse + 0.1);
}

TEST(TemporalLocalityTest, ObjectsStayInBounds) {
  WorkloadParams params = BaseParams();
  params.temporal_locality = 0.9;
  params.temporal_window = 64;
  params.temporal_mean_depth = 4.0;
  auto workload = GenerateWorkload(params);
  ASSERT_TRUE(workload.ok());
  for (const Request& req : workload->requests) {
    ASSERT_LT(req.object, params.num_objects);
  }
}

TEST(TemporalLocalityTest, RejectsBadParameters) {
  WorkloadParams params = BaseParams();
  params.temporal_locality = 1.5;
  EXPECT_FALSE(GenerateWorkload(params).ok());
  params = BaseParams();
  params.temporal_locality = 0.5;
  params.temporal_window = 0;
  EXPECT_FALSE(GenerateWorkload(params).ok());
  params = BaseParams();
  params.temporal_locality = 0.5;
  params.temporal_mean_depth = 0.5;
  EXPECT_FALSE(GenerateWorkload(params).ok());
}

TEST(ExtensionsDeterminismTest, ReproducibleWithExtensionsEnabled) {
  WorkloadParams params = BaseParams();
  params.temporal_locality = 0.4;
  params.temporal_window = 512;
  params.temporal_mean_depth = 20.0;
  params.model.drift_mode = DriftMode::kShuffle;
  params.model.drift_half_life_s = 600.0;
  auto a = GenerateWorkload(params);
  auto b = GenerateWorkload(params);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->requests.size(), b->requests.size());
  for (size_t i = 0; i < a->requests.size(); i += 777) {
    EXPECT_EQ(a->requests[i].object, b->requests[i].object);
    EXPECT_EQ(a->requests[i].client, b->requests[i].client);
    EXPECT_DOUBLE_EQ(a->requests[i].time, b->requests[i].time);
  }
}

}  // namespace
}  // namespace cascache::trace
