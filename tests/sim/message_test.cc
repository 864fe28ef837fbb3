#include "sim/message.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "schemes/scheme.h"
#include "sim/simulator.h"
#include "testing/scenario.h"

namespace cascache::sim {
namespace {

using cascache::testing::At;
using cascache::testing::MakeCatalog;
using cascache::testing::MakeChainNetwork;

// A scheme that records every handler invocation in order and attaches a
// fixed payload per hop, so the tests can assert the pipeline's hook
// contract: OnAscend fires on ascending non-serving hops only, OnServe
// exactly once, OnDescend on descending hops below the serving point.
class RecordingScheme : public schemes::CachingScheme {
 public:
  std::string name() const override { return "recording"; }
  CacheMode cache_mode() const override { return CacheMode::kLru; }
  bool observes_ascent() const override { return true; }

  void OnAscend(MessageContext& ctx, int hop) override {
    events.push_back("ascend:" + std::to_string(hop));
    EXPECT_EQ(ctx.request.hop, hop);
    ctx.request.payload_bytes += 5;
  }
  void OnServe(MessageContext& ctx) override {
    events.push_back("serve:" + std::to_string(ctx.hit_index()));
    ctx.response.payload_bytes += 3;
  }
  void OnDescend(MessageContext& ctx, int hop) override {
    events.push_back("descend:" + std::to_string(hop));
    ctx.node(hop)->lru()->Insert(ctx.object, ctx.size);
  }

  std::vector<std::string> events;
};

class MessagePipelineTest : public ::testing::Test {
 protected:
  MessagePipelineTest()
      : catalog_(MakeCatalog({{100, 0}})),
        network_(MakeChainNetwork(&catalog_, 4)),
        caches_(network_->MakeCacheSet()) {
    CacheNodeConfig config;
    config.mode = CacheMode::kLru;
    config.capacity_bytes = 1000;
    caches_.Configure(config);
  }

  trace::ObjectCatalog catalog_;
  std::unique_ptr<Network> network_;
  sim::CacheSet caches_;
  RecordingScheme scheme_;
};

TEST_F(MessagePipelineTest, ColdMissVisitsEveryHopThenDescends) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), /*collect=*/true);
  const std::vector<std::string> want = {
      "ascend:0", "ascend:1", "ascend:2", "ascend:3",
      "serve:-1",
      "descend:3", "descend:2", "descend:1", "descend:0"};
  EXPECT_EQ(scheme_.events, want);
}

TEST_F(MessagePipelineTest, HitAtRequestingCacheSkipsAscentAndDescent) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  scheme_.events.clear();
  // All caches hold the object now; the leaf serves immediately, so no
  // ascent hook fires and nothing lies below the serving point.
  simulator.Step(At(2.0, 0), true);
  const std::vector<std::string> want = {"serve:0"};
  EXPECT_EQ(scheme_.events, want);
}

TEST_F(MessagePipelineTest, PartialHitAscendsToServerAndDescendsBelowIt) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  simulator.Step(At(1.0, 0), false);
  caches_.node(network_->RequesterNode(0))->lru()->Erase(0);
  scheme_.events.clear();
  // Leaf misses (hook fires), its parent serves, descent refills the leaf.
  simulator.Step(At(2.0, 0), true);
  const std::vector<std::string> want = {"ascend:0", "serve:1", "descend:0"};
  EXPECT_EQ(scheme_.events, want);
}

TEST_F(MessagePipelineTest, PayloadBytesFlowIntoMetrics) {
  Simulator simulator(network_.get(), &caches_, &scheme_);
  // Cold miss: 4 ascent hops x 5 request bytes, 3 response bytes.
  simulator.Step(At(1.0, 0), true);
  MetricsSummary s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.avg_request_msg_bytes, 20.0);
  EXPECT_DOUBLE_EQ(s.avg_response_msg_bytes, 3.0);
  EXPECT_DOUBLE_EQ(s.avg_message_bytes, 23.0);
  // Immediate hit: no ascent payload; averages halve accordingly.
  simulator.Step(At(2.0, 0), true);
  s = simulator.metrics().Summary();
  EXPECT_DOUBLE_EQ(s.avg_request_msg_bytes, 10.0);
  EXPECT_DOUBLE_EQ(s.avg_response_msg_bytes, 3.0);
}

TEST(MessageContextTest, IndexHelpers) {
  const std::vector<topology::NodeId> path = {7, 5, 3, 0};
  const std::vector<double> costs = {1.0, 2.0, 4.0};
  MessageContext ctx;
  ctx.path = &path;
  ctx.link_costs = &costs;
  ctx.server_link_cost = 8.0;

  ctx.response.hit_index = -1;  // Origin served.
  EXPECT_TRUE(ctx.origin_served());
  EXPECT_EQ(ctx.top_index(), 3);
  EXPECT_EQ(ctx.first_missing(), 3);
  EXPECT_DOUBLE_EQ(ctx.upstream_link_cost(3), 8.0);  // Virtual server link.
  EXPECT_DOUBLE_EQ(ctx.upstream_link_cost(1), 2.0);

  ctx.response.hit_index = 2;  // Cache at path index 2 served.
  EXPECT_FALSE(ctx.origin_served());
  EXPECT_EQ(ctx.top_index(), 2);
  EXPECT_EQ(ctx.first_missing(), 1);
}

}  // namespace
}  // namespace cascache::sim
