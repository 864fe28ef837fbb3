#include "topology/graph.h"

#include <gtest/gtest.h>

namespace cascache::topology {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, SingleNodeIsConnected) {
  Graph g(1);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, AddEdgeStoresBothDirections) {
  Graph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 2.5).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_DOUBLE_EQ(g.EdgeDelay(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(g.EdgeDelay(1, 0), 2.5);
  ASSERT_EQ(g.Neighbors(0).size(), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].to, 1);
  ASSERT_EQ(g.Neighbors(1).size(), 1u);
  EXPECT_EQ(g.Neighbors(1)[0].to, 0);
}

TEST(GraphTest, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_EQ(g.AddEdge(1, 1, 1.0).code(), util::StatusCode::kInvalidArgument);
}

TEST(GraphTest, RejectsOutOfRange) {
  Graph g(2);
  EXPECT_FALSE(g.AddEdge(0, 2, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(-1, 0, 1.0).ok());
}

TEST(GraphTest, RejectsDuplicateEitherDirection) {
  Graph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  EXPECT_EQ(g.AddEdge(0, 1, 2.0).code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(g.AddEdge(1, 0, 2.0).code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, RejectsNegativeDelay) {
  Graph g(2);
  EXPECT_FALSE(g.AddEdge(0, 1, -0.1).ok());
}

TEST(GraphTest, ZeroDelayAllowed) {
  Graph g(2);
  EXPECT_TRUE(g.AddEdge(0, 1, 0.0).ok());
}

TEST(GraphTest, ConnectivityDetection) {
  Graph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 1.0).ok());
  EXPECT_FALSE(g.IsConnected());
  ASSERT_TRUE(g.AddEdge(1, 2, 1.0).ok());
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphTest, DelayAccounting) {
  // Each link's delay is found from either endpoint among several
  // neighbours; absent links are absent from both ends.
  Graph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(3, 1, 0.5).ok());
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_DOUBLE_EQ(g.EdgeDelay(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeDelay(1, 2), 3.0);
  EXPECT_DOUBLE_EQ(g.EdgeDelay(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(g.EdgeDelay(1, 3), 0.5);
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(3, 0));
}

}  // namespace
}  // namespace cascache::topology
