#include "core/path_info.h"

#include <gtest/gtest.h>

namespace cascache::core {
namespace {

PathNodeInfo Node(double f, double m, double l, bool has_desc = true,
                  bool feasible = true) {
  PathNodeInfo info;
  info.node = 1;
  info.frequency = f;
  info.miss_penalty = m;
  info.cost_loss = l;
  info.has_descriptor = has_desc;
  info.feasible = feasible;
  return info;
}

/// The PlacementInput FillPlacementInput builds for `info`.
PlacementInput Fill(const PathInfo& info, std::vector<int>* origin) {
  PlacementInput input;
  info.FillPlacementInput(&input, origin);
  return input;
}

TEST(PathInfoTest, EmptyPathGivesEmptyInput) {
  PathInfo info;
  std::vector<int> origin;
  const PlacementInput input = Fill(info, &origin);
  EXPECT_TRUE(input.f.empty());
  EXPECT_TRUE(origin.empty());
}

TEST(PathInfoTest, AllCandidatesPassThrough) {
  PathInfo info;
  info.nodes = {Node(5.0, 1.0, 0.1), Node(3.0, 2.0, 0.2),
                Node(2.0, 3.0, 0.3)};
  std::vector<int> origin;
  const PlacementInput input = Fill(info, &origin);
  ASSERT_EQ(input.n(), 3u);
  EXPECT_EQ(origin, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(input.f, (std::vector<double>{5.0, 3.0, 2.0}));
  EXPECT_EQ(input.m, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(input.l, (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_TRUE(ValidatePlacementInput(input).ok());
}

TEST(PathInfoTest, ExcludesNodesWithoutDescriptor) {
  PathInfo info;
  info.nodes = {Node(5.0, 1.0, 0.1), Node(3.0, 2.0, 0.2, /*has_desc=*/false),
                Node(2.0, 3.0, 0.3)};
  std::vector<int> origin;
  const PlacementInput input = Fill(info, &origin);
  ASSERT_EQ(input.n(), 2u);
  EXPECT_EQ(origin, (std::vector<int>{0, 2}));
  EXPECT_EQ(input.m, (std::vector<double>{1.0, 3.0}));
}

TEST(PathInfoTest, ExcludesInfeasibleNodes) {
  PathInfo info;
  info.nodes = {Node(5.0, 1.0, 0.1, true, /*feasible=*/false),
                Node(3.0, 2.0, 0.2)};
  std::vector<int> origin;
  const PlacementInput input = Fill(info, &origin);
  ASSERT_EQ(input.n(), 1u);
  EXPECT_EQ(origin, std::vector<int>{1});
}

TEST(PathInfoTest, MonotoneClampRepairsEstimatorNoise) {
  // Estimated frequencies violate f1 >= f2 >= f3; the clamp raises
  // upstream entries so the DP's model assumption holds.
  PathInfo info;
  info.nodes = {Node(1.0, 1.0, 0.0), Node(4.0, 2.0, 0.0),
                Node(2.0, 3.0, 0.0)};
  std::vector<int> origin;
  const PlacementInput input = Fill(info, &origin);
  EXPECT_EQ(input.f, (std::vector<double>{4.0, 4.0, 2.0}));
  EXPECT_TRUE(ValidatePlacementInput(input).ok());
}

TEST(PathInfoTest, ClampKeepsAlreadyMonotoneUntouched) {
  PathInfo info;
  info.nodes = {Node(6.0, 1.0, 0.0), Node(4.0, 2.0, 0.0),
                Node(4.0, 3.0, 0.0)};
  std::vector<int> origin;
  const PlacementInput input = Fill(info, &origin);
  EXPECT_EQ(input.f, (std::vector<double>{6.0, 4.0, 4.0}));
}

TEST(PathInfoTest, IsCandidatePredicate) {
  EXPECT_TRUE(PathInfo::IsCandidate(Node(1, 1, 1)));
  EXPECT_FALSE(PathInfo::IsCandidate(Node(1, 1, 1, false)));
  EXPECT_FALSE(PathInfo::IsCandidate(Node(1, 1, 1, true, false)));
}

}  // namespace
}  // namespace cascache::core
