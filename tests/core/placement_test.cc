#include "core/placement.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace cascache::core {
namespace {

TEST(PlacementValidateTest, AcceptsWellFormedInput) {
  PlacementInput input;
  input.f = {3.0, 2.0, 2.0, 1.0};
  input.m = {1.0, 2.0, 3.0, 4.0};
  input.l = {0.0, 1.0, 0.5, 2.0};
  EXPECT_TRUE(ValidatePlacementInput(input).ok());
}

TEST(PlacementValidateTest, RejectsLengthMismatch) {
  PlacementInput input;
  input.f = {1.0, 1.0};
  input.m = {1.0};
  input.l = {1.0, 1.0};
  EXPECT_FALSE(ValidatePlacementInput(input).ok());
}

TEST(PlacementValidateTest, RejectsIncreasingFrequency) {
  PlacementInput input;
  input.f = {1.0, 2.0};
  input.m = {1.0, 1.0};
  input.l = {0.0, 0.0};
  EXPECT_FALSE(ValidatePlacementInput(input).ok());
}

TEST(PlacementValidateTest, RejectsNegativeValues) {
  PlacementInput input;
  input.f = {1.0};
  input.m = {-1.0};
  input.l = {0.0};
  EXPECT_FALSE(ValidatePlacementInput(input).ok());
}

TEST(PlacementDpTest, EmptyPathYieldsEmptyPlacement) {
  PlacementInput input;
  const PlacementResult result = SolvePlacementDP(input);
  EXPECT_EQ(result.gain, 0.0);
  EXPECT_TRUE(result.selected.empty());
}

TEST(PlacementDpTest, SingleBeneficialNode) {
  // One cache: gain = f*m - l = 5*2 - 3 = 7 > 0 -> place.
  PlacementInput input;
  input.f = {5.0};
  input.m = {2.0};
  input.l = {3.0};
  const PlacementResult result = SolvePlacementDP(input);
  EXPECT_DOUBLE_EQ(result.gain, 7.0);
  EXPECT_EQ(result.selected, std::vector<int>{0});
}

TEST(PlacementDpTest, SingleUnprofitableNode) {
  PlacementInput input;
  input.f = {1.0};
  input.m = {2.0};
  input.l = {3.0};  // f*m = 2 < l.
  const PlacementResult result = SolvePlacementDP(input);
  EXPECT_DOUBLE_EQ(result.gain, 0.0);
  EXPECT_TRUE(result.selected.empty());
}

TEST(PlacementDpTest, CachingDependencyReducesUpstreamValue) {
  // Two caches, free space everywhere (l = 0). Caching downstream covers
  // all its requests; upstream only earns on the residual f1 - f2.
  PlacementInput input;
  input.f = {10.0, 8.0};
  input.m = {1.0, 3.0};
  input.l = {0.0, 0.0};
  // Both: (10-8)*1 + 8*3 = 26. Only A2: 10*3=30? No: A2's f is 8 -> 24.
  // Only A1: 10*1 = 10. Both wins (26).
  const PlacementResult result = SolvePlacementDP(input);
  EXPECT_DOUBLE_EQ(result.gain, 26.0);
  EXPECT_EQ(result.selected, (std::vector<int>{0, 1}));
}

TEST(PlacementDpTest, SkipsExpensiveMiddleNode) {
  PlacementInput input;
  input.f = {8.0, 5.0, 3.0, 2.0};
  input.m = {1.0, 2.5, 4.0, 6.0};
  input.l = {6.0, 2.0, 9.0, 1.5};
  // Hand-checked optimum: {A2, A4} with gain (5-2)*2.5-2 + 2*6-1.5 = 16.
  const PlacementResult result = SolvePlacementDP(input);
  EXPECT_DOUBLE_EQ(result.gain, 16.0);
  EXPECT_EQ(result.selected, (std::vector<int>{1, 3}));
}

TEST(PlacementDpTest, ZeroMissPenaltyNeverSelected) {
  // m = 0 nodes (e.g. the cache co-located with the origin server) can
  // never produce positive gain and must not be selected even with l = 0.
  PlacementInput input;
  input.f = {5.0, 4.0};
  input.m = {0.0, 2.0};
  input.l = {0.0, 0.0};
  const PlacementResult result = SolvePlacementDP(input);
  EXPECT_EQ(result.selected, std::vector<int>{1});
  EXPECT_DOUBLE_EQ(result.gain, 8.0);
}

TEST(PlacementDpTest, EvaluateMatchesDefinition) {
  PlacementInput input;
  input.f = {8.0, 5.0, 3.0};
  input.m = {1.0, 2.0, 3.0};
  input.l = {0.5, 0.25, 0.125};
  // {0, 2}: (8-3)*1 - 0.5 + (3-0)*3 - 0.125 = 4.5 + 8.875 = 13.375.
  EXPECT_DOUBLE_EQ(EvaluatePlacement(input, {0, 2}), 13.375);
  EXPECT_DOUBLE_EQ(EvaluatePlacement(input, {}), 0.0);
}

TEST(PlacementDpTest, GainNeverNegative) {
  PlacementInput input;
  input.f = {1.0, 1.0, 1.0};
  input.m = {0.1, 0.1, 0.1};
  input.l = {100.0, 100.0, 100.0};
  const PlacementResult result = SolvePlacementDP(input);
  EXPECT_DOUBLE_EQ(result.gain, 0.0);
  EXPECT_TRUE(result.selected.empty());
}

// ---------------------------------------------------------------------------
// Property tests: DP vs exhaustive search on random instances.
// ---------------------------------------------------------------------------

PlacementInput RandomInput(util::Rng* rng, size_t n, bool monotone_f) {
  PlacementInput input;
  input.f.resize(n);
  input.m.resize(n);
  input.l.resize(n);
  for (size_t i = 0; i < n; ++i) {
    input.f[i] = rng->NextDouble(0.0, 10.0);
    input.m[i] = rng->NextDouble(0.0, 5.0);
    // Mix of free caches (l = 0) and contended ones.
    input.l[i] = rng->NextBool(0.3) ? 0.0 : rng->NextDouble(0.0, 20.0);
  }
  if (monotone_f) {
    std::sort(input.f.rbegin(), input.f.rend());
  }
  return input;
}

class PlacementDpVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PlacementDpVsBruteForce, OptimalGainAgrees) {
  const auto [n, monotone] = GetParam();
  util::Rng rng(static_cast<uint64_t>(n) * 31 + (monotone ? 7 : 0));
  for (int trial = 0; trial < 200; ++trial) {
    const PlacementInput input =
        RandomInput(&rng, static_cast<size_t>(n), monotone);
    const PlacementResult dp = SolvePlacementDP(input);
    const PlacementResult brute = SolvePlacementBruteForce(input);
    ASSERT_NEAR(dp.gain, brute.gain, 1e-9)
        << "n=" << n << " trial=" << trial;
    // The DP's own selection must evaluate to its reported gain.
    ASSERT_NEAR(EvaluatePlacement(input, dp.selected), dp.gain, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PlacementDpVsBruteForce,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 12),
                       ::testing::Bool()));

// Theorem 2: every selected index satisfies f*m >= l (monotone f).
TEST(PlacementPropertyTest, SelectedNodesAreLocallyBeneficial) {
  util::Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    const PlacementInput input = RandomInput(&rng, 10, /*monotone_f=*/true);
    const PlacementResult result = SolvePlacementDP(input);
    for (int v : input.f.empty() ? std::vector<int>{} : result.selected) {
      EXPECT_TRUE(LocallyBeneficial(input.f[static_cast<size_t>(v)],
                                    input.m[static_cast<size_t>(v)],
                                    input.l[static_cast<size_t>(v)]))
          << "trial " << trial << " index " << v;
    }
  }
}

// Adding a node to the path can only improve (or keep) the optimal gain.
TEST(PlacementPropertyTest, GainMonotoneInPathExtension) {
  util::Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    PlacementInput input = RandomInput(&rng, 8, /*monotone_f=*/true);
    PlacementInput prefix = input;
    prefix.f.pop_back();
    prefix.m.pop_back();
    prefix.l.pop_back();
    const double full = SolvePlacementDP(input).gain;
    // The prefix problem has boundary f_{n+1}=0 as well, so its optimum is
    // achievable in the full problem by ignoring the last node *only* when
    // the last f is 0; in general compare against prefix with the last
    // frequency forced to 0 — instead we check the weaker, always-true
    // property: the full optimum is at least the gain of the prefix's
    // optimal selection evaluated in the full problem.
    const PlacementResult prefix_result = SolvePlacementDP(prefix);
    const double prefix_in_full =
        EvaluatePlacement(input, prefix_result.selected);
    EXPECT_GE(full + 1e-9, prefix_in_full);
  }
}

// Scaling all costs (m and l) by a constant scales the optimal gain.
TEST(PlacementPropertyTest, GainScalesLinearlyWithCosts) {
  util::Rng rng(321);
  for (int trial = 0; trial < 100; ++trial) {
    PlacementInput input = RandomInput(&rng, 6, /*monotone_f=*/true);
    PlacementInput scaled = input;
    for (double& m : scaled.m) m *= 3.0;
    for (double& l : scaled.l) l *= 3.0;
    EXPECT_NEAR(SolvePlacementDP(scaled).gain,
                3.0 * SolvePlacementDP(input).gain, 1e-9);
  }
}

TEST(PlacementPropertyTest, SelectionIsStrictlyAscending) {
  util::Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    const PlacementInput input = RandomInput(&rng, 12, true);
    const PlacementResult result = SolvePlacementDP(input);
    for (size_t i = 1; i < result.selected.size(); ++i) {
      EXPECT_LT(result.selected[i - 1], result.selected[i]);
    }
    for (int v : result.selected) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 12);
    }
  }
}

// With ample space everywhere (l = 0), positive frequencies and strictly
// increasing miss penalties (the physical situation: m is a cumulative
// link-cost sum), caching at the requesting cache (last node) is always
// strictly optimal.
TEST(PlacementPropertyTest, FreeSpacePlacesAtClientEdge) {
  util::Rng rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    PlacementInput input = RandomInput(&rng, 8, true);
    double cum = 0.0;
    for (double& m : input.m) {
      cum += rng.NextDouble(0.01, 2.0);
      m = cum;  // Strictly increasing toward the client.
    }
    for (double& l : input.l) l = 0.0;
    for (double& f : input.f) f = std::max(f, 0.01);
    const PlacementResult result = SolvePlacementDP(input);
    ASSERT_FALSE(result.selected.empty());
    EXPECT_EQ(result.selected.back(), 7);
  }
}

TEST(PlacementDpTest, LargePathRuns) {
  // O(n^2) DP on a long path; sanity only (no oracle).
  util::Rng rng(42);
  PlacementInput input = RandomInput(&rng, 500, true);
  const PlacementResult result = SolvePlacementDP(input);
  EXPECT_GE(result.gain, 0.0);
  EXPECT_NEAR(EvaluatePlacement(input, result.selected), result.gain, 1e-6);
}

// ---------------------------------------------------------------------------
// Theorem 2 truncation: the Coordinated ascent stops a hop's greedy
// eviction walk at the first partial cost loss above f_eff·M_i, where
// f_eff is the frequency the DP sees after its monotone clamp and M_i is
// the hop's link-cost distance to the origin, summed top-down. The DP
// must then return the same selection and a bit-identical gain.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sum of the victims' losses in walk order, stopping at the first partial
// sum above `limit` (kInf: the whole walk).
double WalkLoss(const std::vector<double>& victims, double limit) {
  double loss = 0.0;
  for (double victim : victims) {
    loss += victim;
    if (loss > limit) break;
  }
  return loss;
}

// One request on a path of `costs.size() + 1` caches (hop 0 requests):
// the serving point is the origin (`hit` < 0) or the cache at `hit`.
// m_i is accumulated as the serving node does, M_i as the ascent does,
// and the candidates' victims come from `victims_of(k, limit)`.
struct TruncatedInputs {
  PlacementInput full;
  PlacementInput truncated;
  int truncated_hops = 0;
};

template <typename VictimsOf>
TruncatedInputs BuildTruncatedInputs(const std::vector<double>& costs,
                                     double server_link_cost, int hit,
                                     const std::vector<bool>& candidate,
                                     const std::vector<double>& own_f,
                                     VictimsOf victims_of) {
  const int top = static_cast<int>(costs.size());
  const bool origin = hit < 0;
  const int highest = origin ? top : hit - 1;
  TruncatedInputs out;
  std::vector<double> m_bound;
  double cum = origin ? server_link_cost : 0.0;
  for (int i = highest; i >= 0; --i) {
    if (i != highest || !origin) cum += costs[static_cast<size_t>(i)];
    if (!candidate[static_cast<size_t>(i)]) continue;
    double bound = server_link_cost;
    for (int j = top - 1; j >= i; --j) bound += costs[static_cast<size_t>(j)];
    out.full.f.push_back(own_f[static_cast<size_t>(i)]);
    out.full.m.push_back(cum);
    m_bound.push_back(bound);
  }
  for (size_t i = out.full.f.size(); i >= 2; --i) {
    out.full.f[i - 2] = std::max(out.full.f[i - 2], out.full.f[i - 1]);
  }
  out.truncated = out.full;
  for (size_t k = 0; k < out.full.f.size(); ++k) {
    const double limit = out.full.f[k] * m_bound[k];
    const std::vector<double> victims = victims_of(k, limit);
    out.full.l.push_back(WalkLoss(victims, kInf));
    out.truncated.l.push_back(WalkLoss(victims, limit));
    if (out.truncated.l.back() != out.full.l.back()) ++out.truncated_hops;
  }
  return out;
}

void ExpectSameDecision(const TruncatedInputs& inputs) {
  ASSERT_TRUE(ValidatePlacementInput(inputs.full).ok());
  ASSERT_TRUE(ValidatePlacementInput(inputs.truncated).ok());
  const PlacementResult full = SolvePlacementDP(inputs.full);
  const PlacementResult truncated = SolvePlacementDP(inputs.truncated);
  EXPECT_EQ(truncated.selected, full.selected);
  EXPECT_EQ(truncated.gain, full.gain);  // Bit for bit.
}

TEST(PlacementPropertyTest, TruncatedLossesKeepTheDecision) {
  util::Rng rng(2024);
  const double kCosts[] = {0.0, 0.1, 0.25, 1.0, 3.0};
  const double kFrequencies[] = {0.0, 0.5, 1.0, 1.0, 2.0};
  int truncated_hops = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t len = 1 + static_cast<size_t>(rng.NextUint64(10));
    std::vector<double> costs(len - 1);
    for (double& c : costs) {
      c = rng.NextBool(0.3) ? kCosts[rng.NextUint64(5)]
                            : rng.NextDouble(0.0, 4.0);
    }
    const double server = rng.NextBool(0.3) ? 0.0 : rng.NextDouble(0.0, 5.0);
    const int hit = len == 1 || rng.NextBool(0.5)
                        ? -1
                        : 1 + static_cast<int>(rng.NextUint64(len - 1));
    std::vector<bool> candidate(len);
    std::vector<double> own_f(len);
    for (size_t i = 0; i < len; ++i) {
      candidate[i] = rng.NextBool(0.7);
      own_f[i] = rng.NextBool(0.4) ? kFrequencies[rng.NextUint64(5)]
                                   : rng.NextDouble(0.0, 10.0);
    }
    const TruncatedInputs inputs = BuildTruncatedInputs(
        costs, server, hit, candidate, own_f, [&](size_t, double limit) {
          // Victims around the bound: a walk ends below it, on it or
          // past it, and some victims cost nothing.
          std::vector<double> victims(1 + rng.NextUint64(6));
          for (double& v : victims) {
            v = rng.NextBool(0.1) ? 0.0
                                  : rng.NextDouble(0.0, 0.8 * limit + 1.0);
          }
          return victims;
        });
    truncated_hops += inputs.truncated_hops;
    ExpectSameDecision(inputs);
    if (::testing::Test::HasFailure()) {
      FAIL() << "trial " << trial;
    }
  }
  // The walks did stop early, often.
  EXPECT_GT(truncated_hops, 2000);
}

TEST(PlacementPropertyTest, TruncationEdgeCases) {
  // Origin-served, so every m_i equals its bound M_i. The top hop's walk
  // crosses f·M by one ulp and stops there; the hop below is worth
  // placing.
  const std::vector<double> costs = {1.0, 2.0};
  const std::vector<bool> all = {true, true, true};
  const std::vector<double> f = {3.0, 2.0, 1.5};
  auto one_ulp_above = [](size_t, double limit) {
    return std::vector<double>{std::nextafter(limit, kInf), 7.0};
  };
  TruncatedInputs inputs =
      BuildTruncatedInputs(costs, 0.5, -1, all, f, one_ulp_above);
  EXPECT_EQ(inputs.truncated.m, inputs.full.m);
  EXPECT_EQ(inputs.truncated_hops, 3);
  ExpectSameDecision(inputs);

  // A walk whose partial sum lands exactly on f·M is not cut there: the
  // loss equals the hop's benefit, which the DP may still weigh.
  auto exactly_on = [](size_t, double limit) {
    return std::vector<double>{limit, 0.0, 1.0};
  };
  inputs = BuildTruncatedInputs(costs, 0.5, -1, all, f, exactly_on);
  EXPECT_EQ(inputs.truncated_hops, 0);
  ExpectSameDecision(inputs);

  // A cache hit two hops up: m_i runs below M_i, and the walks cross the
  // looser bound by one ulp.
  inputs = BuildTruncatedInputs({0.1, 0.2, 0.3}, 0.7, 2, {true, true, true, true},
                                {1.0, 1.0, 1.0, 1.0}, one_ulp_above);
  EXPECT_EQ(inputs.truncated_hops, 2);
  ExpectSameDecision(inputs);

  // Zero-cost links: the bound is 0, so the first costly victim ends the
  // walk.
  inputs = BuildTruncatedInputs({0.0, 0.0}, 0.0, -1, all, f,
                                [](size_t, double) {
                                  return std::vector<double>{0.0, 1e-300, 4.0};
                                });
  EXPECT_EQ(inputs.truncated_hops, 3);
  ExpectSameDecision(inputs);
}

}  // namespace
}  // namespace cascache::core
