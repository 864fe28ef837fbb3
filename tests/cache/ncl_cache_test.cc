#include "cache/ncl_cache.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "util/random.h"

namespace cascache::cache {
namespace {

NclCache::EvictionPlan Plan(const NclCache& cache, uint64_t need) {
  NclCache::EvictionPlan plan;
  cache.PlanEvictionInto(need, NclCache::kNoLossLimit, &plan);
  return plan;
}

TEST(NclCacheTest, InsertAndLookup) {
  NclCache cache(100);
  bool inserted = false;
  EXPECT_TRUE(cache.Insert(1, 40, 8.0, &inserted).empty());
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_DOUBLE_EQ(cache.LossOf(1), 8.0);
  EXPECT_EQ(cache.used_bytes(), 40u);
}

TEST(NclCacheTest, EvictsSmallestNclFirst) {
  NclCache cache(100);
  cache.Insert(1, 40, 4.0);   // NCL 0.1
  cache.Insert(2, 40, 20.0);  // NCL 0.5
  // Inserting 40 more bytes must purge object 1 (smallest NCL).
  const auto evicted = cache.Insert(3, 40, 12.0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(NclCacheTest, NclNormalizesBySize) {
  NclCache cache(100);
  cache.Insert(1, 10, 2.0);   // NCL 0.2 — small object, small loss.
  cache.Insert(2, 80, 40.0);  // NCL 0.5.
  // Need 90 free bytes: greedy takes object 1 (NCL 0.2) first, which
  // frees only 10, then object 2.
  const auto plan = Plan(cache, 90);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.victims.size(), 2u);
  EXPECT_EQ(plan.victims[0], 1u);
  EXPECT_EQ(plan.victims[1], 2u);
  EXPECT_DOUBLE_EQ(plan.cost_loss, 42.0);
}

TEST(NclCacheTest, PlanWithEnoughFreeSpaceIsEmpty) {
  NclCache cache(100);
  cache.Insert(1, 30, 5.0);
  const auto plan = Plan(cache, 70);
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.victims.empty());
  EXPECT_DOUBLE_EQ(plan.cost_loss, 0.0);
}

TEST(NclCacheTest, PlanStopsAtSufficientBytes) {
  NclCache cache(100);
  cache.Insert(1, 50, 1.0);  // NCL 0.02 — cheapest.
  cache.Insert(2, 50, 9.0);  // NCL 0.18.
  const auto plan = Plan(cache, 40);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.victims.size(), 1u);
  EXPECT_EQ(plan.victims[0], 1u);
  EXPECT_DOUBLE_EQ(plan.cost_loss, 1.0);
}

TEST(NclCacheTest, PlanInfeasibleWhenLargerThanCapacity) {
  NclCache cache(100);
  cache.Insert(1, 100, 5.0);
  const auto plan = Plan(cache, 150);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.victims.size(), 1u);  // Tried everything.
}

TEST(NclCacheTest, PlanDoesNotMutate) {
  NclCache cache(100);
  cache.Insert(1, 60, 5.0);
  (void)Plan(cache, 80);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.used_bytes(), 60u);
}

TEST(NclCacheTest, PlanEvictionIntoReusesBuffer) {
  NclCache cache(100);
  cache.Insert(1, 40, 4.0);   // NCL 0.1
  cache.Insert(2, 40, 20.0);  // NCL 0.5
  NclCache::EvictionPlan plan;
  cache.PlanEvictionInto(90, NclCache::kNoLossLimit, &plan);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.victims.size(), 2u);
  EXPECT_EQ(plan.victims[0], 1u);
  EXPECT_EQ(plan.victims[1], 2u);
  EXPECT_DOUBLE_EQ(plan.cost_loss, 24.0);
  EXPECT_EQ(plan.freed_bytes, 80u);

  // The same plan object must be fully reset by the next call — no stale
  // victims, loss, or feasibility carried over.
  cache.PlanEvictionInto(10, NclCache::kNoLossLimit, &plan);
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.victims.empty());
  EXPECT_DOUBLE_EQ(plan.cost_loss, 0.0);
  EXPECT_EQ(plan.freed_bytes, 0u);
}

TEST(NclCacheTest, PlanEvictionIntoMatchesPlanEviction) {
  util::Rng rng(11);
  NclCache cache(1500);
  for (ObjectId id = 0; id < 40; ++id) {
    cache.Insert(id, 1 + rng.NextUint64(100), rng.NextDouble(0.0, 8.0));
  }
  NclCache::EvictionPlan reused;
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t need = 1 + rng.NextUint64(2000);
    const auto fresh = Plan(cache, need);
    cache.PlanEvictionInto(need, NclCache::kNoLossLimit, &reused);
    EXPECT_EQ(reused.feasible, fresh.feasible);
    EXPECT_EQ(reused.victims, fresh.victims);
    EXPECT_DOUBLE_EQ(reused.cost_loss, fresh.cost_loss);
    EXPECT_EQ(reused.freed_bytes, fresh.freed_bytes);
  }
}

TEST(NclCacheTest, PlanStopsOnceLossExceedsLimit) {
  util::Rng rng(12);
  NclCache cache(1500);
  for (ObjectId id = 0; id < 40; ++id) {
    cache.Insert(id, 1 + rng.NextUint64(100), rng.NextDouble(0.0, 8.0));
  }
  NclCache::EvictionPlan bounded;
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t need = 1 + rng.NextUint64(1500);
    const auto full = Plan(cache, need);
    const double limit = rng.NextDouble(0.0, full.cost_loss + 1.0);
    cache.PlanEvictionInto(need, limit, &bounded);
    // The bounded walk is the full walk up to the first victim whose
    // running loss passes the limit.
    size_t expected = 0;
    double loss = 0.0;
    while (expected < full.victims.size()) {
      loss += cache.LossOf(full.victims[expected++]);
      if (loss > limit) break;
    }
    ASSERT_EQ(bounded.victims.size(), expected) << "trial " << trial;
    EXPECT_TRUE(std::equal(bounded.victims.begin(), bounded.victims.end(),
                           full.victims.begin()));
    EXPECT_EQ(bounded.cost_loss, loss);
    EXPECT_EQ(bounded.feasible, expected == full.victims.size());
    if (!bounded.feasible) {
      EXPECT_GT(bounded.cost_loss, limit);
    }
  }
}

TEST(NclCacheTest, OversizedObjectRejected) {
  NclCache cache(100);
  cache.Insert(1, 60, 5.0);
  bool inserted = true;
  EXPECT_TRUE(cache.Insert(2, 150, 100.0, &inserted).empty());
  EXPECT_FALSE(inserted);
  EXPECT_TRUE(cache.Contains(1));
}

TEST(NclCacheTest, ReinsertUpdatesLoss) {
  NclCache cache(100);
  cache.Insert(1, 40, 8.0);
  bool inserted = true;
  cache.Insert(1, 40, 16.0, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_DOUBLE_EQ(cache.LossOf(1), 16.0);
  EXPECT_EQ(cache.used_bytes(), 40u);
}

TEST(NclCacheTest, UpdateLossReordersEviction) {
  NclCache cache(100);
  cache.Insert(1, 50, 1.0);
  cache.Insert(2, 50, 2.0);
  // Make object 2 the cheaper victim.
  EXPECT_TRUE(cache.UpdateLoss(2, 0.5));
  const auto plan = Plan(cache, 10);
  ASSERT_EQ(plan.victims.size(), 1u);
  EXPECT_EQ(plan.victims[0], 2u);
  EXPECT_FALSE(cache.UpdateLoss(99, 1.0));
}

TEST(NclCacheTest, IdsByNclAscending) {
  NclCache cache(1000);
  cache.Insert(1, 10, 5.0);   // 0.5
  cache.Insert(2, 10, 1.0);   // 0.1
  cache.Insert(3, 10, 3.0);   // 0.3
  EXPECT_EQ(cache.IdsByNcl(), (std::vector<ObjectId>{2, 3, 1}));
}

TEST(NclCacheTest, EraseAndClear) {
  NclCache cache(100);
  cache.Insert(1, 40, 8.0);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  EXPECT_EQ(cache.used_bytes(), 0u);
  cache.Insert(2, 40, 8.0);
  cache.Clear();
  EXPECT_EQ(cache.num_objects(), 0u);
  EXPECT_EQ(cache.free_bytes(), 100u);
}

// Property: the greedy plan always selects a prefix of the ascending-NCL
// order, and its loss equals the sum of the victims' losses.
TEST(NclCacheTest, RandomPlansAreGreedyPrefixes) {
  util::Rng rng(5);
  NclCache cache(2000);
  for (ObjectId id = 0; id < 60; ++id) {
    cache.Insert(id, 1 + rng.NextUint64(80), rng.NextDouble(0.0, 10.0));
  }
  const std::vector<ObjectId> order = cache.IdsByNcl();
  for (int trial = 0; trial < 50; ++trial) {
    const uint64_t need = 1 + rng.NextUint64(2500);
    const auto plan = Plan(cache, need);
    // Victims must be a prefix of the NCL order.
    for (size_t i = 0; i < plan.victims.size(); ++i) {
      ASSERT_LT(i, order.size());
      EXPECT_EQ(plan.victims[i], order[i]);
    }
    double loss = 0.0;
    for (ObjectId v : plan.victims) loss += cache.LossOf(v);
    EXPECT_DOUBLE_EQ(plan.cost_loss, loss);
    if (plan.feasible) {
      EXPECT_GE(cache.free_bytes() + plan.freed_bytes, need);
    }
  }
}

// Property: byte accounting under random churn.
TEST(NclCacheTest, RandomOpsPreserveByteAccounting) {
  util::Rng rng(9);
  NclCache cache(700);
  std::unordered_map<ObjectId, uint64_t> resident;
  for (int step = 0; step < 20000; ++step) {
    const ObjectId id = static_cast<ObjectId>(rng.NextUint64(50));
    const int op = static_cast<int>(rng.NextUint64(3));
    if (op == 0) {
      const uint64_t size =
          resident.count(id) ? resident[id] : 1 + rng.NextUint64(150);
      bool inserted = false;
      const auto evicted =
          cache.Insert(id, size, rng.NextDouble(0.0, 5.0), &inserted);
      for (ObjectId v : evicted) resident.erase(v);
      if (inserted) resident[id] = size;
    } else if (op == 1) {
      cache.UpdateLoss(id, rng.NextDouble(0.0, 5.0));
    } else {
      cache.Erase(id);
      resident.erase(id);
    }
    uint64_t sum = 0;
    for (const auto& [oid, sz] : resident) sum += sz;
    ASSERT_EQ(cache.used_bytes(), sum);
    ASSERT_LE(cache.used_bytes(), cache.capacity_bytes());
  }
}

}  // namespace
}  // namespace cascache::cache
