#include "sim/node.h"

#include <gtest/gtest.h>

namespace cascache::sim {
namespace {

CacheNodeConfig CostConfig(uint64_t capacity = 1000, size_t dcache = 8) {
  CacheNodeConfig config;
  config.mode = CacheMode::kCost;
  config.capacity_bytes = capacity;
  config.dcache_entries = dcache;
  return config;
}

CacheNodeConfig LruConfig(uint64_t capacity = 1000) {
  CacheNodeConfig config;
  config.mode = CacheMode::kLru;
  config.capacity_bytes = capacity;
  return config;
}

TEST(CacheNodeTest, LruModeBasics) {
  CacheNode node(3, LruConfig());
  EXPECT_EQ(node.id(), 3);
  EXPECT_EQ(node.mode(), CacheMode::kLru);
  EXPECT_FALSE(node.Contains(1));
  node.lru()->Insert(1, 100);
  EXPECT_TRUE(node.Contains(1));
  EXPECT_EQ(node.used_bytes(), 100u);
  EXPECT_EQ(node.num_cached_objects(), 1u);
  EXPECT_EQ(node.FindDescriptor(1), nullptr);  // No descriptors.
}

TEST(CacheNodeTest, CostModeBasics) {
  CacheNode node(0, CostConfig());
  EXPECT_EQ(node.mode(), CacheMode::kCost);
  EXPECT_EQ(node.ncl()->dcache_capacity(), 8u);
  EXPECT_FALSE(node.Contains(1));
  EXPECT_EQ(node.FindDescriptor(1), nullptr);
}

TEST(CacheNodeTest, AdmitDescriptorCreatesInDCache) {
  CacheNode node(0, CostConfig());
  ObjectDescriptor* desc = node.AdmitDescriptor(7, 100, 5.0);
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->size, 100u);
  EXPECT_EQ(desc->num_accesses, 1);
  EXPECT_FALSE(node.DescriptorInMain(7));
  EXPECT_EQ(node.FindDescriptor(7), desc);
  // Re-admitting returns the existing descriptor without resetting it.
  desc->miss_penalty = 3.0;
  ObjectDescriptor* again = node.AdmitDescriptor(7, 100, 6.0);
  EXPECT_EQ(again, desc);
  EXPECT_DOUBLE_EQ(again->miss_penalty, 3.0);
}

TEST(CacheNodeTest, AdmitWithoutDCacheReturnsNull) {
  CacheNode node(0, CostConfig(1000, /*dcache=*/0));
  EXPECT_EQ(node.AdmitDescriptor(7, 100, 5.0), nullptr);
}

TEST(CacheNodeTest, RecordAccessUnknownObjectReturnsNull) {
  CacheNode node(0, CostConfig());
  EXPECT_EQ(node.RecordAccess(42, 1.0), nullptr);
}

TEST(CacheNodeTest, RecordAccessUpdatesDescriptorAndPriority) {
  CacheNode node(0, CostConfig());
  node.AdmitDescriptor(7, 100, 1.0);
  ObjectDescriptor* desc = node.RecordAccess(7, 2.0);
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->num_accesses, 2);
  EXPECT_GT(desc->frequency, 0.0);
}

TEST(CacheNodeTest, InsertCostPromotesDescriptorFromDCache) {
  CacheNode node(0, CostConfig());
  node.AdmitDescriptor(7, 100, 1.0);
  node.RecordAccess(7, 2.0);
  ASSERT_TRUE(node.InsertCost(7, 100, /*miss_penalty=*/4.0, 3.0));
  EXPECT_TRUE(node.Contains(7));
  EXPECT_TRUE(node.DescriptorInMain(7));
  EXPECT_EQ(node.ncl()->dcache_size(), 0u);  // Moved, not copied.
  const ObjectDescriptor* desc = node.FindDescriptor(7);
  ASSERT_NE(desc, nullptr);
  EXPECT_DOUBLE_EQ(desc->miss_penalty, 4.0);
  // Access history preserved across the promotion.
  EXPECT_EQ(desc->num_accesses, 2);
}

TEST(CacheNodeTest, InsertCostWithoutHistoryCreatesDescriptor) {
  CacheNode node(0, CostConfig());
  ASSERT_TRUE(node.InsertCost(9, 50, 2.0, 1.0));
  const ObjectDescriptor* desc = node.FindDescriptor(9);
  ASSERT_NE(desc, nullptr);
  EXPECT_EQ(desc->num_accesses, 1);
  EXPECT_TRUE(node.DescriptorInMain(9));
}

TEST(CacheNodeTest, InsertCostRejectsOversized) {
  CacheNode node(0, CostConfig(1000));
  EXPECT_FALSE(node.InsertCost(9, 2000, 2.0, 1.0));
  EXPECT_FALSE(node.Contains(9));
}

TEST(CacheNodeTest, InsertCostOnCachedObjectUpdatesPenalty) {
  CacheNode node(0, CostConfig());
  ASSERT_TRUE(node.InsertCost(9, 50, 2.0, 1.0));
  EXPECT_FALSE(node.InsertCost(9, 50, 7.0, 2.0));  // No second write.
  EXPECT_DOUBLE_EQ(node.FindDescriptor(9)->miss_penalty, 7.0);
}

TEST(CacheNodeTest, EvictionDemotesDescriptorsToDCache) {
  CacheNode node(0, CostConfig(100, 8));
  ASSERT_TRUE(node.InsertCost(1, 60, 1.0, 1.0));
  node.RecordAccess(1, 2.0);
  // Inserting object 2 (60 bytes) forces object 1 out.
  ASSERT_TRUE(node.InsertCost(2, 60, 50.0, 3.0));
  EXPECT_FALSE(node.Contains(1));
  EXPECT_TRUE(node.Contains(2));
  EXPECT_FALSE(node.DescriptorInMain(1));
  // Object 1's descriptor (with history) now lives in the d-cache.
  EXPECT_TRUE(node.ncl()->Find(1).dcached());
  const ObjectDescriptor* demoted = node.FindDescriptor(1);
  ASSERT_NE(demoted, nullptr);
  EXPECT_EQ(demoted->num_accesses, 2);
}

TEST(CacheNodeTest, PlanEvictionMatchesNclState) {
  CacheNode node(0, CostConfig(100, 8));
  node.InsertCost(1, 40, 1.0, 1.0);   // Low loss -> first victim.
  node.InsertCost(2, 40, 100.0, 1.0);
  cache::NclCache::EvictionPlan plan;
  node.PlanEvictionInto(40, cache::NclCache::kNoLossLimit, &plan);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.victims.size(), 1u);
  EXPECT_EQ(plan.victims[0], 1u);
}

TEST(CacheNodeTest, RefreshLossTracksFrequencyDecay) {
  CacheNode node(0, CostConfig(1000, 8));
  CacheNodeConfig config = CostConfig(1000, 8);
  config.frequency.aging_interval = 1.0;
  node.Reset(config);
  ASSERT_TRUE(node.InsertCost(1, 100, 10.0, 0.0));
  const double early_loss = node.ncl()->LossOf(1);
  node.RefreshLoss(1, 10000.0);  // Long idle: frequency decays.
  EXPECT_LT(node.ncl()->LossOf(1), early_loss);
}

TEST(CacheNodeTest, UpdateMissPenaltyOnDCacheDescriptor) {
  CacheNode node(0, CostConfig());
  node.AdmitDescriptor(5, 10, 1.0);
  const size_t known = node.ncl()->dcache_size();
  node.UpdateMissPenaltyOrAdmit(5, 10, 6.5, 2.0);
  EXPECT_DOUBLE_EQ(node.FindDescriptor(5)->miss_penalty, 6.5);
  // A known descriptor is updated in place: no second admission, and no
  // access recorded.
  EXPECT_EQ(node.ncl()->dcache_size(), known);
  EXPECT_EQ(node.FindDescriptor(5)->num_accesses, 1u);
}

TEST(CacheNodeTest, EraseObjectInLruMode) {
  CacheNode node(0, LruConfig());
  node.lru()->Insert(1, 100);
  EXPECT_TRUE(node.EraseObject(1));
  EXPECT_FALSE(node.EraseObject(1));
  EXPECT_FALSE(node.Contains(1));
  EXPECT_EQ(node.used_bytes(), 0u);
}

TEST(CacheNodeTest, EraseObjectInCostModeDemotesDescriptor) {
  CacheNode node(0, CostConfig());
  ASSERT_TRUE(node.InsertCost(1, 100, 5.0, 1.0));
  node.RecordAccess(1, 2.0);
  EXPECT_TRUE(node.EraseObject(1));
  EXPECT_FALSE(node.Contains(1));
  EXPECT_FALSE(node.DescriptorInMain(1));
  // History survives in the d-cache.
  EXPECT_TRUE(node.ncl()->Find(1).dcached());
  const ObjectDescriptor* demoted = node.FindDescriptor(1);
  ASSERT_NE(demoted, nullptr);
  EXPECT_EQ(demoted->num_accesses, 2);
  EXPECT_TRUE(node.CheckInvariants());
}

TEST(CacheNodeTest, EraseObjectInGdsAndLfuModes) {
  CacheNodeConfig gds_config;
  gds_config.mode = CacheMode::kGds;
  gds_config.capacity_bytes = 1000;
  CacheNode gds_node(0, gds_config);
  gds_node.gds()->Insert(1, 100, 2.0);
  EXPECT_TRUE(gds_node.EraseObject(1));
  EXPECT_FALSE(gds_node.Contains(1));

  CacheNodeConfig lfu_config;
  lfu_config.mode = CacheMode::kLfu;
  lfu_config.capacity_bytes = 1000;
  CacheNode lfu_node(0, lfu_config);
  lfu_node.lfu()->Insert(1, 100);
  EXPECT_TRUE(lfu_node.EraseObject(1));
  EXPECT_FALSE(lfu_node.Contains(1));
}

TEST(CacheNodeTest, CopyStampsRoundTrip) {
  CacheNode node(0, LruConfig());
  EXPECT_EQ(node.FindCopy(7), nullptr);
  node.StampCopy(7, 12.5, 3);
  const CacheNode::CopyStamp* stamp = node.FindCopy(7);
  ASSERT_NE(stamp, nullptr);
  EXPECT_DOUBLE_EQ(stamp->fetch_time, 12.5);
  EXPECT_EQ(stamp->version, 3u);
  node.StampCopy(7, 20.0, 4);  // Overwrite.
  EXPECT_EQ(node.FindCopy(7)->version, 4u);
  node.lru()->Insert(7, 10);
  EXPECT_TRUE(node.EraseObject(7));  // Drops the stamp too.
  EXPECT_EQ(node.FindCopy(7), nullptr);
}

TEST(CacheNodeTest, CheckInvariantsCatchesCorruption) {
  CacheNode node(0, CostConfig());
  ASSERT_TRUE(node.InsertCost(1, 100, 5.0, 1.0));
  EXPECT_TRUE(node.CheckInvariants());
  // Bypass the CacheNode API to make the cached object's descriptor
  // disagree with the size its store slot accounts for. (A descriptor
  // both cached and d-cached cannot be represented: one index entry per
  // id.)
  node.FindDescriptor(1)->size = 7;
  EXPECT_FALSE(node.CheckInvariants());
}

// Main descriptors live in the store's chunked slots: a descriptor
// pointer must survive later insertions that grow the store past a chunk
// and recycle other objects' slots.
TEST(CacheNodeTest, DescriptorPointersSurviveLaterInsertions) {
  CacheNode node(0, CostConfig(/*capacity=*/600 * 10));
  ASSERT_TRUE(node.InsertCost(1, 10, 1e9, 1.0));  // Far too costly to evict.
  ObjectDescriptor* desc = node.FindDescriptor(1);
  ASSERT_NE(desc, nullptr);
  for (ObjectId id = 2; id < 2000; ++id) {
    ASSERT_TRUE(node.InsertCost(id, 10, 1.0, 2.0));
  }
  ASSERT_TRUE(node.Contains(1));
  EXPECT_EQ(node.FindDescriptor(1), desc);
  EXPECT_EQ(desc->size, 10u);
  EXPECT_DOUBLE_EQ(desc->miss_penalty, 1e9);
  EXPECT_TRUE(node.CheckInvariants());
}

TEST(CacheNodeTest, ResetClearsEverything) {
  CacheNode node(0, CostConfig());
  node.InsertCost(1, 100, 1.0, 1.0);
  node.AdmitDescriptor(2, 10, 1.0);
  node.Reset(LruConfig(500));
  EXPECT_EQ(node.mode(), CacheMode::kLru);
  EXPECT_FALSE(node.Contains(1));
  EXPECT_EQ(node.used_bytes(), 0u);
  EXPECT_EQ(node.capacity_bytes(), 500u);
}

// Reset with an unchanged store shape (mode, capacity, d-cache config)
// must recycle the pooled slots in place: same store objects, same slot
// span, no stale index entries left behind — the path fault-plane crash
// restarts and repeated Run() calls exercise per node.
TEST(CacheNodeTest, ResetReusesLruSlotsInPlace) {
  CacheNode node(0, LruConfig());
  for (ObjectId id = 0; id < 8; ++id) node.lru()->Insert(id, 100);
  cache::FlatLru* store_before = node.lru();
  const size_t span_before = node.lru()->slot_span();
  ASSERT_GT(span_before, 0u);

  node.Reset(LruConfig());
  EXPECT_EQ(node.lru(), store_before);  // In-place clear, not a rebuild.
  EXPECT_EQ(node.lru()->slot_span(), span_before);
  EXPECT_EQ(node.used_bytes(), 0u);
  EXPECT_EQ(node.num_cached_objects(), 0u);
  for (ObjectId id = 0; id < 8; ++id) {
    EXPECT_FALSE(node.Contains(id)) << "stale index entry for " << id;
    EXPECT_FALSE(node.lru()->Touch(id)) << "stale list entry for " << id;
  }

  // Refill: recycled slots, no pool growth, clean invariants.
  for (ObjectId id = 100; id < 108; ++id) node.lru()->Insert(id, 100);
  EXPECT_EQ(node.lru()->slot_span(), span_before);
  EXPECT_TRUE(node.lru()->CheckInvariants());
  EXPECT_TRUE(node.CheckInvariants());
}

TEST(CacheNodeTest, ResetReusesCostStoresInPlace) {
  CacheNode node(0, CostConfig());
  for (ObjectId id = 0; id < 5; ++id) {
    ASSERT_TRUE(node.InsertCost(id, 100, 2.0, 1.0));
  }
  node.AdmitDescriptor(50, 10, 1.0);
  cache::NclCache* ncl_before = node.ncl();

  node.Reset(CostConfig());
  EXPECT_EQ(node.ncl(), ncl_before);
  EXPECT_EQ(node.ncl()->dcache_size(), 0u);
  EXPECT_EQ(node.used_bytes(), 0u);
  for (ObjectId id = 0; id < 5; ++id) {
    EXPECT_FALSE(node.Contains(id)) << "stale entry for " << id;
    EXPECT_FALSE(node.DescriptorInMain(id));
  }
  EXPECT_EQ(node.FindDescriptor(50), nullptr);

  // The plane is immediately usable again.
  ASSERT_TRUE(node.InsertCost(7, 100, 2.0, 1.0));
  EXPECT_TRUE(node.Contains(7));
  EXPECT_TRUE(node.CheckInvariants());
}

TEST(CacheNodeTest, ResetRebuildsWhenShapeChanges) {
  CacheNode node(0, LruConfig(1000));
  node.lru()->Insert(1, 100);
  node.Reset(LruConfig(2000));  // Different capacity: full rebuild.
  EXPECT_EQ(node.capacity_bytes(), 2000u);
  EXPECT_FALSE(node.Contains(1));
  node.Reset(CostConfig());  // Different mode: full rebuild.
  EXPECT_EQ(node.mode(), CacheMode::kCost);
  EXPECT_EQ(node.ncl()->dcache_capacity(), 8u);
  EXPECT_TRUE(node.CheckInvariants());
}

}  // namespace
}  // namespace cascache::sim
