// The d-cache (paper §2.4) as NclCache keeps it: descriptors of hot
// objects the store does not cache, behind the store's one id index.

#include <gtest/gtest.h>

#include "cache/ncl_cache.h"

namespace cascache::cache {
namespace {

/// Byte capacity far above anything these tests cache: no object
/// eviction interferes with the d-cache under test.
constexpr uint64_t kBytes = 1'000'000;

ObjectDescriptor Desc(uint64_t size, double frequency) {
  ObjectDescriptor desc;
  desc.size = size;
  desc.frequency = frequency;
  desc.frequency_time = 0.0;
  return desc;
}

bool InDCache(const NclCache& cache, ObjectId id) {
  return cache.Find(id).dcached();
}

TEST(DCacheTest, InsertAndFind) {
  NclCache cache(kBytes, 4);
  EXPECT_NE(cache.AdmitDescriptor(1, Desc(100, 2.0)), nullptr);
  ASSERT_TRUE(InDCache(cache, 1));
  EXPECT_FALSE(cache.Contains(1));  // Known, not cached.
  const ObjectDescriptor* found = cache.FindDescriptor(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->size, 100u);
  EXPECT_EQ(cache.dcache_size(), 1u);
  EXPECT_EQ(cache.FindDescriptor(2), nullptr);
}

// One index entry per id: promotion moves the d-cached descriptor into
// the object's cache slot, and dropping the object moves it back.
TEST(DCacheTest, OverwriteKeepsSingleEntry) {
  NclCache cache(kBytes, 4);
  cache.AdmitDescriptor(1, Desc(100, 2.0));
  bool inserted = false;
  cache.Insert(1, 200, 3.0, &inserted);
  ASSERT_TRUE(inserted);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.dcache_size(), 0u);
  EXPECT_EQ(cache.FindDescriptor(1)->size, 200u);
  EXPECT_DOUBLE_EQ(cache.FindDescriptor(1)->frequency, 2.0);  // Kept.
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_EQ(cache.dcache_size(), 1u);
  EXPECT_TRUE(InDCache(cache, 1));
  EXPECT_EQ(cache.FindDescriptor(1)->size, 200u);
}

TEST(DCacheTest, EvictsLowestFrequencyWhenFull) {
  NclCache cache(kBytes, 3);
  cache.AdmitDescriptor(1, Desc(10, 5.0));
  cache.AdmitDescriptor(2, Desc(10, 1.0));  // Coldest.
  cache.AdmitDescriptor(3, Desc(10, 3.0));
  EXPECT_NE(cache.AdmitDescriptor(4, Desc(10, 4.0)), nullptr);
  EXPECT_FALSE(InDCache(cache, 2));
  EXPECT_EQ(cache.FindDescriptor(2), nullptr);
  EXPECT_TRUE(InDCache(cache, 1));
  EXPECT_TRUE(InDCache(cache, 3));
  EXPECT_TRUE(InDCache(cache, 4));
}

TEST(DCacheTest, AdmissionRejectsColderThanMinimum) {
  NclCache cache(kBytes, 2);
  cache.AdmitDescriptor(1, Desc(10, 5.0));
  cache.AdmitDescriptor(2, Desc(10, 3.0));
  // Frequency 1.0 < min(3.0): rejected, nothing evicted.
  EXPECT_EQ(cache.AdmitDescriptor(3, Desc(10, 1.0)), nullptr);
  EXPECT_TRUE(InDCache(cache, 1));
  EXPECT_TRUE(InDCache(cache, 2));
  EXPECT_FALSE(cache.Find(3).known());
}

TEST(DCacheTest, RefreshChangesVictim) {
  NclCache cache(kBytes, 2);
  cache.AdmitDescriptor(1, Desc(10, 5.0));
  cache.AdmitDescriptor(2, Desc(10, 3.0));
  cache.FindDescriptor(1)->frequency = 0.5;
  cache.RefreshDescriptor(cache.Find(1));  // Object 1 becomes the coldest.
  cache.AdmitDescriptor(3, Desc(10, 4.0));
  EXPECT_FALSE(InDCache(cache, 1));
  EXPECT_TRUE(InDCache(cache, 2));
  EXPECT_TRUE(InDCache(cache, 3));
}

ObjectDescriptor DescWithAccess(double time) {
  ObjectDescriptor desc;
  desc.size = 10;
  desc.frequency = 1.0;
  desc.RecordAccess(time);
  return desc;
}

TEST(DCacheLruTest, EvictsLeastRecentlyAccessed) {
  NclCache cache(kBytes, 2, DCachePolicy::kLru);
  EXPECT_EQ(cache.dcache_policy(), DCachePolicy::kLru);
  cache.AdmitDescriptor(1, DescWithAccess(5.0));
  cache.AdmitDescriptor(2, DescWithAccess(9.0));
  // Newcomer accessed at t=12: always admitted under LRU, evicting the
  // stalest descriptor (object 1) even though frequencies are equal.
  EXPECT_NE(cache.AdmitDescriptor(3, DescWithAccess(12.0)), nullptr);
  EXPECT_FALSE(InDCache(cache, 1));
  EXPECT_TRUE(InDCache(cache, 2));
  EXPECT_TRUE(InDCache(cache, 3));
}

TEST(DCacheLruTest, RefreshProtectsRecentlyUsed) {
  NclCache cache(kBytes, 2, DCachePolicy::kLru);
  cache.AdmitDescriptor(1, DescWithAccess(5.0));
  cache.AdmitDescriptor(2, DescWithAccess(9.0));
  cache.FindDescriptor(1)->RecordAccess(11.0);
  cache.RefreshDescriptor(cache.Find(1));  // Object 2 is now the stalest.
  cache.AdmitDescriptor(3, DescWithAccess(12.0));
  EXPECT_TRUE(InDCache(cache, 1));
  EXPECT_FALSE(InDCache(cache, 2));
}

TEST(DCacheTest, ZeroCapacityRejectsEverything) {
  NclCache cache(kBytes, 0);
  EXPECT_EQ(cache.AdmitDescriptor(1, Desc(10, 5.0)), nullptr);
  EXPECT_EQ(cache.dcache_size(), 0u);
  // A dropped object has nowhere to demote its descriptor to.
  cache.Insert(2, 10, 1.0);
  EXPECT_TRUE(cache.Erase(2));
  EXPECT_FALSE(cache.Find(2).known());
}

// A d-cache entry leaves by promotion only; Erase drops cached objects.
TEST(DCacheTest, EraseAndClear) {
  NclCache cache(kBytes, 4);
  cache.AdmitDescriptor(1, Desc(10, 1.0));
  cache.AdmitDescriptor(2, Desc(10, 2.0));
  EXPECT_FALSE(cache.Erase(1));  // Not cached: the descriptor stays.
  EXPECT_EQ(cache.dcache_size(), 2u);
  cache.Insert(1, 10, 1.0);
  EXPECT_EQ(cache.dcache_size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.dcache_size(), 0u);
  EXPECT_FALSE(cache.Find(1).known());
  EXPECT_FALSE(cache.Find(2).known());
}

TEST(DCacheTest, FindReturnsMutableDescriptor) {
  NclCache cache(kBytes, 4);
  cache.AdmitDescriptor(1, Desc(10, 1.0));
  cache.FindDescriptor(1)->miss_penalty = 9.0;
  EXPECT_DOUBLE_EQ(cache.FindDescriptor(1)->miss_penalty, 9.0);
}

TEST(DCacheTest, CapacityNeverExceeded) {
  NclCache cache(kBytes, 5);
  for (ObjectId id = 0; id < 50; ++id) {
    cache.AdmitDescriptor(id, Desc(10, static_cast<double>(id)));
    EXPECT_LE(cache.dcache_size(), 5u);
  }
  // The five hottest descriptors survive.
  for (ObjectId id = 45; id < 50; ++id) EXPECT_TRUE(InDCache(cache, id));
}

}  // namespace
}  // namespace cascache::cache
