// Tests for the sparse (hashed) mode of the store id->slot table,
// cache::SlotIndex. Sparse mode backs huge
// procedural catalogs (> 2^24 ids), where dense direct-index tables
// would blow the memory budget.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/flat_store.h"
#include "util/random.h"

namespace cascache::cache {
namespace {

/// The whole 32-bit id space: far above kDenseIdLimit, so sparse.
constexpr uint64_t kAllIds = uint64_t{1} << 32;

TEST(SparseSlotIndexTest, InsertLookupErase) {
  SlotIndex index;
  index.SetIdCount(kAllIds);
  EXPECT_TRUE(index.sparse());
  EXPECT_EQ(index.Get(7), kNoSlot);

  index.Set(7, 1);
  index.Set(99'000'000, 2);  // Far beyond any dense table's reach.
  EXPECT_EQ(index.Get(7), 1u);
  EXPECT_EQ(index.Get(99'000'000), 2u);
  EXPECT_FALSE(index.Contains(8));

  index.Set(7, 5);  // Overwrite in place.
  EXPECT_EQ(index.Get(7), 5u);

  index.Erase(7);
  EXPECT_EQ(index.Get(7), kNoSlot);
  EXPECT_EQ(index.Get(99'000'000), 2u);
  index.Erase(7);  // Erasing an absent id is a no-op.
  EXPECT_EQ(index.Get(99'000'000), 2u);
}

TEST(SparseSlotIndexTest, MatchesDenseReferenceUnderRandomChurn) {
  SlotIndex sparse;
  sparse.SetIdCount(kAllIds);
  std::unordered_map<trace::ObjectId, SlotId> reference;
  util::Rng rng(17);

  // Random insert/overwrite/erase churn over a small id universe forces
  // collision chains and exercises backward-shift deletion.
  for (int step = 0; step < 50'000; ++step) {
    const trace::ObjectId id =
        static_cast<trace::ObjectId>(rng.NextUint64(512));
    if (rng.NextBool(0.4)) {
      sparse.Erase(id);
      reference.erase(id);
    } else {
      const SlotId slot = static_cast<SlotId>(rng.NextUint64(kNoSlot));
      sparse.Set(id, slot);
      reference[id] = slot;
    }
  }
  for (trace::ObjectId id = 0; id < 512; ++id) {
    auto it = reference.find(id);
    EXPECT_EQ(sparse.Get(id), it == reference.end() ? kNoSlot : it->second)
        << "id " << id;
  }
}

TEST(SparseSlotIndexTest, GrowsPastInitialCapacity) {
  SlotIndex index;
  index.SetIdCount(kAllIds);
  const size_t n = 100'000;  // >> kInitialBuckets; several doublings.
  for (size_t i = 0; i < n; ++i) {
    index.Set(static_cast<trace::ObjectId>(i * 1000 + 3),
              static_cast<SlotId>(i));
  }
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(index.Get(static_cast<trace::ObjectId>(i * 1000 + 3)),
              static_cast<SlotId>(i));
  }
  // The table is sized by resident entries, not by the id span.
  EXPECT_LT(index.span(), 8 * n);
}

TEST(SparseSlotIndexTest, ClearKeepsSparseMode) {
  SlotIndex index;
  index.SetIdCount(kAllIds);
  index.Set(1'000'000, 9);
  index.Clear();
  EXPECT_TRUE(index.sparse());
  EXPECT_EQ(index.Get(1'000'000), kNoSlot);
  index.Set(1'000'000, 4);
  EXPECT_EQ(index.Get(1'000'000), 4u);
}

TEST(SparseSlotIndexTest, DenseModeUnchangedByDefault) {
  SlotIndex index;
  EXPECT_FALSE(index.sparse());
  index.Set(3, 7);
  EXPECT_EQ(index.Get(3), 7u);
  // Dense span tracks the largest id seen.
  EXPECT_GE(index.span(), 4u);
}

// A dense index sized for a catalog grows geometrically but never spans
// more ids than the catalog has, whatever order the ids arrive in.
TEST(SlotIndexTest, DenseSpanNeverExceedsIdCount) {
  util::Rng rng(100'000);
  for (const uint64_t count : {1u, 7u, 1'000u, 100'000u}) {
    SCOPED_TRACE(count);
    SlotIndex ascending;
    ascending.SetIdCount(count);
    SlotIndex random;
    random.SetIdCount(count);
    for (uint64_t i = 0; i < count; ++i) {
      ascending.Set(static_cast<trace::ObjectId>(i), static_cast<SlotId>(i));
      ASSERT_LE(ascending.span(), count);
      random.Set(static_cast<trace::ObjectId>(rng.NextUint64(count)), 0);
      ASSERT_LE(random.span(), count);
    }
    EXPECT_FALSE(ascending.sparse());
    EXPECT_EQ(ascending.span(), count);
    EXPECT_EQ(ascending.Get(static_cast<trace::ObjectId>(count - 1)),
              static_cast<SlotId>(count - 1));
  }
  // An id beyond the count still fits: id + 1 is the floor.
  SlotIndex index;
  index.SetIdCount(10);
  index.Set(25, 3);
  EXPECT_EQ(index.Get(25), 3u);
  EXPECT_EQ(index.span(), 26u);
}

}  // namespace
}  // namespace cascache::cache
