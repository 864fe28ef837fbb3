#include "util/indexed_heap.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "util/random.h"

namespace cascache::util {
namespace {

TEST(IndexedHeapTest, EmptyHeap) {
  IndexedMinHeap heap;
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.Contains(1));
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST(IndexedHeapTest, PushPopOrdersByPriority) {
  IndexedMinHeap heap;
  heap.Push(10, 3.0);
  heap.Push(20, 1.0);
  heap.Push(30, 2.0);
  EXPECT_EQ(heap.Pop().first, 20u);
  EXPECT_EQ(heap.Pop().first, 30u);
  EXPECT_EQ(heap.Pop().first, 10u);
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedHeapTest, TopDoesNotRemove) {
  IndexedMinHeap heap;
  heap.Push(1, 5.0);
  EXPECT_EQ(heap.Top().first, 1u);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(IndexedHeapTest, UpdateMovesUpAndDown) {
  IndexedMinHeap heap;
  heap.Push(1, 1.0);
  heap.Push(2, 2.0);
  heap.Push(3, 3.0);
  heap.Update(3, 0.5);  // 3 becomes the minimum.
  EXPECT_EQ(heap.Top().first, 3u);
  heap.Update(3, 10.0);  // 3 sinks back down.
  EXPECT_EQ(heap.Top().first, 1u);
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST(IndexedHeapTest, UpsertInsertsOrUpdates) {
  IndexedMinHeap heap;
  heap.Upsert(7, 2.0);
  EXPECT_TRUE(heap.Contains(7));
  heap.Upsert(7, 0.1);
  EXPECT_DOUBLE_EQ(heap.PriorityOf(7), 0.1);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(IndexedHeapTest, EraseByKey) {
  IndexedMinHeap heap;
  for (uint32_t i = 0; i < 10; ++i) heap.Push(i, static_cast<double>(i));
  EXPECT_TRUE(heap.Erase(0));   // Erase the min.
  EXPECT_TRUE(heap.Erase(9));   // Erase the max.
  EXPECT_TRUE(heap.Erase(5));   // Erase an interior key.
  EXPECT_FALSE(heap.Erase(5));  // Already gone.
  EXPECT_EQ(heap.size(), 7u);
  EXPECT_EQ(heap.Top().first, 1u);
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST(IndexedHeapTest, ClearEmpties) {
  IndexedMinHeap heap;
  heap.Push(1, 1.0);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(1));
}

TEST(IndexedHeapTest, PopDrainsInSortedOrder) {
  IndexedMinHeap heap;
  Rng rng(42);
  for (uint32_t i = 0; i < 500; ++i) heap.Push(i, rng.NextDouble());
  double prev = -1.0;
  while (!heap.empty()) {
    const auto [key, prio] = heap.Pop();
    EXPECT_GE(prio, prev);
    prev = prio;
  }
}

// Property test: a long random op sequence keeps the heap consistent with
// a reference std::set of (priority, key).
TEST(IndexedHeapTest, RandomOpsMatchReference) {
  IndexedMinHeap heap;
  std::set<std::pair<double, uint32_t>> reference;
  std::unordered_map<uint32_t, double> prio_of;
  Rng rng(7);

  for (int step = 0; step < 20000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextUint64(200));
    const int op = static_cast<int>(rng.NextUint64(4));
    const bool present = prio_of.count(key) > 0;
    switch (op) {
      case 0:  // Insert (if absent).
        if (!present) {
          const double p = rng.NextDouble();
          heap.Push(key, p);
          reference.emplace(p, key);
          prio_of[key] = p;
        }
        break;
      case 1:  // Update (if present).
        if (present) {
          const double p = rng.NextDouble();
          reference.erase({prio_of[key], key});
          heap.Update(key, p);
          reference.emplace(p, key);
          prio_of[key] = p;
        }
        break;
      case 2:  // Erase.
        EXPECT_EQ(heap.Erase(key), present);
        if (present) {
          reference.erase({prio_of[key], key});
          prio_of.erase(key);
        }
        break;
      case 3:  // Pop min.
        if (!reference.empty()) {
          const auto [k, p] = heap.Pop();
          EXPECT_DOUBLE_EQ(p, reference.begin()->first);
          reference.erase({prio_of[k], k});
          prio_of.erase(k);
        }
        break;
    }
    if (step % 1000 == 0) {
      ASSERT_TRUE(heap.CheckInvariants());
    }
    ASSERT_EQ(heap.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_DOUBLE_EQ(heap.Top().second, reference.begin()->first);
    }
  }
  EXPECT_TRUE(heap.CheckInvariants());
}

}  // namespace
}  // namespace cascache::util
