#include "util/indexed_heap.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testing/ref_caches.h"
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

// Pair priorities as the NCL and GDS stores use them: (value, id) with
// few distinct values, so the id decides most comparisons. Ids are
// unique, which makes the priorities a total order.
using PairPriority = std::pair<double, uint32_t>;
using PairHeap = IndexedMinHeap<PairPriority>;

/// Builds a heap of up to `max_keys` keys by random Push / Update / Erase
/// churn; key k always carries id k ^ 0x5a5a.
PairHeap RandomPairHeap(Rng& rng, uint32_t max_keys) {
  const double kValues[] = {0.0, 0.5, 1.0, 1.5};
  auto priority = [&](uint32_t key) {
    return PairPriority{kValues[rng.NextUint64(4)], key ^ 0x5a5au};
  };
  PairHeap heap;
  for (int step = 0; step < 3 * static_cast<int>(max_keys); ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextUint64(max_keys));
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.6) {
      heap.Upsert(key, priority(key));
    } else if (dice < 0.8) {
      heap.Erase(key);
    } else if (!heap.empty()) {
      heap.Pop();
    }
  }
  return heap;
}

std::vector<PairPriority> SortedPriorities(const PairHeap& heap) {
  std::vector<PairPriority> sorted;
  for (const auto& [key, priority] : heap.entries()) sorted.push_back(priority);
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

TEST(IndexedHeapTest, VisitAscendingMatchesSortOrderAndLeavesHeapAlone) {
  Rng rng(2003);
  std::vector<size_t> frontier;  // Reused across walks, as the stores do.
  for (int trial = 0; trial < 200; ++trial) {
    const PairHeap heap =
        RandomPairHeap(rng, 1 + static_cast<uint32_t>(rng.NextUint64(300)));
    const std::vector<PairHeap::Entry> before = heap.entries();
    std::vector<PairPriority> visited;
    heap.VisitAscending(&frontier, [&](const PairHeap::Entry& entry) {
      EXPECT_EQ(heap.PriorityOf(entry.first), entry.second);
      visited.push_back(entry.second);
      return true;
    });
    ASSERT_EQ(visited, SortedPriorities(heap)) << "trial " << trial;
    ASSERT_EQ(heap.entries(), before) << "trial " << trial;
    ASSERT_TRUE(heap.CheckInvariants()) << "trial " << trial;
  }
}

TEST(IndexedHeapTest, VisitAscendingStopsWhenAsked) {
  Rng rng(2004);
  std::vector<size_t> frontier;
  for (int trial = 0; trial < 200; ++trial) {
    const PairHeap heap =
        RandomPairHeap(rng, 1 + static_cast<uint32_t>(rng.NextUint64(300)));
    const std::vector<PairPriority> sorted = SortedPriorities(heap);
    const size_t stop_after = rng.NextUint64(sorted.size() + 1);
    std::vector<PairPriority> visited;
    heap.VisitAscending(&frontier, [&](const PairHeap::Entry& entry) {
      visited.push_back(entry.second);
      return visited.size() < stop_after;
    });
    // The callback runs once even when it stops at the first entry.
    const size_t expected =
        sorted.empty() ? 0 : std::max<size_t>(1, stop_after);
    ASSERT_EQ(visited.size(), expected) << "trial " << trial;
    ASSERT_TRUE(std::equal(visited.begin(), visited.end(), sorted.begin()))
        << "trial " << trial;
  }
}

TEST(IndexedHeapTest, PairPopOrderMatchesOrderedSet) {
  Rng rng(2005);
  for (int trial = 0; trial < 50; ++trial) {
    PairHeap heap =
        RandomPairHeap(rng, 1 + static_cast<uint32_t>(rng.NextUint64(300)));
    std::set<PairPriority> reference;
    for (const auto& [key, priority] : heap.entries()) {
      reference.insert(priority);
    }
    ASSERT_EQ(reference.size(), heap.size());
    for (const PairPriority& want : reference) {
      const PairHeap::Entry got = heap.Pop();
      ASSERT_EQ(got.second, want) << "trial " << trial;
      ASSERT_EQ(got.first, want.second ^ 0x5a5au) << "trial " << trial;
    }
    EXPECT_TRUE(heap.empty());
  }
}

// The arrangement pin: after every operation the heap array equals the
// historical swap-sift heap's, entry for entry. Priorities are drawn from
// a handful of values, so most comparisons are ties and the arrangement,
// not the order, decides which equal-priority entry surfaces first.
template <typename Priority, typename MakePriority>
void ExpectSwapSiftArrangement(uint64_t seed, MakePriority make_priority) {
  Rng rng(seed);
  IndexedMinHeap<Priority> heap;
  cascache::testing::RefIndexedMinHeap<Priority> reference;
  for (int step = 0; step < 20000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextUint64(200));
    const Priority priority = make_priority(rng, key);
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.3) {
      if (!reference.Contains(key)) {
        heap.Push(key, priority);
        reference.Push(key, priority);
      }
    } else if (dice < 0.45) {
      if (!reference.empty()) {
        ASSERT_EQ(heap.Pop(), reference.Pop());
      }
    } else if (dice < 0.65) {
      if (reference.Contains(key)) {
        heap.Update(key, priority);
        reference.Update(key, priority);
      }
    } else if (dice < 0.85) {
      heap.Upsert(key, priority);
      reference.Upsert(key, priority);
    } else {
      ASSERT_EQ(heap.Erase(key), reference.Erase(key));
    }
    ASSERT_EQ(heap.entries(), reference.entries()) << "step " << step;
  }
  EXPECT_TRUE(heap.CheckInvariants());
}

TEST(IndexedHeapTest, ArrangementMatchesSwapSiftReference) {
  const double kValues[] = {0.0, 1.0, 1.0, 1.0, 2.0, 3.5};
  ExpectSwapSiftArrangement<double>(2006, [&](Rng& rng, uint32_t) {
    return kValues[rng.NextUint64(6)];
  });
  // (value, id) pairs as the NCL and GDS stores key them; the ids here
  // repeat across keys, so equal pairs occur too.
  ExpectSwapSiftArrangement<PairPriority>(2007, [&](Rng& rng, uint32_t key) {
    return PairPriority{kValues[rng.NextUint64(6)], key % 7};
  });
}

}  // namespace
}  // namespace cascache::util
