#ifndef CASCACHE_UTIL_INDEXED_HEAP_H_
#define CASCACHE_UTIL_INDEXED_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cascache::util {

/// Binary min-heap over (key, priority) pairs with O(log n) priority update
/// and erase by key. This backs the LFU d-cache (paper §2.4) and the
/// in-cache LFU store.
///
/// Keys are unique small dense uint32 values — the stores key their heaps
/// by pool SlotId, not ObjectId, so the direct-index key→position table
/// spans the store's capacity (resident entries), never the catalog. The
/// table grows lazily to the largest key seen; Clear is O(1) (it re-grows
/// on demand, retaining capacity). Priorities are doubles; ties are broken
/// arbitrarily (but deterministically: the sift order depends only on the
/// priorities and the operation sequence, never on the keys, so what a key
/// names does not change victims).
class IndexedMinHeap {
 public:
  using Key = uint32_t;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  bool Contains(Key key) const { return Lookup(key) != kNpos; }

  /// Priority of an existing key. The key must be present.
  double PriorityOf(Key key) const {
    const size_t i = Lookup(key);
    CASCACHE_CHECK(i != kNpos);
    return entries_[i].second;
  }

  /// Inserts a new key. The key must not already be present.
  void Push(Key key, double priority) {
    CASCACHE_CHECK_MSG(!Contains(key), "duplicate key in IndexedMinHeap");
    entries_.emplace_back(key, priority);
    SetPos(key, entries_.size() - 1);
    SiftUp(entries_.size() - 1);
  }

  /// The minimum-priority entry. Heap must be non-empty.
  const std::pair<Key, double>& Top() const {
    CASCACHE_CHECK(!entries_.empty());
    return entries_[0];
  }

  /// Removes and returns the minimum-priority entry.
  std::pair<Key, double> Pop() {
    CASCACHE_CHECK(!entries_.empty());
    std::pair<Key, double> top = entries_[0];
    RemoveAt(0);
    return top;
  }

  /// Changes the priority of an existing key.
  void Update(Key key, double priority) {
    const size_t i = Lookup(key);
    CASCACHE_CHECK(i != kNpos);
    const double old = entries_[i].second;
    entries_[i].second = priority;
    if (priority < old) {
      SiftUp(i);
    } else if (priority > old) {
      SiftDown(i);
    }
  }

  /// Inserts the key or updates its priority if already present.
  void Upsert(Key key, double priority) {
    if (Contains(key)) {
      Update(key, priority);
    } else {
      Push(key, priority);
    }
  }

  /// Removes a key; returns false if it was not present.
  bool Erase(Key key) {
    const size_t i = Lookup(key);
    if (i == kNpos) return false;
    RemoveAt(i);
    return true;
  }

  void Clear() {
    entries_.clear();
    pos_.clear();
  }

  /// Unordered view of all entries (heap order, not priority order).
  const std::vector<std::pair<Key, double>>& entries() const {
    return entries_;
  }

  /// Verifies the heap property and index map; used by tests.
  bool CheckInvariants() const {
    if (static_cast<size_t>(std::count_if(
            pos_.begin(), pos_.end(),
            [](size_t pos) { return pos != kNpos; })) != entries_.size()) {
      return false;
    }
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (Lookup(entries_[i].first) != i) return false;
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < entries_.size() && entries_[l].second < entries_[i].second)
        return false;
      if (r < entries_.size() && entries_[r].second < entries_[i].second)
        return false;
    }
    return true;
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  size_t Lookup(Key key) const {
    return key < pos_.size() ? pos_[key] : kNpos;
  }

  void SetPos(Key key, size_t pos) {
    if (key >= pos_.size()) {
      const size_t target =
          std::max<size_t>(static_cast<size_t>(key) + 1, pos_.size() * 2);
      pos_.resize(target, kNpos);
    }
    pos_[key] = pos;
  }

  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (entries_[parent].second <= entries_[i].second) break;
      SwapEntries(i, parent);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = entries_.size();
    for (;;) {
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      size_t smallest = i;
      if (l < n && entries_[l].second < entries_[smallest].second)
        smallest = l;
      if (r < n && entries_[r].second < entries_[smallest].second)
        smallest = r;
      if (smallest == i) break;
      SwapEntries(i, smallest);
      i = smallest;
    }
  }

  void SwapEntries(size_t a, size_t b) {
    std::swap(entries_[a], entries_[b]);
    SetPos(entries_[a].first, a);
    SetPos(entries_[b].first, b);
  }

  void RemoveAt(size_t i) {
    const size_t last = entries_.size() - 1;
    pos_[entries_[i].first] = kNpos;
    if (i != last) {
      entries_[i] = entries_[last];
      SetPos(entries_[i].first, i);
      entries_.pop_back();
      // The moved element may need to go either direction.
      SiftDown(i);
      SiftUp(i);
    } else {
      entries_.pop_back();
    }
  }

  std::vector<std::pair<Key, double>> entries_;
  std::vector<size_t> pos_;  ///< key → heap position (kNpos = absent).
};

}  // namespace cascache::util

#endif  // CASCACHE_UTIL_INDEXED_HEAP_H_
