#ifndef CASCACHE_UTIL_INDEXED_HEAP_H_
#define CASCACHE_UTIL_INDEXED_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.h"

namespace cascache::util {

inline constexpr size_t kHeapNpos = static_cast<size_t>(-1);

/// Default key→heap-position map: a hash table. Works for any hashable
/// key type.
template <typename Key, typename Hash = std::hash<Key>>
class HashPosMap {
 public:
  size_t Lookup(const Key& key) const {
    auto it = pos_.find(key);
    return it == pos_.end() ? kHeapNpos : it->second;
  }
  void Set(const Key& key, size_t pos) { pos_[key] = pos; }
  void Erase(const Key& key) { pos_.erase(key); }
  void Clear() { pos_.clear(); }
  size_t size() const { return pos_.size(); }

 private:
  std::unordered_map<Key, size_t, Hash> pos_;
};

/// Direct-index key→heap-position map for small dense unsigned keys: one
/// array load per lookup instead of a hash probe. The stores key their
/// heaps by pool SlotId, not ObjectId, so the table spans the store's
/// capacity (resident entries), never the catalog. Grows lazily to the
/// largest key seen; Clear is O(1) (the table re-grows on demand,
/// retaining capacity).
class DensePosMap {
 public:
  size_t Lookup(uint32_t key) const {
    return key < pos_.size() ? pos_[key] : kHeapNpos;
  }
  void Set(uint32_t key, size_t pos) {
    if (key >= pos_.size()) {
      const size_t target =
          std::max<size_t>(static_cast<size_t>(key) + 1, pos_.size() * 2);
      pos_.resize(target, kHeapNpos);
    }
    pos_[key] = pos;
  }
  void Erase(uint32_t key) {
    if (key < pos_.size()) pos_[key] = kHeapNpos;
    --count_;  // Callers only erase present keys (heap invariant).
  }
  void Clear() {
    pos_.clear();
    count_ = 0;
  }
  size_t size() const { return count_; }

 private:
  std::vector<size_t> pos_;
  size_t count_ = 0;
};

/// Binary min-heap over (key, priority) pairs with O(log n) priority update
/// and erase by key. This backs the LFU d-cache (paper §2.4) and the
/// in-cache LFU store.
///
/// Keys must be unique. Priorities are doubles; ties are broken
/// arbitrarily (but deterministically: the sift order depends only on the
/// priorities and the operation sequence, never on the keys, so neither
/// the PosMap policy nor what the key names changes victims).
/// The PosMap parameter selects the key→position index: HashPosMap for
/// arbitrary keys, DensePosMap for small dense uint32 keys (the stores'
/// pool slots).
template <typename Key, typename PosMap = HashPosMap<Key>>
class IndexedMinHeap {
 public:
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  bool Contains(const Key& key) const {
    return pos_.Lookup(key) != kHeapNpos;
  }

  /// Priority of an existing key. The key must be present.
  double PriorityOf(const Key& key) const {
    const size_t i = pos_.Lookup(key);
    CASCACHE_CHECK(i != kHeapNpos);
    return entries_[i].second;
  }

  /// Inserts a new key. The key must not already be present.
  void Push(const Key& key, double priority) {
    CASCACHE_CHECK_MSG(!Contains(key), "duplicate key in IndexedMinHeap");
    entries_.emplace_back(key, priority);
    pos_.Set(key, entries_.size() - 1);
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
  void Update(const Key& key, double priority) {
    const size_t i = pos_.Lookup(key);
    CASCACHE_CHECK(i != kHeapNpos);
    const double old = entries_[i].second;
    entries_[i].second = priority;
    if (priority < old) {
      SiftUp(i);
    } else if (priority > old) {
      SiftDown(i);
    }
  }

  /// Inserts the key or updates its priority if already present.
  void Upsert(const Key& key, double priority) {
    if (Contains(key)) {
      Update(key, priority);
    } else {
      Push(key, priority);
    }
  }

  /// Removes a key; returns false if it was not present.
  bool Erase(const Key& key) {
    const size_t i = pos_.Lookup(key);
    if (i == kHeapNpos) return false;
    RemoveAt(i);
    return true;
  }

  void Clear() {
    entries_.clear();
    pos_.Clear();
  }

  /// Unordered view of all entries (heap order, not priority order).
  const std::vector<std::pair<Key, double>>& entries() const {
    return entries_;
  }

  /// Verifies the heap property and index map; used by tests.
  bool CheckInvariants() const {
    if (pos_.size() != entries_.size()) return false;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (pos_.Lookup(entries_[i].first) != i) return false;
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < entries_.size() && entries_[l].second < entries_[i].second)
        return false;
      if (r < entries_.size() && entries_[r].second < entries_[i].second)
        return false;
    }
    return true;
  }

 private:
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
    pos_.Set(entries_[a].first, a);
    pos_.Set(entries_[b].first, b);
  }

  void RemoveAt(size_t i) {
    const size_t last = entries_.size() - 1;
    pos_.Erase(entries_[i].first);
    if (i != last) {
      entries_[i] = entries_[last];
      pos_.Set(entries_[i].first, i);
      entries_.pop_back();
      // The moved element may need to go either direction.
      SiftDown(i);
      SiftUp(i);
    } else {
      entries_.pop_back();
    }
  }

  std::vector<std::pair<Key, double>> entries_;
  PosMap pos_;
};

/// Heap over small dense keys (pool slots): direct-index position map.
template <typename Key>
using DenseIndexedMinHeap = IndexedMinHeap<Key, DensePosMap>;

}  // namespace cascache::util

#endif  // CASCACHE_UTIL_INDEXED_HEAP_H_
