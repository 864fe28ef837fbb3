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
/// and erase by key. This is the one eviction order of the stores: the
/// NCL store (paper §2.1) and the GreedyDual-Size store rank their cached
/// objects in it, and the LFU d-cache (paper §2.4) and the in-cache LFU
/// store their entries.
///
/// Keys are unique small dense uint32 values — the stores key their heaps
/// by pool SlotId, not ObjectId, so the direct-index key→position table
/// spans the store's capacity (resident entries), never the catalog. The
/// table grows lazily to the largest key seen; Clear is O(1) (it re-grows
/// on demand, retaining capacity).
///
/// Sifts are copy-free: the moving entry is written once, at its final
/// position, while each entry it passes moves one level. The comparisons
/// are those of a swap-per-level sift (a parent keeps its place on a tie;
/// the left child wins a tie with the right), so the array arrangement
/// after every operation is the swap sift's. Positions are 32-bit.
///
/// `Priority` is any type ordered by `<` (double by default). Ties are
/// broken arbitrarily but deterministically: the sift order depends only
/// on the priorities and the operation sequence, never on the keys, so
/// what a key names does not change victims. A store that needs an exact
/// victim order makes its priorities a total order — (NCL, id) and
/// (H, id) pairs, ids being unique within a store — so Pop and
/// VisitAscending yield the ascending sequence of a std::set over them.
template <typename Priority = double>
class IndexedMinHeap {
 public:
  using Key = uint32_t;
  using Entry = std::pair<Key, Priority>;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  bool Contains(Key key) const { return Lookup(key) != kNpos; }

  /// Priority of an existing key. The key must be present.
  const Priority& PriorityOf(Key key) const {
    const size_t i = Lookup(key);
    CASCACHE_CHECK(i != kNpos);
    return entries_[i].second;
  }

  /// Inserts a new key. The key must not already be present.
  void Push(Key key, const Priority& priority) {
    CASCACHE_CHECK_MSG(!Contains(key), "duplicate key in IndexedMinHeap");
    entries_.emplace_back(key, priority);
    SetPos(key, entries_.size() - 1);
    SiftUp(entries_.size() - 1);
  }

  /// The minimum-priority entry. Heap must be non-empty.
  const Entry& Top() const {
    CASCACHE_CHECK(!entries_.empty());
    return entries_[0];
  }

  /// Removes and returns the minimum-priority entry.
  Entry Pop() {
    CASCACHE_CHECK(!entries_.empty());
    Entry top = entries_[0];
    RemoveAt(0);
    return top;
  }

  /// Changes the priority of an existing key.
  void Update(Key key, const Priority& priority) {
    const size_t i = Lookup(key);
    CASCACHE_CHECK(i != kNpos);
    const Priority old = entries_[i].second;
    entries_[i].second = priority;
    if (priority < old) {
      SiftUp(i);
    } else if (old < priority) {
      SiftDown(i);
    }
  }

  /// Inserts the key or updates its priority if already present.
  void Upsert(Key key, const Priority& priority) {
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

  /// Advisory cache-line prefetch (write intent) of the key's position
  /// entry, which Update and Erase read first; no state changes.
  void PrefetchPosition(Key key) const {
    if (key < pos_.size()) __builtin_prefetch(&pos_[key], 1, 1);
  }

  /// Unordered view of all entries (heap order, not priority order).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Visits entries in ascending priority order, without modifying the
  /// heap, until `fn(const Entry&)` returns false. A best-first walk over
  /// the heap array: `frontier` (caller-owned scratch, so a warm walk
  /// never allocates) holds the positions whose parents were visited,
  /// ordered as a min-heap on priority; by the heap property its minimum
  /// is the next entry in order. Visiting k entries costs O(k log k).
  template <typename Fn>
  void VisitAscending(std::vector<size_t>* frontier, Fn fn) const {
    const auto later = [this](size_t a, size_t b) {
      return entries_[b].second < entries_[a].second;
    };
    frontier->clear();
    if (!entries_.empty()) frontier->push_back(0);
    while (!frontier->empty()) {
      std::pop_heap(frontier->begin(), frontier->end(), later);
      const size_t i = frontier->back();
      frontier->pop_back();
      if (!fn(entries_[i])) return;
      for (size_t child = 2 * i + 1;
           child <= 2 * i + 2 && child < entries_.size(); ++child) {
        frontier->push_back(child);
        std::push_heap(frontier->begin(), frontier->end(), later);
      }
    }
  }

  /// Verifies the heap property and index map; used by tests.
  bool CheckInvariants() const {
    if (static_cast<size_t>(std::count_if(
            pos_.begin(), pos_.end(),
            [](uint32_t pos) { return pos != kNpos; })) != entries_.size()) {
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
  static constexpr uint32_t kNpos = UINT32_MAX;

  uint32_t Lookup(Key key) const {
    return key < pos_.size() ? pos_[key] : kNpos;
  }

  void SetPos(Key key, size_t pos) {
    if (key >= pos_.size()) {
      const size_t target =
          std::max<size_t>(static_cast<size_t>(key) + 1, pos_.size() * 2);
      pos_.resize(target, kNpos);
    }
    pos_[key] = static_cast<uint32_t>(pos);
  }

  /// Places `entry` at position `i`, recording its position.
  void Place(size_t i, Entry&& entry) {
    pos_[entry.first] = static_cast<uint32_t>(i);
    entries_[i] = std::move(entry);
  }

  /// Moves the entry at `i` up past every parent it ranks strictly below,
  /// writing it once at its final position: the swap-per-level sift's
  /// comparisons, and so its arrangement.
  void SiftUp(size_t i) {
    Entry moving = std::move(entries_[i]);
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (entries_[parent].second <= moving.second) break;
      Place(i, std::move(entries_[parent]));
      i = parent;
    }
    Place(i, std::move(moving));
  }

  /// Moves the entry at `i` down below every smaller child, as SiftUp
  /// does: the left child wins ties with the right one, and the moving
  /// entry wins ties with both.
  void SiftDown(size_t i) {
    const size_t n = entries_.size();
    Entry moving = std::move(entries_[i]);
    for (;;) {
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l >= n) break;
      size_t smallest = entries_[l].second < moving.second ? l : i;
      const Priority& best =
          smallest == l ? entries_[l].second : moving.second;
      if (r < n && entries_[r].second < best) smallest = r;
      if (smallest == i) break;
      Place(i, std::move(entries_[smallest]));
      i = smallest;
    }
    Place(i, std::move(moving));
  }

  void RemoveAt(size_t i) {
    const size_t last = entries_.size() - 1;
    pos_[entries_[i].first] = kNpos;
    if (i != last) {
      entries_[i] = std::move(entries_[last]);
      entries_.pop_back();
      // The moved entry goes up if it ranks below the parent, else down;
      // it can do only one of the two.
      if (i > 0 && entries_[i].second < entries_[(i - 1) / 2].second) {
        SiftUp(i);
      } else {
        SiftDown(i);
      }
    } else {
      entries_.pop_back();
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> pos_;  ///< key → heap position (kNpos = absent).
};

}  // namespace cascache::util

#endif  // CASCACHE_UTIL_INDEXED_HEAP_H_
