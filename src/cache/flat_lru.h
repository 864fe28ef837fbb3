#ifndef CASCACHE_CACHE_FLAT_LRU_H_
#define CASCACHE_CACHE_FLAT_LRU_H_

#include <cstdint>
#include <vector>

#include "cache/flat_store.h"
#include "trace/object_catalog.h"

namespace cascache::cache {

using trace::ObjectId;

/// Byte-capacity LRU object store used by the LRU and MODULO baselines
/// (paper §3.3). Same contract as the historical list+hash LruCache (the
/// tests keep that implementation as a differential oracle): insertion
/// evicts least-recently-used objects until the new object fits; objects
/// larger than the total capacity are rejected.
///
/// Storage is flat (ROADMAP item 1): resident objects live in a
/// struct-of-arrays slot pool — id, size, and intrusive prev/next links
/// in parallel vectors — with a direct-index id→slot table over the
/// closed object catalog. Touch/Insert/Erase are a handful of array
/// writes with no per-operation allocation; the recency list is walked
/// through slot indices, not pointers.
class FlatLru {
 public:
  explicit FlatLru(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Advisory cache-line prefetch of the Contains probe for `id` (see
  /// SlotIndex::Prefetch); used by the replay loop one request ahead.
  void PrefetchProbe(ObjectId id) const { index_.Prefetch(id); }

  /// Advisory prefetch of the current eviction victim's slot entries (id,
  /// size, list links). The replay loop issues this one request ahead so
  /// an insert's eviction chain starts on warm lines; purely a hint — the
  /// victim may change before the insert, and nothing breaks.
  void PrefetchVictim() const {
    if (tail_ == kNoSlot) return;
    // Loading the victim's id here (instead of just prefetching its line)
    // lets us also warm the index entry the eviction will erase — the one
    // truly scattered store of the eviction chain. The load itself runs
    // many requests ahead of the insert, so its latency is hidden.
    const ObjectId victim = ids_[tail_];
    index_.Prefetch(victim);
    __builtin_prefetch(&sizes_[tail_], 0, 1);
    __builtin_prefetch(&prev_[tail_], 0, 1);
    __builtin_prefetch(&next_[tail_], 0, 1);
  }

  /// Second-stage advisory prefetch, once PrefetchProbe's line has
  /// arrived: the list links a Touch of `id` rewrites; nothing for an
  /// absent id.
  void PrefetchLinks(ObjectId id) const {
    const SlotId slot = index_.Get(id);
    if (slot == kNoSlot) return;
    __builtin_prefetch(&prev_[slot], 1, 1);
    __builtin_prefetch(&next_[slot], 1, 1);
  }

  // Touch/Insert/Erase are inline: they are the per-placement work of the
  // replay hot loop (millions of calls per simulated run), and inlining
  // them into the scheme handlers removes the whole call chain.

  /// Marks `id` as most recently used; no-op if absent. Returns whether
  /// the object was present.
  bool Touch(ObjectId id) {
    const SlotId slot = index_.Get(id);
    if (slot == kNoSlot) return false;
    if (slot != head_) {
      Unlink(slot);
      PushFront(slot);
    }
    return true;
  }

  /// Inserts an object of `size` bytes, evicting LRU objects as needed.
  /// If the object is already present it is only touched. Returns the ids
  /// evicted, in eviction (ascending-staleness) order; the vector is a
  /// reused internal scratch, valid until the next Insert. `inserted`
  /// (optional) reports whether a write happened. Objects larger than the
  /// capacity are not inserted (and nothing is evicted for them).
  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size,
                                      bool* inserted = nullptr) {
    if (Touch(id)) {  // Already present.
      if (inserted != nullptr) *inserted = false;
      evicted_scratch_.clear();
      return evicted_scratch_;
    }
    return InsertAbsent(id, size, inserted);
  }

  /// Insert for an object the caller knows is absent (the replay descent
  /// places only at nodes whose ascent probe just missed), skipping
  /// Insert's leading Touch probe. Same contract otherwise. Calling it
  /// for a present object corrupts the store.
  const std::vector<ObjectId>& InsertAbsent(ObjectId id, uint64_t size,
                                            bool* inserted = nullptr) {
    CASCACHE_DCHECK(!Contains(id));
    if (inserted != nullptr) *inserted = false;
    evicted_scratch_.clear();
    CASCACHE_CHECK(size > 0);
    if (size > capacity_) return evicted_scratch_;  // Cannot ever fit.

    // Eviction unlinks straight off the tail (the victim's next link is
    // known to be kNoSlot), and the last victim's slot is handed directly
    // to the incoming object instead of round-tripping through the free
    // list — the pop would return exactly that slot, so the slot
    // assignment and the final free-list contents are unchanged.
    SlotId reuse = kNoSlot;
    while (used_ + size > capacity_) {
      CASCACHE_CHECK(tail_ != kNoSlot);
      const SlotId victim = tail_;
      const ObjectId victim_id = ids_[victim];
      const SlotId p = prev_[victim];
      if (p != kNoSlot) {
        next_[p] = kNoSlot;
      } else {
        head_ = kNoSlot;
      }
      tail_ = p;
      index_.Erase(victim_id);
      used_ -= sizes_[victim];
      if (reuse != kNoSlot) FreeSlot(reuse);
      reuse = victim;
      --count_;
      evicted_scratch_.push_back(victim_id);
    }
    SlotId slot;
    if (reuse != kNoSlot) {
      slot = reuse;
      ids_[slot] = id;
      sizes_[slot] = size;
    } else {
      slot = AllocSlot(id, size);
    }
    PushFront(slot);
    index_.Set(id, slot);
    used_ += size;
    ++count_;
    if (inserted != nullptr) *inserted = true;
    return evicted_scratch_;
  }

  /// Removes an object; returns false if absent.
  bool Erase(ObjectId id) {
    const SlotId slot = index_.Get(id);
    if (slot == kNoSlot) return false;
    Unlink(slot);
    index_.Erase(id);
    used_ -= sizes_[slot];
    FreeSlot(slot);
    --count_;
    return true;
  }

  void Clear();

  /// Sizes the id index for the catalog's id count (SlotIndex::SetIdCount);
  /// the cache must be empty.
  void SetIdCount(uint64_t num_ids) { index_.SetIdCount(num_ids); }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_objects() const { return count_; }

  /// Least recently used object id; cache must be non-empty.
  ObjectId LruVictim() const;

  /// High-water slot count (resident + free-listed); test/debug helper
  /// for pool-reuse assertions.
  size_t slot_span() const { return ids_.size(); }

  /// Visits every resident object MRU-first: fn(id, size_bytes). Used by
  /// the tiered-node invariant check (RAM ⊆ disk) and the differential
  /// tests; O(n), not for the replay hot path.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (SlotId slot = head_; slot != kNoSlot; slot = next_[slot]) {
      fn(ids_[slot], sizes_[slot]);
    }
  }

  /// Structural self-check: list links, index entries and byte accounting
  /// agree. Test/debug helper (O(n)).
  bool CheckInvariants() const;

 private:
  SlotId AllocSlot(ObjectId id, uint64_t size) {
    SlotId slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      ids_[slot] = id;
      sizes_[slot] = size;
    } else {
      slot = static_cast<SlotId>(ids_.size());
      ids_.push_back(id);
      sizes_.push_back(size);
      prev_.push_back(kNoSlot);
      next_.push_back(kNoSlot);
    }
    return slot;
  }

  void FreeSlot(SlotId slot) { free_.push_back(slot); }

  void Unlink(SlotId slot) {
    const SlotId p = prev_[slot];
    const SlotId n = next_[slot];
    if (p != kNoSlot) {
      next_[p] = n;
    } else {
      head_ = n;
    }
    if (n != kNoSlot) {
      prev_[n] = p;
    } else {
      tail_ = p;
    }
  }

  void PushFront(SlotId slot) {
    prev_[slot] = kNoSlot;
    next_[slot] = head_;
    if (head_ != kNoSlot) prev_[head_] = slot;
    head_ = slot;
    if (tail_ == kNoSlot) tail_ = slot;
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;

  // Struct-of-arrays slot pool. prev_ points toward the MRU end, next_
  // toward the LRU end; head_ is the MRU, tail_ the LRU victim.
  std::vector<ObjectId> ids_;
  std::vector<uint64_t> sizes_;
  std::vector<SlotId> prev_;
  std::vector<SlotId> next_;
  std::vector<SlotId> free_;
  SlotId head_ = kNoSlot;
  SlotId tail_ = kNoSlot;

  SlotIndex index_;
  std::vector<ObjectId> evicted_scratch_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_FLAT_LRU_H_
