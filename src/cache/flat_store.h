#ifndef CASCACHE_CACHE_FLAT_STORE_H_
#define CASCACHE_CACHE_FLAT_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/object_catalog.h"
#include "util/check.h"

namespace cascache::cache {

/// Slot handle inside a flat store; slots are dense indices into
/// struct-of-arrays storage.
using SlotId = uint32_t;
inline constexpr SlotId kNoSlot = UINT32_MAX;

/// Above this many catalog ids the per-store dense id→slot arrays are
/// replaced with residency-sized hashed tables (see SlotIndex); 2^24 ids
/// keeps the dense path for every historical configuration.
inline constexpr uint64_t kDenseIdLimit = uint64_t{1} << 24;

/// Direct-index id→slot table over the closed object catalog (ObjectId is
/// a dense uint32_t, see trace/object_catalog.h). Replaces the per-store
/// `std::unordered_map<ObjectId, ...>`: a lookup is one bounds check and
/// one array load instead of a hash, a probe chain and a pointer chase.
/// The table grows lazily to the largest id seen, geometrically but never
/// past the catalog's id count (SetIdCount) when it is known.
///
/// Sparse mode: above kDenseIdLimit catalog ids the direct table stops
/// being an optimization — it grows to the largest id *referenced*,
/// and with hundreds of store instances across the cache plane the dense
/// waste alone would blow the scale-smoke RSS budget at 10^8 objects. In
/// sparse mode the same API runs over an open-addressing table of packed
/// (id, slot) entries (Fibonacci hashing, linear probing, backward-shift
/// deletion), sized by *resident* objects instead of the id space. The
/// dense fast path keeps exactly one predictable branch; SetIdCount picks
/// the mode from the id count while the index is empty, so a store's
/// stream of operations is wholly one mode or the other.
class SlotIndex {
 public:
  SlotId Get(trace::ObjectId id) const {
    if (!sparse_) return id < slots_.size() ? slots_[id] : kNoSlot;
    return SparseGet(id);
  }

  bool Contains(trace::ObjectId id) const { return Get(id) != kNoSlot; }

  void Set(trace::ObjectId id, SlotId slot) {
    if (sparse_) {
      SparseSet(id, slot);
      return;
    }
    if (id >= slots_.size()) {
      // Geometric growth keeps amortized cost O(1) for ids arriving in
      // ascending order, capped at the id count (id + 1 is the floor, so
      // an id beyond the count still fits); new entries start empty.
      size_t target = slots_.size() * 2;
      if (id_count_ != 0) target = std::min<uint64_t>(target, id_count_);
      slots_.resize(std::max<size_t>(target, size_t{id} + 1), kNoSlot);
    }
    slots_[id] = slot;
  }

  void Erase(trace::ObjectId id) {
    if (sparse_) {
      SparseErase(id);
      return;
    }
    if (id < slots_.size()) slots_[id] = kNoSlot;
  }

  /// Hints the CPU to pull the id's table entry into cache (read intent,
  /// low temporal locality). The replay loop issues this for the next
  /// request's probes one request ahead, hiding the dependent-load
  /// latency of the per-hop Contains chain. Purely advisory: no state
  /// changes, no effect on results. In sparse mode the id's home bucket
  /// is prefetched (linear probing keeps the chain on following lines).
  void Prefetch(trace::ObjectId id) const {
    if (!sparse_) {
      if (id < slots_.size()) __builtin_prefetch(&slots_[id], 0, 1);
    } else if (!buckets_.empty()) {
      __builtin_prefetch(&buckets_[Home(id)], 0, 1);
    }
  }

  /// Drops every mapping in O(1) (dense: the backing vector's size
  /// resets; capacity is retained so steady-state resets do not
  /// reallocate) or O(buckets) (sparse: refill with the empty sentinel,
  /// keeping capacity). The mode survives Clear.
  void Clear() {
    slots_.clear();
    if (sparse_) {
      std::fill(buckets_.begin(), buckets_.end(), kEmptyBucket);
      sparse_count_ = 0;
    }
  }

  /// Sizes the index for ids in [0, num_ids): sparse storage above
  /// kDenseIdLimit, else dense storage that grows no wider than num_ids.
  /// 0 (the default) is an unknown count: dense and uncapped. Only legal
  /// while the index holds no mappings — stores wire it through right
  /// after construction or Clear(), before any Set.
  void SetIdCount(uint64_t num_ids) {
    CASCACHE_CHECK(slots_.empty() && sparse_count_ == 0);
    id_count_ = num_ids;
    const bool sparse = num_ids > kDenseIdLimit;
    if (sparse_ == sparse) return;
    sparse_ = sparse;
    buckets_.clear();
    sparse_shift_ = 0;
  }

  bool sparse() const { return sparse_; }

  /// Number of id slots (dense) or hash buckets (sparse) the table
  /// currently spans (test/debug helper).
  size_t span() const { return sparse_ ? buckets_.size() : slots_.size(); }

 private:
  /// Packed bucket: id in the high 32 bits, slot in the low 32. A stored
  /// slot is never kNoSlot, so the all-ones sentinel cannot collide with
  /// a real entry (and id 0 / slot 0 packs to 0, distinct from it).
  static constexpr uint64_t kEmptyBucket = ~uint64_t{0};
  static constexpr size_t kInitialBuckets = 1024;

  /// Fibonacci hashing: multiply by 2^64/phi and keep the top bits — a
  /// strong-enough mix for sequential ids at one multiply.
  size_t Home(trace::ObjectId id) const {
    return static_cast<size_t>(
        (uint64_t{id} * 0x9E3779B97F4A7C15ULL) >> sparse_shift_);
  }

  SlotId SparseGet(trace::ObjectId id) const {
    if (buckets_.empty()) return kNoSlot;
    const size_t mask = buckets_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      const uint64_t b = buckets_[i];
      if (b == kEmptyBucket) return kNoSlot;
      if ((b >> 32) == id) return static_cast<SlotId>(b);
    }
  }

  void SparseSet(trace::ObjectId id, SlotId slot) {
    CASCACHE_DCHECK(slot != kNoSlot);
    // Grow at ~0.7 load, before probing, so insertion always terminates.
    if (buckets_.empty() ||
        (sparse_count_ + 1) * 10 >= buckets_.size() * 7) {
      GrowSparse(buckets_.empty() ? kInitialBuckets : buckets_.size() * 2);
    }
    const size_t mask = buckets_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      const uint64_t b = buckets_[i];
      if (b == kEmptyBucket) {
        buckets_[i] = (uint64_t{id} << 32) | slot;
        ++sparse_count_;
        return;
      }
      if ((b >> 32) == id) {
        buckets_[i] = (uint64_t{id} << 32) | slot;
        return;
      }
    }
  }

  void SparseErase(trace::ObjectId id) {
    if (buckets_.empty()) return;
    const size_t mask = buckets_.size() - 1;
    size_t i = Home(id);
    while (true) {
      const uint64_t b = buckets_[i];
      if (b == kEmptyBucket) return;  // Absent; nothing to erase.
      if ((b >> 32) == id) break;
      i = (i + 1) & mask;
    }
    // Backward-shift deletion: pull displaced entries over the hole so
    // probe chains never need tombstones. An entry at j may move into
    // the hole at i iff its home precedes or equals i along the probe
    // order, i.e. its displacement reaches past the hole.
    size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      const uint64_t b = buckets_[j];
      if (b == kEmptyBucket) break;
      const size_t home = Home(static_cast<trace::ObjectId>(b >> 32));
      if (((j - home) & mask) >= ((j - i) & mask)) {
        buckets_[i] = b;
        i = j;
      }
    }
    buckets_[i] = kEmptyBucket;
    --sparse_count_;
  }

  void GrowSparse(size_t new_buckets) {
    std::vector<uint64_t> old = std::move(buckets_);
    buckets_.assign(new_buckets, kEmptyBucket);
    sparse_shift_ = 64;
    for (size_t b = new_buckets; b > 1; b >>= 1) --sparse_shift_;
    const size_t mask = new_buckets - 1;
    for (const uint64_t entry : old) {
      if (entry == kEmptyBucket) continue;
      size_t i = Home(static_cast<trace::ObjectId>(entry >> 32));
      while (buckets_[i] != kEmptyBucket) i = (i + 1) & mask;
      buckets_[i] = entry;
    }
  }

  std::vector<SlotId> slots_;
  uint64_t id_count_ = 0;  ///< Catalog ids; 0 = unknown.

  bool sparse_ = false;
  std::vector<uint64_t> buckets_;  ///< Power-of-two size; kEmptyBucket = free.
  size_t sparse_count_ = 0;
  unsigned sparse_shift_ = 0;  ///< 64 - log2(buckets_.size()).
};

/// Fixed-chunk slot pool with a free list. Objects live in contiguous
/// chunks, so slot access is two array hops; chunks are never moved or
/// freed before Clear()/destruction, which makes `&pool.at(slot)` stable
/// across Alloc — callers (the cache node, schemes) may hold
/// ObjectDescriptor pointers across later insertions.
///
/// Alloc() returns a slot with *stale* contents; callers must fully
/// assign it. Clear() recycles every slot but keeps the chunks, so a
/// reset store re-fills warm memory.
template <typename T, size_t kChunkSize = 256>
class ChunkedSlotPool {
  static_assert((kChunkSize & (kChunkSize - 1)) == 0,
                "chunk size must be a power of two");

 public:
  SlotId Alloc() {
    if (!free_.empty()) {
      const SlotId slot = free_.back();
      free_.pop_back();
      return slot;
    }
    if (size_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    return static_cast<SlotId>(size_++);
  }

  void Free(SlotId slot) {
    CASCACHE_DCHECK(slot < size_);
    free_.push_back(slot);
  }

  T& at(SlotId slot) {
    CASCACHE_DCHECK(slot < size_);
    return chunks_[slot / kChunkSize][slot & (kChunkSize - 1)];
  }
  const T& at(SlotId slot) const {
    CASCACHE_DCHECK(slot < size_);
    return chunks_[slot / kChunkSize][slot & (kChunkSize - 1)];
  }

  /// Recycles all slots without releasing chunk memory.
  void Clear() {
    free_.clear();
    size_ = 0;
  }

  /// High-water slot count (allocated, including freed slots).
  size_t slot_span() const { return size_; }
  size_t free_count() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<SlotId> free_;
  size_t size_ = 0;
};

/// Flat id→value map over the dense ObjectId space: a SlotIndex plus
/// vector-backed value slots with a free list. Pointers returned by Find
/// are invalidated by later InsertOrAssign (vector growth); use
/// ChunkedSlotPool-based storage where stability matters. Replaces
/// incidental `unordered_map<ObjectId, T>` tables on the hot path (copy
/// freshness stamps).
template <typename T>
class FlatIdMap {
 public:
  T* Find(trace::ObjectId id) {
    const SlotId slot = index_.Get(id);
    return slot == kNoSlot ? nullptr : &values_[slot];
  }
  const T* Find(trace::ObjectId id) const {
    const SlotId slot = index_.Get(id);
    return slot == kNoSlot ? nullptr : &values_[slot];
  }

  bool Contains(trace::ObjectId id) const { return index_.Contains(id); }

  /// Advisory prefetch of the id's index entry (SlotIndex::Prefetch).
  void Prefetch(trace::ObjectId id) const { index_.Prefetch(id); }

  /// Returns the value slot for `id`, creating it if absent. The slot's
  /// previous contents are unspecified when newly created; assign it.
  T& InsertOrAssign(trace::ObjectId id) {
    SlotId slot = index_.Get(id);
    if (slot == kNoSlot) {
      if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
      } else {
        slot = static_cast<SlotId>(values_.size());
        values_.emplace_back();
      }
      index_.Set(id, slot);
      ++count_;
    }
    return values_[slot];
  }

  bool Erase(trace::ObjectId id) {
    const SlotId slot = index_.Get(id);
    if (slot == kNoSlot) return false;
    index_.Erase(id);
    free_.push_back(slot);
    --count_;
    return true;
  }

  void Clear() {
    index_.Clear();
    values_.clear();
    free_.clear();
    count_ = 0;
  }

  /// Sizes the id index for the catalog's id count (see
  /// SlotIndex::SetIdCount); the map must be empty.
  void SetIdCount(uint64_t num_ids) {
    CASCACHE_CHECK(count_ == 0);
    index_.SetIdCount(num_ids);
  }

  size_t size() const { return count_; }

 private:
  SlotIndex index_;
  std::vector<T> values_;
  std::vector<SlotId> free_;
  size_t count_ = 0;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_FLAT_STORE_H_
