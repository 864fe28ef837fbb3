#ifndef CASCACHE_CACHE_LFU_CACHE_H_
#define CASCACHE_CACHE_LFU_CACHE_H_

#include <cstdint>
#include <vector>

#include "cache/flat_store.h"
#include "trace/object_catalog.h"
#include "util/indexed_heap.h"

namespace cascache::cache {

using trace::ObjectId;

/// In-cache perfect-LFU object store: each resident object carries a hit
/// counter; eviction removes the least-frequently-used object (ties
/// broken arbitrarily). Counts reset when an object re-enters after
/// eviction — the classic in-cache LFU the early web-caching studies
/// (Williams et al., cited as [19]) evaluated against LRU.
///
/// Entries live in chunked-pool slots (size, count, id) behind a
/// direct-index id→slot table; the eviction heap is keyed by slot (the
/// slot's id names the victim), so its position map spans resident
/// objects, not the catalog.
class LfuCache {
 public:
  explicit LfuCache(uint64_t capacity_bytes);

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Advisory cache-line prefetch of the Contains probe for `id` (see
  /// SlotIndex::Prefetch); used by the replay loop one request ahead.
  void PrefetchProbe(ObjectId id) const { index_.Prefetch(id); }

  /// Increments the hit counter; returns presence.
  bool Touch(ObjectId id);

  /// Inserts with an initial count of 1, evicting LFU objects as needed.
  /// A present object is only touched. Oversized objects are rejected.
  /// The returned evicted ids are a reused internal scratch, valid until
  /// the next Insert.
  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size,
                                      bool* inserted = nullptr);

  bool Erase(ObjectId id);
  void Clear();

  /// Sizes the id index for the catalog's id count (SlotIndex::SetIdCount);
  /// the cache must be empty.
  void SetIdCount(uint64_t num_ids) { index_.SetIdCount(num_ids); }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_objects() const { return count_; }

  /// Current hit count of a resident object; must be present.
  uint64_t CountOf(ObjectId id) const;

 private:
  struct Slot {
    uint64_t size;
    uint64_t count;
    ObjectId id;
  };

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;

  ChunkedSlotPool<Slot> slots_;
  SlotIndex index_;
  std::vector<ObjectId> evicted_scratch_;

  /// Min-heap of slots on count: top is the LFU victim.
  util::IndexedMinHeap<> heap_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_LFU_CACHE_H_
