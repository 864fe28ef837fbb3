#ifndef CASCACHE_CACHE_GDS_CACHE_H_
#define CASCACHE_CACHE_GDS_CACHE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/flat_store.h"
#include "trace/object_catalog.h"
#include "util/indexed_heap.h"

namespace cascache::cache {

using trace::ObjectId;

/// GreedyDual-Size store (Cao & Irani; popularity-aware variants by Jin &
/// Bestavros, cited by the paper as [8]). Each cached object carries a
/// credit H = L + cost/size, where L is the cache's inflation value; the
/// eviction victim is the minimum-H object and L is advanced to its H.
/// On a hit the object's H is refreshed with the current L. GDS is a
/// classic single-cache cost-aware replacement baseline: like LNC-R it
/// optimizes replacement only, so it serves as an extra comparator for
/// the coordinated scheme.
///
/// Entries live in chunked-pool slots (their sizes) behind a direct-index
/// id→slot table, ranked by a slot-keyed util::IndexedMinHeap on (H, id).
/// Ids are unique, so that is a total order: Pop yields exactly the victim
/// sequence of an ordered set over the same pairs, and the heap's copy of
/// H is the one credit the store keeps.
class GdsCache {
 public:
  explicit GdsCache(uint64_t capacity_bytes);

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Advisory cache-line prefetch of the Contains probe for `id` (see
  /// SlotIndex::Prefetch); used by the replay loop one request ahead.
  void PrefetchProbe(ObjectId id) const { index_.Prefetch(id); }

  /// Inserts with the given retrieval cost, evicting minimum-H objects as
  /// needed (advancing the inflation value L). `inserted` reports whether
  /// a write happened; objects above total capacity are rejected. If the
  /// object is present this refreshes H like a hit. The returned evicted
  /// ids are a reused internal scratch, valid until the next Insert.
  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size, double cost,
                                      bool* inserted = nullptr);

  /// Refreshes an object's credit on a hit: H = L + cost/size. No-op if
  /// absent; returns presence.
  bool OnHit(ObjectId id, double cost);

  bool Erase(ObjectId id);
  void Clear();

  /// Sizes the id index for the catalog's id count (SlotIndex::SetIdCount);
  /// the cache must be empty.
  void SetIdCount(uint64_t num_ids) { index_.SetIdCount(num_ids); }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_objects() const { return count_; }

  /// Current inflation value L (monotonically non-decreasing).
  double inflation() const { return inflation_; }

  /// Credit H of a cached object; the object must be present.
  double CreditOf(ObjectId id) const;

 private:
  /// Refreshes the credit of the cached `id` in `slot`, as on a hit:
  /// H = L + cost/size.
  void Refresh(ObjectId id, SlotId slot, double cost);

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  double inflation_ = 0.0;  ///< L.

  ChunkedSlotPool<uint64_t> sizes_;
  SlotIndex index_;
  std::vector<ObjectId> evicted_scratch_;

  /// Cached slots on ascending (H, id): the top is the victim.
  util::IndexedMinHeap<std::pair<double, ObjectId>> order_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_GDS_CACHE_H_
