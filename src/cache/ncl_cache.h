#ifndef CASCACHE_CACHE_NCL_CACHE_H_
#define CASCACHE_CACHE_NCL_CACHE_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "cache/descriptor.h"
#include "cache/flat_store.h"
#include "trace/object_catalog.h"
#include "util/indexed_heap.h"

namespace cascache::cache {

using trace::ObjectId;

/// Replacement policy for descriptors in the d-cache. The paper proposes
/// "simple LFU replacement" (§2.4) but also notes the descriptors "can be
/// organized into one or more LRU stacks" when frequencies come from a
/// sliding window; both are supported.
enum class DCachePolicy {
  kLfu,  ///< Evict the lowest-frequency descriptor (paper default).
  kLru,  ///< Evict the least-recently-accessed descriptor.
};

/// Cost-aware object store ordered by normalized cost loss, used by the
/// LNC-R baseline and the coordinated scheme, together with the d-cache
/// of descriptors of hot objects it does not hold. Each cached object
/// carries a cost loss f(O)·m(O) (the penalty of losing it); its
/// *normalized* cost loss (NCL) is f(O)·m(O)/s(O) (paper §2.1). Victims
/// are selected greedily in ascending NCL order until enough space is
/// freed — the paper's knapsack heuristic.
///
/// A node knows each object through exactly one descriptor (paper
/// §2.3-2.4): kept with the object if it is cached, or in the d-cache if
/// it is hot but not cached. So one direct-index id→slot table serves
/// both: an entry is a cached slot, or a d-cache slot tagged with
/// kDCacheTag (the top SlotId bit). Contains is one load and one compare,
/// and every descriptor operation reads the index once.
///
/// A cached object lives in one chunked-pool slot: its size, loss and
/// descriptor. A d-cache descriptor lives in a second pool of bare
/// descriptors (they outnumber cached objects up to 3:1, so they do not
/// pay for the NCL fields), ranked by a slot-keyed eviction heap with a
/// slot→id array naming the victim. Chunk stability keeps descriptor
/// pointers valid across later insertions.
///
/// The ascending NCL order is a slot-keyed util::IndexedMinHeap on
/// (NCL, id). Ids are unique, so that is a total order: the greedy plan
/// walks it best-first (VisitAscending) and reads each victim's id from
/// its key, and the victims come in exactly the order of an ordered set
/// over the same pairs. Erase and UpdateLoss reach the entry by slot, and no
/// operation allocates once the heap's arrays are warm.
class NclCache {
 public:
  /// Greedy eviction preview: which objects would be purged to free
  /// `need` bytes, and the total cost loss l = sum of their f·m values.
  struct EvictionPlan {
    std::vector<ObjectId> victims;
    double cost_loss = 0.0;
    uint64_t freed_bytes = 0;
    bool feasible = false;  ///< True if enough bytes can be freed.

    /// Resets to the empty plan, keeping the victims allocation.
    void Clear() {
      victims.clear();
      cost_loss = 0.0;
      freed_bytes = 0;
      feasible = false;
    }
  };

  /// Tag bit of a d-cache slot in the id index.
  static constexpr SlotId kDCacheTag = SlotId{1} << 31;

  /// An id's index entry, read once and handed back to the operations
  /// below: unknown, a cached object's slot, or a d-cache slot.
  struct Entry {
    SlotId raw;
    bool known() const { return raw != kNoSlot; }
    bool cached() const { return raw < kDCacheTag; }
    bool dcached() const { return known() && !cached(); }
  };

  /// `dcache_entries` is the d-cache capacity in descriptors; 0 disables
  /// the d-cache.
  explicit NclCache(uint64_t capacity_bytes, size_t dcache_entries = 0,
                    DCachePolicy dcache_policy = DCachePolicy::kLfu);

  bool Contains(ObjectId id) const { return index_.Get(id) < kDCacheTag; }

  /// Advisory cache-line prefetch of the Contains probe for `id` (see
  /// SlotIndex::Prefetch); used by the replay loop one request ahead.
  void PrefetchProbe(ObjectId id) const { index_.Prefetch(id); }

  Entry Find(ObjectId id) const { return Entry{index_.Get(id)}; }

  /// Second-stage advisory prefetch for `id`, issued after PrefetchProbe
  /// has made its index entry resident: reads the entry and pulls in the
  /// lines the next operation on the id writes. A cached object's slot
  /// and NCL-heap position; a d-cached descriptor and its d-heap
  /// position; for an unknown id with a full d-cache, the admission
  /// victim's id, descriptor and heap position. No state changes.
  void PrefetchEntry(ObjectId id) const {
    const Entry entry = Find(id);
    if (entry.cached()) {
      __builtin_prefetch(&slots_.at(entry.raw), 1, 1);
      order_.PrefetchPosition(entry.raw);
    } else if (entry.known()) {
      const SlotId dslot = entry.raw & ~kDCacheTag;
      __builtin_prefetch(&dpool_.at(dslot), 1, 1);
      dheap_.PrefetchPosition(dslot);
    } else if (dcount_ != 0 && dcount_ >= dcache_capacity_) {
      const SlotId victim = dheap_.Top().first;
      __builtin_prefetch(&dids_[victim], 0, 1);
      __builtin_prefetch(&dpool_.at(victim), 1, 1);
      dheap_.PrefetchPosition(victim);
    }
  }

  /// The descriptor behind a known entry. Stable until the object leaves
  /// the store or moves between the cache and the d-cache.
  ObjectDescriptor& DescriptorAt(Entry entry) {
    return entry.cached() ? slots_.at(entry.raw).desc
                          : dpool_.at(entry.raw & ~kDCacheTag);
  }

  /// The object's descriptor, cached or d-cached; nullptr if unknown.
  ObjectDescriptor* FindDescriptor(ObjectId id) {
    const Entry entry = Find(id);
    return entry.known() ? &DescriptorAt(entry) : nullptr;
  }

  /// Cost loss (f·m) currently recorded for a cached object.
  double LossOf(ObjectId id) const;

  /// A loss limit that never stops the walk.
  static constexpr double kNoLossLimit =
      std::numeric_limits<double>::infinity();

  /// Plans the greedy smallest-NCL-first eviction that frees at least
  /// `need_bytes` beyond current free space, into a caller-owned plan
  /// (reusing its victims buffer: coordinated placement plans an
  /// eviction per candidate on every request ascent); does not modify
  /// the cache. If the cache already has `need_bytes` free, the plan is
  /// empty and feasible. The walk also stops once `cost_loss` exceeds
  /// `loss_limit` (the ascent's Theorem-2 bound; kNoLossLimit to plan the
  /// whole eviction): the plan then holds the victims and loss so far
  /// and is not feasible.
  void PlanEvictionInto(uint64_t need_bytes, double loss_limit,
                        EvictionPlan* plan) const;

  /// Stores an object that is not cached (`entry` is Find(id)) with
  /// descriptor `desc`, of size desc.size <= capacity. A d-cached
  /// descriptor leaves the d-cache first (the caller promotes it through
  /// `desc`); then the greedy eviction runs and each victim's descriptor
  /// is demoted to the d-cache, admission-checked, in eviction order.
  /// Returns the evicted ids (a reused internal scratch, valid until the
  /// next insertion).
  const std::vector<ObjectId>& InsertAbsent(ObjectId id, Entry entry,
                                            double loss,
                                            const ObjectDescriptor& desc);

  /// Store-level insertion: a cached object only has its loss updated;
  /// otherwise the object is stored with the descriptor the d-cache held
  /// for it, or a fresh one, sized `size`. `inserted` reports whether
  /// the object was stored (false if it exceeds total capacity or is
  /// already present).
  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size, double loss,
                                      bool* inserted = nullptr);

  /// Updates the cost loss (and hence NCL priority) of a cached entry;
  /// the order is only touched when the NCL value changes.
  void UpdateLoss(Entry entry, double loss);
  /// UpdateLoss by id. No-op if not cached; returns presence.
  bool UpdateLoss(ObjectId id, double loss);

  /// Drops a cached object, demoting its descriptor to the d-cache
  /// (admission-checked) so its access history survives. Returns false
  /// if the object was not cached; a d-cached descriptor stays.
  bool Erase(ObjectId id);
  /// Drops every cached object and descriptor.
  void Clear();

  /// Sizes the id index for the catalog's id count (SlotIndex::SetIdCount);
  /// the cache must be empty.
  void SetIdCount(uint64_t num_ids) { index_.SetIdCount(num_ids); }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  uint64_t free_bytes() const { return capacity_ - used_; }
  size_t num_objects() const { return count_; }

  /// High-water slot count (test/debug helper).
  size_t slot_span() const { return slots_.slot_span(); }

  /// Ids of all cached objects in ascending NCL order (test/debug helper).
  std::vector<ObjectId> IdsByNcl() const;

  /// Visits every cached object, in no particular order; `fn` takes
  /// (ObjectId, uint64_t size, const ObjectDescriptor&). Invariant checks
  /// only — the hot path never iterates.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [slot_id, key] : order_.entries()) {
      const Slot& slot = slots_.at(slot_id);
      fn(key.second, slot.size, slot.desc);
    }
  }

  // --- d-cache (paper §2.4) -------------------------------------------------

  /// Admits a descriptor for an object the store does not know. Returns
  /// the stored descriptor, or nullptr when the d-cache is disabled or
  /// full of descriptors that all rank above it (admission: a newcomer
  /// below the current minimum does not displace it; under LRU the
  /// newcomer's recency always admits it).
  ObjectDescriptor* AdmitDescriptor(ObjectId id, const ObjectDescriptor& desc);

  /// Re-ranks a d-cached entry from its descriptor's current state (call
  /// after recording an access on it).
  void RefreshDescriptor(Entry entry);

  size_t dcache_size() const { return dcount_; }
  size_t dcache_capacity() const { return dcache_capacity_; }
  DCachePolicy dcache_policy() const { return dcache_policy_; }

 private:
  struct Slot {
    uint64_t size;
    double loss;  ///< f·m
    ObjectDescriptor desc;
  };

  /// Removes the cached object in `slot`, demoting its descriptor.
  void Drop(ObjectId id, SlotId slot);
  /// Stores `desc` for `id` in the d-cache (evicting the minimum when
  /// full); kNoSlot if disabled or rejected. Leaves `id`'s index entry
  /// to the caller.
  SlotId DAdmit(ObjectId id, const ObjectDescriptor& desc);
  double PriorityOf(const ObjectDescriptor& desc) const;

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  /// Reused by insertions so steady-state insertions do not allocate a
  /// fresh victims vector per call.
  EvictionPlan insert_plan_;
  std::vector<ObjectId> evicted_scratch_;

  ChunkedSlotPool<Slot> slots_;
  /// The one id index: cached slots and tagged d-cache slots.
  SlotIndex index_;

  /// Cached slots on ascending (NCL, id): the greedy eviction order.
  util::IndexedMinHeap<std::pair<double, ObjectId>> order_;
  /// Scratch of the greedy walk (VisitAscending's frontier).
  mutable std::vector<size_t> frontier_;

  size_t dcache_capacity_;
  DCachePolicy dcache_policy_;
  size_t dcount_ = 0;
  ChunkedSlotPool<ObjectDescriptor> dpool_;
  /// d-cache slot → id of the descriptor in it (names the heap's victim).
  std::vector<ObjectId> dids_;
  /// Min-heap of d-cache slots on priority: the top is the victim.
  util::IndexedMinHeap<> dheap_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_NCL_CACHE_H_
