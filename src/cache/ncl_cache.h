#ifndef CASCACHE_CACHE_NCL_CACHE_H_
#define CASCACHE_CACHE_NCL_CACHE_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "cache/descriptor.h"
#include "cache/flat_store.h"
#include "trace/object_catalog.h"

namespace cascache::cache {

using trace::ObjectId;

/// Cost-aware object store ordered by normalized cost loss, used by the
/// LNC-R baseline and the coordinated scheme. Each cached object carries a
/// cost loss f(O)·m(O) (the penalty of losing it); its *normalized* cost
/// loss (NCL) is f(O)·m(O)/s(O) (paper §2.1). Victims are selected
/// greedily in ascending NCL order until enough space is freed — the
/// paper's knapsack heuristic.
///
/// Each entry lives in one chunked-pool slot behind a direct-index id→slot
/// table: its size, loss, its position in the NCL order and the cached
/// object's descriptor (paper §2.3: the descriptor of a cached object is
/// kept with it). So a cost-mode node reads one id index to learn whether
/// an object is cached *and* where its descriptor is; chunk stability
/// keeps descriptor pointers valid across later insertions. Insert and
/// the standalone store leave a new slot's descriptor unspecified — the
/// owner (sim::CacheNode) writes it.
///
/// The ascending (NCL, id) order remains a std::set — the greedy scan
/// needs non-destructive in-order traversal, and keeping the exact same
/// comparator preserves bit-identical victim order. Each slot keeps its
/// set iterator, so Erase and UpdateLoss never search the tree, and
/// UpdateLoss re-keys the set node in place (extract + insert) instead of
/// freeing and allocating one.
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

  explicit NclCache(uint64_t capacity_bytes);

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Advisory cache-line prefetch of the Contains probe for `id` (see
  /// SlotIndex::Prefetch); used by the replay loop one request ahead.
  void PrefetchProbe(ObjectId id) const { index_.Prefetch(id); }

  /// Cost loss (f·m) currently recorded for a cached object.
  double LossOf(ObjectId id) const;

  /// Descriptor slot of a cached object; nullptr if absent. Stable until
  /// the object leaves the store.
  ObjectDescriptor* FindDescriptor(ObjectId id) {
    const SlotId slot = index_.Get(id);
    return slot == kNoSlot ? nullptr : &slots_.at(slot).desc;
  }

  /// Plans the greedy smallest-NCL-first eviction that frees at least
  /// `need_bytes` beyond current free space; does not modify the cache.
  /// If the cache already has `need_bytes` free, the plan is empty and
  /// feasible.
  EvictionPlan PlanEviction(uint64_t need_bytes) const;

  /// Allocation-free variant for the hot path (coordinated placement
  /// plans an eviction per candidate on every request ascent): fills a
  /// caller-owned plan, reusing its victims buffer.
  void PlanEvictionInto(uint64_t need_bytes, EvictionPlan* plan) const;

  /// Inserts an object, applying the greedy eviction as needed. Returns
  /// the evicted ids (a reused internal scratch, valid until the next
  /// Insert); `inserted` reports whether the object was stored (false if
  /// it exceeds total capacity or is already present).
  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size, double loss,
                                      bool* inserted = nullptr);

  /// The descriptor the i-th victim of the last Insert carried. Its slot
  /// is already free and the new object may reuse it, so this is valid
  /// only until the new object's descriptor is written.
  const ObjectDescriptor& EvictedDescriptor(size_t i) const {
    return slots_.at(evicted_slots_[i]).desc;
  }

  /// Updates the cost loss (and hence NCL priority) of a cached object;
  /// the order is only touched when the NCL value changes. No-op if
  /// absent; returns presence.
  bool UpdateLoss(ObjectId id, double loss);

  bool Erase(ObjectId id);
  void Clear();

  /// Selects the id-index storage mode (SlotIndex::SetSparse); the cache
  /// must be empty.
  void SetSparse(bool sparse) { index_.SetSparse(sparse); }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  uint64_t free_bytes() const { return capacity_ - used_; }
  size_t num_objects() const { return count_; }

  /// High-water slot count (test/debug helper).
  size_t slot_span() const { return slots_.slot_span(); }

  /// Ids of all cached objects in ascending NCL order (test/debug helper).
  std::vector<ObjectId> IdsByNcl() const;

  /// Visits every cached object in ascending NCL order; `fn` takes
  /// (ObjectId, uint64_t size, const ObjectDescriptor&). Invariant checks
  /// only — the hot path never iterates.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [ncl, id] : order_) {
      const Slot& slot = slots_.at(index_.Get(id));
      fn(id, slot.size, slot.desc);
    }
  }

 private:
  using Order = std::set<std::pair<double, ObjectId>>;

  struct Slot {
    uint64_t size;
    double loss;  ///< f·m
    Order::iterator order_pos;  ///< This entry's (NCL, id) node.
    ObjectDescriptor desc;
  };

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  /// Reused by Insert() so steady-state insertions do not allocate a
  /// fresh victims vector per call.
  EvictionPlan insert_plan_;
  std::vector<ObjectId> evicted_scratch_;
  std::vector<SlotId> evicted_slots_;  ///< Parallel to evicted_scratch_.

  ChunkedSlotPool<Slot> slots_;
  SlotIndex index_;

  /// Ascending (NCL, id) order; supports the greedy in-order scan that the
  /// heap alternative cannot provide without destructive pops.
  Order order_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_NCL_CACHE_H_
