#ifndef CASCACHE_CACHE_DCACHE_H_
#define CASCACHE_CACHE_DCACHE_H_

#include <cstddef>
#include <vector>

#include "cache/descriptor.h"
#include "cache/flat_store.h"
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

/// Auxiliary descriptor cache (paper §2.4): holds descriptors of the most
/// frequently accessed objects *not* stored in the main cache, so the
/// coordinated scheme (and LNC-R) can evaluate cost savings for objects it
/// does not hold. Capacity is measured in descriptor count.
///
/// Descriptors live in a chunked slot pool indexed by a direct id→slot
/// table, so Find/Insert/Refresh are O(1) array hops with no hashing and
/// no per-descriptor allocation; chunks are stable, so returned
/// ObjectDescriptor pointers survive later insertions. The eviction heap
/// is keyed by pool slot, with a slot→id array naming the victim, so its
/// position map spans the d-cache capacity rather than the catalog: the
/// only per-catalog-id state is the 4-byte id→slot table.
class DCache {
 public:
  explicit DCache(size_t max_descriptors,
                  DCachePolicy policy = DCachePolicy::kLfu);

  DCachePolicy policy() const { return policy_; }

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  /// Mutable descriptor lookup; nullptr if absent.
  ObjectDescriptor* Find(ObjectId id);
  const ObjectDescriptor* Find(ObjectId id) const;

  /// Inserts (or overwrites) a descriptor, evicting the lowest-priority
  /// descriptor if full. Returns the stored descriptor, or nullptr when
  /// capacity is zero. When full, the insert is admission-checked: a new
  /// descriptor ranking below the current minimum is rejected rather than
  /// thrashing the coldest slot (under LRU the newcomer's recency always
  /// admits it).
  ObjectDescriptor* Insert(ObjectId id, const ObjectDescriptor& desc);

  /// Refreshes the eviction priority of a present descriptor from its
  /// current state (call after recording an access). No-op if absent.
  void Refresh(ObjectId id, const ObjectDescriptor& desc);

  bool Erase(ObjectId id);
  void Clear();

  /// Selects sparse id-index storage for huge sparse catalogs (see
  /// SlotIndex::SetSparse); the d-cache must be empty.
  void SetSparse(bool sparse) { index_.SetSparse(sparse); }

  size_t size() const { return count_; }
  size_t capacity() const { return capacity_; }

  /// High-water pool slot count (test/debug helper for pool-reuse
  /// assertions after Reset).
  size_t slot_span() const { return pool_.slot_span(); }

 private:
  double PriorityOf(const ObjectDescriptor& desc) const;

  size_t capacity_;
  DCachePolicy policy_;
  ChunkedSlotPool<ObjectDescriptor> pool_;
  SlotIndex index_;
  /// slot → id of the descriptor in it (names the heap's victim).
  std::vector<ObjectId> ids_;
  size_t count_ = 0;
  /// Min-heap of slots on priority: the top is the eviction victim.
  util::DenseIndexedMinHeap<SlotId> heap_;
};

}  // namespace cascache::cache

#endif  // CASCACHE_CACHE_DCACHE_H_
