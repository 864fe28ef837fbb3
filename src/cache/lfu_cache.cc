#include "cache/lfu_cache.h"

#include "util/check.h"

namespace cascache::cache {

LfuCache::LfuCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

SlotId LfuCache::AllocSlot() {
  if (!free_.empty()) {
    const SlotId slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const SlotId slot = static_cast<SlotId>(sizes_.size());
  sizes_.push_back(0);
  counts_.push_back(0);
  ids_.push_back(0);
  return slot;
}

uint64_t LfuCache::CountOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot != kNoSlot, "object not cached");
  return counts_[slot];
}

bool LfuCache::Touch(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  ++counts_[slot];
  heap_.Update(slot, static_cast<double>(counts_[slot]));
  return true;
}

const std::vector<ObjectId>& LfuCache::Insert(ObjectId id, uint64_t size,
                                              bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  if (Touch(id)) return evicted_scratch_;
  CASCACHE_CHECK(size > 0);
  if (size > capacity_) return evicted_scratch_;

  while (used_ + size > capacity_) {
    CASCACHE_CHECK(!heap_.empty());
    const SlotId victim_slot = heap_.Pop().first;
    const ObjectId victim = ids_[victim_slot];
    used_ -= sizes_[victim_slot];
    index_.Erase(victim);
    free_.push_back(victim_slot);
    --count_;
    evicted_scratch_.push_back(victim);
  }
  const SlotId slot = AllocSlot();
  sizes_[slot] = size;
  counts_[slot] = 1;
  ids_[slot] = id;
  index_.Set(id, slot);
  heap_.Push(slot, 1.0);
  used_ += size;
  ++count_;
  if (inserted != nullptr) *inserted = true;
  return evicted_scratch_;
}

bool LfuCache::Erase(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  used_ -= sizes_[slot];
  index_.Erase(id);
  free_.push_back(slot);
  --count_;
  CASCACHE_CHECK(heap_.Erase(slot));
  return true;
}

void LfuCache::Clear() {
  // Return every slot to the free list instead of shrinking the arrays
  // (see FlatLru::Clear): a cleared store re-fills its old slots without
  // regrowing.
  free_.clear();
  free_.reserve(sizes_.size());
  for (SlotId slot = static_cast<SlotId>(sizes_.size()); slot-- > 0;) {
    free_.push_back(slot);
  }
  index_.Clear();
  heap_.Clear();
  used_ = 0;
  count_ = 0;
}

}  // namespace cascache::cache
