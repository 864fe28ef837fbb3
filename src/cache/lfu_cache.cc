#include "cache/lfu_cache.h"

#include "util/check.h"

namespace cascache::cache {

LfuCache::LfuCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

uint64_t LfuCache::CountOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot != kNoSlot, "object not cached");
  return slots_.at(slot).count;
}

bool LfuCache::Touch(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  const uint64_t count = ++slots_.at(slot).count;
  heap_.Update(slot, static_cast<double>(count));
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
    const Slot& slot = slots_.at(victim_slot);
    const ObjectId victim = slot.id;
    used_ -= slot.size;
    index_.Erase(victim);
    slots_.Free(victim_slot);
    --count_;
    evicted_scratch_.push_back(victim);
  }
  const SlotId slot = slots_.Alloc();
  slots_.at(slot) = Slot{size, 1, id};
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
  used_ -= slots_.at(slot).size;
  index_.Erase(id);
  slots_.Free(slot);
  --count_;
  CASCACHE_CHECK(heap_.Erase(slot));
  return true;
}

void LfuCache::Clear() {
  // The pool keeps its chunks (see ChunkedSlotPool::Clear): a cleared
  // store re-fills its old slots without regrowing.
  slots_.Clear();
  index_.Clear();
  heap_.Clear();
  used_ = 0;
  count_ = 0;
}

}  // namespace cascache::cache
