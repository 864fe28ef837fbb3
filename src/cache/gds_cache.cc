#include "cache/gds_cache.h"

#include "util/check.h"

namespace cascache::cache {

GdsCache::GdsCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

double GdsCache::CreditOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot != kNoSlot, "object not cached");
  return order_.PriorityOf(slot).first;
}

void GdsCache::Refresh(ObjectId id, SlotId slot, double cost) {
  const double size = static_cast<double>(sizes_.at(slot));
  order_.Update(slot, {inflation_ + cost / size, id});
}

const std::vector<ObjectId>& GdsCache::Insert(ObjectId id, uint64_t size,
                                              double cost, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  CASCACHE_CHECK(size > 0);
  CASCACHE_CHECK(cost >= 0.0);
  if (const SlotId slot = index_.Get(id); slot != kNoSlot) {
    Refresh(id, slot, cost);
    return evicted_scratch_;
  }
  if (size > capacity_) return evicted_scratch_;

  while (used_ + size > capacity_) {
    CASCACHE_CHECK(!order_.empty());
    const auto [victim_slot, key] = order_.Pop();
    const auto [credit, victim] = key;
    // Advance the inflation value to the evicted credit (the GDS rule).
    inflation_ = credit;
    used_ -= sizes_.at(victim_slot);
    index_.Erase(victim);
    sizes_.Free(victim_slot);
    --count_;
    evicted_scratch_.push_back(victim);
  }

  const SlotId slot = sizes_.Alloc();
  sizes_.at(slot) = size;
  order_.Push(slot, {inflation_ + cost / static_cast<double>(size), id});
  index_.Set(id, slot);
  used_ += size;
  ++count_;
  if (inserted != nullptr) *inserted = true;
  return evicted_scratch_;
}

bool GdsCache::OnHit(ObjectId id, double cost) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  Refresh(id, slot, cost);
  return true;
}

bool GdsCache::Erase(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  order_.Erase(slot);
  used_ -= sizes_.at(slot);
  index_.Erase(id);
  sizes_.Free(slot);
  --count_;
  return true;
}

void GdsCache::Clear() {
  // The pool keeps its chunks (see ChunkedSlotPool::Clear): a cleared
  // store re-fills its old slots without regrowing.
  sizes_.Clear();
  index_.Clear();
  order_.Clear();
  used_ = 0;
  count_ = 0;
  inflation_ = 0.0;
}

}  // namespace cascache::cache
