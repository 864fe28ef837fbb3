#include "cache/gds_cache.h"

#include "util/check.h"

namespace cascache::cache {

GdsCache::GdsCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

double GdsCache::CreditOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot != kNoSlot, "object not cached");
  return slots_.at(slot).credit;
}

void GdsCache::SetCredit(ObjectId id, Slot& slot, double credit) {
  order_.erase({slot.credit, id});
  slot.credit = credit;
  order_.emplace(credit, id);
}

const std::vector<ObjectId>& GdsCache::Insert(ObjectId id, uint64_t size,
                                              double cost, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  CASCACHE_CHECK(size > 0);
  CASCACHE_CHECK(cost >= 0.0);
  if (const SlotId slot_id = index_.Get(id); slot_id != kNoSlot) {
    Slot& slot = slots_.at(slot_id);
    SetCredit(id, slot, inflation_ + cost / static_cast<double>(slot.size));
    return evicted_scratch_;
  }
  if (size > capacity_) return evicted_scratch_;

  while (used_ + size > capacity_) {
    CASCACHE_CHECK(!order_.empty());
    const auto [credit, victim] = *order_.begin();
    // Advance the inflation value to the evicted credit (the GDS rule).
    inflation_ = credit;
    order_.erase(order_.begin());
    const SlotId victim_slot = index_.Get(victim);
    CASCACHE_DCHECK(victim_slot != kNoSlot);
    used_ -= slots_.at(victim_slot).size;
    index_.Erase(victim);
    slots_.Free(victim_slot);
    --count_;
    evicted_scratch_.push_back(victim);
  }

  const SlotId slot_id = slots_.Alloc();
  Slot& slot = slots_.at(slot_id);
  slot.size = size;
  slot.credit = inflation_ + cost / static_cast<double>(size);
  order_.emplace(slot.credit, id);
  index_.Set(id, slot_id);
  used_ += size;
  ++count_;
  if (inserted != nullptr) *inserted = true;
  return evicted_scratch_;
}

bool GdsCache::OnHit(ObjectId id, double cost) {
  const SlotId slot_id = index_.Get(id);
  if (slot_id == kNoSlot) return false;
  Slot& slot = slots_.at(slot_id);
  SetCredit(id, slot, inflation_ + cost / static_cast<double>(slot.size));
  return true;
}

bool GdsCache::Erase(ObjectId id) {
  const SlotId slot_id = index_.Get(id);
  if (slot_id == kNoSlot) return false;
  const Slot& slot = slots_.at(slot_id);
  order_.erase({slot.credit, id});
  used_ -= slot.size;
  index_.Erase(id);
  slots_.Free(slot_id);
  --count_;
  return true;
}

void GdsCache::Clear() {
  // The pool keeps its chunks (see ChunkedSlotPool::Clear): a cleared
  // store re-fills its old slots without regrowing.
  slots_.Clear();
  index_.Clear();
  order_.clear();
  used_ = 0;
  count_ = 0;
  inflation_ = 0.0;
}

}  // namespace cascache::cache
