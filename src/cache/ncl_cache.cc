#include "cache/ncl_cache.h"

#include "util/check.h"

namespace cascache::cache {

NclCache::NclCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

double NclCache::LossOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot != kNoSlot, "object not cached");
  return slots_.at(slot).loss;
}

NclCache::EvictionPlan NclCache::PlanEviction(uint64_t need_bytes) const {
  EvictionPlan plan;
  PlanEvictionInto(need_bytes, &plan);
  return plan;
}

void NclCache::PlanEvictionInto(uint64_t need_bytes,
                                EvictionPlan* plan) const {
  plan->Clear();
  const uint64_t free = capacity_ - used_;
  if (free >= need_bytes) {
    plan->feasible = true;
    return;
  }
  uint64_t to_free = need_bytes - free;
  for (const auto& [ncl, id] : order_) {
    const SlotId slot_id = index_.Get(id);
    CASCACHE_DCHECK(slot_id != kNoSlot);
    const Slot& slot = slots_.at(slot_id);
    plan->victims.push_back(id);
    plan->cost_loss += slot.loss;
    plan->freed_bytes += slot.size;
    if (plan->freed_bytes >= to_free) {
      plan->feasible = true;
      return;
    }
  }
  // Even evicting everything is not enough.
  plan->feasible = false;
}

const std::vector<ObjectId>& NclCache::Insert(ObjectId id, uint64_t size,
                                              double loss, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  evicted_slots_.clear();
  CASCACHE_CHECK(size > 0);
  if (Contains(id)) {
    UpdateLoss(id, loss);
    return evicted_scratch_;
  }
  if (size > capacity_) return evicted_scratch_;

  PlanEvictionInto(size, &insert_plan_);
  CASCACHE_CHECK(insert_plan_.feasible);
  for (ObjectId victim : insert_plan_.victims) {
    evicted_slots_.push_back(index_.Get(victim));
    CASCACHE_CHECK(Erase(victim));
    evicted_scratch_.push_back(victim);
  }
  const SlotId slot_id = slots_.Alloc();
  Slot& slot = slots_.at(slot_id);
  slot.size = size;
  slot.loss = loss;
  slot.order_pos =
      order_.emplace(loss / static_cast<double>(size), id).first;
  index_.Set(id, slot_id);
  used_ += size;
  ++count_;
  if (inserted != nullptr) *inserted = true;
  return evicted_scratch_;
}

bool NclCache::UpdateLoss(ObjectId id, double loss) {
  const SlotId slot_id = index_.Get(id);
  if (slot_id == kNoSlot) return false;
  Slot& slot = slots_.at(slot_id);
  slot.loss = loss;
  const double ncl = loss / static_cast<double>(slot.size);
  if (ncl == slot.order_pos->first) return true;  // Same key, same order.
  // Re-key the node in place: no tree search, no free/allocate.
  Order::node_type node = order_.extract(slot.order_pos);
  node.value().first = ncl;
  slot.order_pos = order_.insert(std::move(node)).position;
  return true;
}

bool NclCache::Erase(ObjectId id) {
  const SlotId slot_id = index_.Get(id);
  if (slot_id == kNoSlot) return false;
  const Slot& slot = slots_.at(slot_id);
  order_.erase(slot.order_pos);
  used_ -= slot.size;
  index_.Erase(id);
  slots_.Free(slot_id);
  --count_;
  return true;
}

void NclCache::Clear() {
  // The pool keeps its chunks (see ChunkedSlotPool::Clear): a cleared
  // store re-fills its old slots without regrowing.
  slots_.Clear();
  index_.Clear();
  order_.clear();
  used_ = 0;
  count_ = 0;
}

std::vector<ObjectId> NclCache::IdsByNcl() const {
  std::vector<ObjectId> ids;
  ids.reserve(order_.size());
  for (const auto& [ncl, id] : order_) ids.push_back(id);
  return ids;
}

}  // namespace cascache::cache
