#include "cache/ncl_cache.h"

#include "util/check.h"

namespace cascache::cache {

NclCache::NclCache(uint64_t capacity_bytes, size_t dcache_entries,
                   DCachePolicy dcache_policy)
    : capacity_(capacity_bytes),
      dcache_capacity_(dcache_entries),
      dcache_policy_(dcache_policy) {}

double NclCache::LossOf(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  CASCACHE_CHECK_MSG(slot < kDCacheTag, "object not cached");
  return slots_.at(slot).loss;
}

void NclCache::PlanEvictionInto(uint64_t need_bytes, double loss_limit,
                                EvictionPlan* plan) const {
  plan->Clear();
  const uint64_t free = capacity_ - used_;
  if (free >= need_bytes) {
    plan->feasible = true;
    return;
  }
  const uint64_t to_free = need_bytes - free;
  // Stays false if even evicting everything is not enough.
  order_.VisitAscending(&frontier_, [&](const auto& entry) {
    const Slot& slot = slots_.at(entry.first);
    plan->victims.push_back(entry.second.second);
    plan->cost_loss += slot.loss;
    plan->freed_bytes += slot.size;
    plan->feasible = plan->freed_bytes >= to_free;
    return !plan->feasible && !(plan->cost_loss > loss_limit);
  });
}

const std::vector<ObjectId>& NclCache::InsertAbsent(
    ObjectId id, Entry entry, double loss, const ObjectDescriptor& desc) {
  CASCACHE_DCHECK(!entry.cached() && entry.raw == index_.Get(id));
  evicted_scratch_.clear();
  if (entry.dcached()) {
    // Promotion: the descriptor leaves the d-cache before any victim is
    // demoted into it. The id's index entry is rewritten below.
    const SlotId dslot = entry.raw & ~kDCacheTag;
    CASCACHE_CHECK(dheap_.Erase(dslot));
    dpool_.Free(dslot);
    --dcount_;
  }
  PlanEvictionInto(desc.size, kNoLossLimit, &insert_plan_);
  CASCACHE_CHECK(insert_plan_.feasible);
  for (ObjectId victim : insert_plan_.victims) {
    Drop(victim, index_.Get(victim));
    evicted_scratch_.push_back(victim);
  }
  const SlotId slot_id = slots_.Alloc();
  CASCACHE_DCHECK(slot_id < kDCacheTag);
  Slot& slot = slots_.at(slot_id);
  slot.size = desc.size;
  slot.loss = loss;
  slot.desc = desc;
  order_.Push(slot_id, {loss / static_cast<double>(desc.size), id});
  index_.Set(id, slot_id);
  used_ += desc.size;
  ++count_;
  return evicted_scratch_;
}

const std::vector<ObjectId>& NclCache::Insert(ObjectId id, uint64_t size,
                                              double loss, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  evicted_scratch_.clear();
  CASCACHE_CHECK(size > 0);
  const Entry entry = Find(id);
  if (entry.cached()) {
    UpdateLoss(entry, loss);
    return evicted_scratch_;
  }
  if (size > capacity_) return evicted_scratch_;
  ObjectDescriptor desc = entry.known() ? DescriptorAt(entry)
                                        : ObjectDescriptor();
  desc.size = size;
  if (inserted != nullptr) *inserted = true;
  return InsertAbsent(id, entry, loss, desc);
}

void NclCache::UpdateLoss(Entry entry, double loss) {
  Slot& slot = slots_.at(entry.raw);
  const double size = static_cast<double>(slot.size);
  const double ncl = loss / size;
  // The order's key holds an NCL equal to slot.loss / size.
  const bool same_key = ncl == slot.loss / size;
  slot.loss = loss;
  if (same_key) return;  // Same key, same order.
  order_.Update(entry.raw, {ncl, order_.PriorityOf(entry.raw).second});
}

bool NclCache::UpdateLoss(ObjectId id, double loss) {
  const Entry entry = Find(id);
  if (!entry.cached()) return false;
  UpdateLoss(entry, loss);
  return true;
}

bool NclCache::Erase(ObjectId id) {
  const Entry entry = Find(id);
  if (!entry.cached()) return false;
  Drop(id, entry.raw);
  return true;
}

void NclCache::Drop(ObjectId id, SlotId slot_id) {
  const Slot& slot = slots_.at(slot_id);
  // Demote first: the d-cache's admission check runs while the object
  // still occupies its slot, and the descriptor is read in place.
  if (const SlotId dslot = DAdmit(id, slot.desc); dslot != kNoSlot) {
    index_.Set(id, dslot | kDCacheTag);
  } else {
    index_.Erase(id);
  }
  order_.Erase(slot_id);
  used_ -= slot.size;
  slots_.Free(slot_id);
  --count_;
}

void NclCache::Clear() {
  // The pools keep their chunks (see ChunkedSlotPool::Clear): a cleared
  // store re-fills its old slots without regrowing.
  slots_.Clear();
  index_.Clear();
  order_.Clear();
  used_ = 0;
  count_ = 0;
  dpool_.Clear();
  dheap_.Clear();
  dcount_ = 0;
}

std::vector<ObjectId> NclCache::IdsByNcl() const {
  std::vector<ObjectId> ids;
  ids.reserve(order_.size());
  order_.VisitAscending(&frontier_, [&](const auto& entry) {
    ids.push_back(entry.second.second);
    return true;
  });
  return ids;
}

ObjectDescriptor* NclCache::AdmitDescriptor(ObjectId id,
                                            const ObjectDescriptor& desc) {
  CASCACHE_DCHECK(!Find(id).known());
  const SlotId dslot = DAdmit(id, desc);
  if (dslot == kNoSlot) return nullptr;
  index_.Set(id, dslot | kDCacheTag);
  return &dpool_.at(dslot);
}

void NclCache::RefreshDescriptor(Entry entry) {
  CASCACHE_DCHECK(entry.dcached());
  const SlotId dslot = entry.raw & ~kDCacheTag;
  dheap_.Update(dslot, PriorityOf(dpool_.at(dslot)));
}

SlotId NclCache::DAdmit(ObjectId id, const ObjectDescriptor& desc) {
  if (dcache_capacity_ == 0) return kNoSlot;
  if (dcount_ >= dcache_capacity_) {
    // Admission: do not displace a higher-priority descriptor.
    if (PriorityOf(desc) < dheap_.Top().second) return kNoSlot;
    const SlotId victim = dheap_.Pop().first;
    index_.Erase(dids_[victim]);
    dpool_.Free(victim);
    --dcount_;
  }
  const SlotId dslot = dpool_.Alloc();
  CASCACHE_DCHECK((dslot | kDCacheTag) != kNoSlot);
  if (dslot >= dids_.size()) dids_.resize(dpool_.slot_span());
  dids_[dslot] = id;
  dpool_.at(dslot) = desc;
  dheap_.Push(dslot, PriorityOf(desc));
  ++dcount_;
  return dslot;
}

double NclCache::PriorityOf(const ObjectDescriptor& desc) const {
  if (dcache_policy_ == DCachePolicy::kLfu) return desc.frequency;
  // LRU: most recent access time (0 if never accessed); the heap evicts
  // the minimum, i.e. the least recently accessed descriptor.
  return desc.num_accesses == 0 ? 0.0 : desc.KthMostRecentAccess(1);
}

}  // namespace cascache::cache
