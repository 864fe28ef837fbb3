#include "cache/dcache.h"

namespace cascache::cache {

DCache::DCache(size_t max_descriptors, DCachePolicy policy)
    : capacity_(max_descriptors), policy_(policy) {}

double DCache::PriorityOf(const ObjectDescriptor& desc) const {
  if (policy_ == DCachePolicy::kLfu) return desc.frequency;
  // LRU: most recent access time (0 if never accessed); the heap evicts
  // the minimum, i.e. the least recently accessed descriptor.
  return desc.num_accesses == 0 ? 0.0 : desc.KthMostRecentAccess(1);
}

ObjectDescriptor* DCache::Find(ObjectId id) {
  const SlotId slot = index_.Get(id);
  return slot == kNoSlot ? nullptr : &pool_.at(slot);
}

const ObjectDescriptor* DCache::Find(ObjectId id) const {
  const SlotId slot = index_.Get(id);
  return slot == kNoSlot ? nullptr : &pool_.at(slot);
}

ObjectDescriptor* DCache::Insert(ObjectId id, const ObjectDescriptor& desc) {
  if (capacity_ == 0) return nullptr;
  if (const SlotId slot = index_.Get(id); slot != kNoSlot) {
    ObjectDescriptor& stored = pool_.at(slot);
    stored = desc;
    heap_.Update(slot, PriorityOf(desc));
    return &stored;
  }
  if (count_ >= capacity_) {
    // Admission: do not displace a higher-priority descriptor.
    if (PriorityOf(desc) < heap_.Top().second) return nullptr;
    const SlotId victim_slot = heap_.Pop().first;
    index_.Erase(ids_[victim_slot]);
    pool_.Free(victim_slot);
    --count_;
  }
  const SlotId slot = pool_.Alloc();
  if (slot >= ids_.size()) ids_.resize(pool_.slot_span());
  ids_[slot] = id;
  ObjectDescriptor& stored = pool_.at(slot);
  stored = desc;
  index_.Set(id, slot);
  heap_.Push(slot, PriorityOf(desc));
  ++count_;
  return &stored;
}

void DCache::Refresh(ObjectId id, const ObjectDescriptor& desc) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return;
  heap_.Update(slot, PriorityOf(desc));
}

bool DCache::Erase(ObjectId id) {
  const SlotId slot = index_.Get(id);
  if (slot == kNoSlot) return false;
  index_.Erase(id);
  pool_.Free(slot);
  --count_;
  CASCACHE_CHECK(heap_.Erase(slot));
  return true;
}

void DCache::Clear() {
  pool_.Clear();
  index_.Clear();
  heap_.Clear();
  count_ = 0;
}

}  // namespace cascache::cache
