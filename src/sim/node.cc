#include "sim/node.h"

#include "util/check.h"

namespace cascache::sim {

namespace {

/// Reset() clears a store in place only when the replacement machinery it
/// configures is unchanged; capacity or d-cache shape changes rebuild.
bool SameStoreShape(const CacheNodeConfig& a, const CacheNodeConfig& b) {
  return a.mode == b.mode && a.capacity_bytes == b.capacity_bytes &&
         a.dcache_entries == b.dcache_entries &&
         a.dcache_policy == b.dcache_policy && a.catalog_ids == b.catalog_ids &&
         a.EffectiveRamCapacity() == b.EffectiveRamCapacity();
}

}  // namespace

CacheNode::CacheNode(topology::NodeId id, const CacheNodeConfig& config)
    : id_(id), estimator_(config.frequency) {
  Reset(config);
}

void CacheNode::Reset(const CacheNodeConfig& config) {
  const bool reuse = SameStoreShape(config_, config);
  config_ = config;
  estimator_ = cache::FrequencyEstimator(config.frequency);
  copy_stamps_.Clear();
  copy_stamps_.SetIdCount(config_.catalog_ids);
  if (reuse) {
    // Same store shape (the common case: crash cold-restarts re-apply the
    // active config): recycle the pooled slots and index tables in place
    // so the restarted cache re-fills warm memory.
    if (lru_ != nullptr) lru_->Clear();
    if (ram_ != nullptr) ram_->Clear();
    if (ncl_ != nullptr) ncl_->Clear();
    if (gds_ != nullptr) gds_->Clear();
    if (lfu_ != nullptr) lfu_->Clear();
    if (lru_ != nullptr || ncl_ != nullptr || gds_ != nullptr ||
        lfu_ != nullptr) {
      return;
    }
    // First Reset since construction: fall through and build the store.
  }
  lru_.reset();
  ram_.reset();
  ncl_.reset();
  gds_.reset();
  lfu_.reset();
  if (const uint64_t ram_capacity = config_.EffectiveRamCapacity();
      ram_capacity > 0) {
    ram_ = std::make_unique<cache::FlatLru>(ram_capacity);
    ram_->SetIdCount(config_.catalog_ids);
  }
  switch (config_.mode) {
    case CacheMode::kLru:
      lru_ = std::make_unique<cache::FlatLru>(config_.capacity_bytes);
      lru_->SetIdCount(config_.catalog_ids);
      break;
    case CacheMode::kGds:
      gds_ = std::make_unique<cache::GdsCache>(config_.capacity_bytes);
      gds_->SetIdCount(config_.catalog_ids);
      break;
    case CacheMode::kLfu:
      lfu_ = std::make_unique<cache::LfuCache>(config_.capacity_bytes);
      lfu_->SetIdCount(config_.catalog_ids);
      break;
    case CacheMode::kCost:
      ncl_ = std::make_unique<cache::NclCache>(config_.capacity_bytes,
                                               config_.dcache_entries,
                                               config_.dcache_policy);
      ncl_->SetIdCount(config_.catalog_ids);
      break;
  }
}

uint64_t CacheNode::used_bytes() const {
  if (lru_ != nullptr) return lru_->used_bytes();
  if (gds_ != nullptr) return gds_->used_bytes();
  if (lfu_ != nullptr) return lfu_->used_bytes();
  return ncl_->used_bytes();
}

size_t CacheNode::num_cached_objects() const {
  if (lru_ != nullptr) return lru_->num_objects();
  if (gds_ != nullptr) return gds_->num_objects();
  if (lfu_ != nullptr) return lfu_->num_objects();
  return ncl_->num_objects();
}

bool CacheNode::EraseObject(ObjectId id) {
  copy_stamps_.Erase(id);
  // Inclusion: the RAM copy may not outlive the disk copy.
  if (ram_ != nullptr) ram_->Erase(id);
  if (lru_ != nullptr) return lru_->Erase(id);
  if (gds_ != nullptr) return gds_->Erase(id);
  if (lfu_ != nullptr) return lfu_->Erase(id);
  // The store demotes the descriptor so the access history survives.
  return ncl_->Erase(id);
}

void CacheNode::StampCopy(ObjectId id, double fetch_time, uint32_t version) {
  copy_stamps_.InsertOrAssign(id) = CopyStamp{fetch_time, version};
}

const CacheNode::CopyStamp* CacheNode::FindCopy(ObjectId id) const {
  return copy_stamps_.Find(id);
}

CacheNode::TierServe CacheNode::ServeTiered(ObjectId id, uint64_t size) {
  CASCACHE_CHECK(ram_ != nullptr);
  TierServe result;
  if (ram_->Touch(id)) {
    result.ram_hit = true;
    return result;
  }
  // Disk serve: promote into the RAM tier. RAM victims keep their disk
  // copies (demotion loses only the fast path); an object larger than the
  // tier is rejected by InsertAbsent and stays disk-only.
  bool inserted = false;
  const std::vector<ObjectId>& evicted = ram_->InsertAbsent(id, size,
                                                            &inserted);
  result.promoted = inserted;
  result.demotions = static_cast<int>(evicted.size());
  return result;
}

int CacheNode::DropRamCopies(const std::vector<ObjectId>& victims) {
  CASCACHE_CHECK(ram_ != nullptr);
  int dropped = 0;
  for (ObjectId victim : victims) {
    if (ram_->Erase(victim)) ++dropped;
  }
  return dropped;
}

bool CacheNode::CheckInvariants() const {
  if (used_bytes() > config_.capacity_bytes) return false;
  if (ram_ != nullptr) {
    if (!ram_->CheckInvariants()) return false;
    if (ram_->capacity_bytes() != config_.EffectiveRamCapacity()) return false;
    // Inclusion: every RAM-resident object has a disk copy of equal size.
    bool included = true;
    ram_->ForEach([&](ObjectId id, uint64_t size) {
      if (!Contains(id)) included = false;
      (void)size;
    });
    if (!included) return false;
  }
  if (ncl_ == nullptr) return true;
  // The cached objects and their descriptors share NclCache slots, and
  // one index entry per id keeps them apart from the d-cache, so only
  // the sizes can disagree.
  bool ok = true;
  ncl_->ForEach([&](ObjectId, uint64_t size, const ObjectDescriptor& desc) {
    if (desc.size != size) ok = false;
  });
  return ok;
}

ObjectDescriptor* CacheNode::FindDescriptor(ObjectId id) {
  const cache::NclCache::Entry entry = Find(id);
  return entry.known() ? &ncl_->DescriptorAt(entry) : nullptr;
}

ObjectDescriptor* CacheNode::Access(cache::NclCache::Entry entry,
                                    double now) {
  ObjectDescriptor* desc = &ncl_->DescriptorAt(entry);
  estimator_.OnAccess(desc, now);
  if (entry.cached()) {
    RefreshLoss(entry, desc, now);
  } else {
    ncl_->RefreshDescriptor(entry);
  }
  return desc;
}

ObjectDescriptor* CacheNode::RecordAccess(ObjectId id, double now) {
  const cache::NclCache::Entry entry = Find(id);
  return entry.known() ? Access(entry, now) : nullptr;
}

bool CacheNode::RecordAccessOrAdmit(ObjectId id, uint64_t size, double now) {
  const cache::NclCache::Entry entry = Find(id);
  if (entry.known()) {
    Access(entry, now);
    return true;
  }
  if (ncl_ != nullptr) AdmitNew(id, size, now);
  return false;
}

ObjectDescriptor* CacheNode::AdmitDescriptor(ObjectId id, uint64_t size,
                                             double now) {
  const cache::NclCache::Entry entry = Find(id);
  CASCACHE_CHECK(!entry.cached());
  if (entry.known()) return &ncl_->DescriptorAt(entry);
  return ncl_ != nullptr ? AdmitNew(id, size, now) : nullptr;
}

ObjectDescriptor* CacheNode::AdmitNew(ObjectId id, uint64_t size,
                                      double now) {
  if (ncl_->dcache_capacity() == 0) return nullptr;
  ObjectDescriptor desc;
  desc.size = size;
  estimator_.OnAccess(&desc, now);  // Record the access that brought it in.
  return ncl_->AdmitDescriptor(id, desc);
}

void CacheNode::SetMissPenalty(cache::NclCache::Entry entry,
                               double miss_penalty, double now) {
  ObjectDescriptor* desc = &ncl_->DescriptorAt(entry);
  desc->miss_penalty = miss_penalty;
  if (entry.cached()) RefreshLoss(entry, desc, now);
}

void CacheNode::UpdateMissPenaltyOrAdmit(ObjectId id, uint64_t size,
                                         double miss_penalty, double now) {
  const cache::NclCache::Entry entry = Find(id);
  if (entry.known()) {
    SetMissPenalty(entry, miss_penalty, now);
  } else if (ncl_ != nullptr) {
    ObjectDescriptor* desc = AdmitNew(id, size, now);
    if (desc != nullptr) desc->miss_penalty = miss_penalty;
  }
}

void CacheNode::PlanEvictionInto(uint64_t size, double loss_limit,
                                 cache::NclCache::EvictionPlan* plan) const {
  CASCACHE_CHECK(ncl_ != nullptr);
  ncl_->PlanEvictionInto(size, loss_limit, plan);
}

bool CacheNode::InsertCost(ObjectId id, uint64_t size, double miss_penalty,
                           double now, std::vector<ObjectId>* evicted_out) {
  CASCACHE_CHECK(ncl_ != nullptr);
  if (evicted_out != nullptr) evicted_out->clear();
  const cache::NclCache::Entry entry = ncl_->Find(id);
  if (entry.cached()) {
    SetMissPenalty(entry, miss_penalty, now);
    return false;
  }
  if (size > config_.capacity_bytes) return false;

  // Promote (or create) the descriptor, preserving access history; the
  // store moves it out of the d-cache and demotes the victims' own.
  ObjectDescriptor desc =
      entry.known() ? ncl_->DescriptorAt(entry) : ObjectDescriptor();
  if (desc.num_accesses == 0) {
    estimator_.OnAccess(&desc, now);
  }
  desc.size = size;
  desc.miss_penalty = miss_penalty;
  const double frequency = estimator_.Estimate(&desc, now);
  const std::vector<ObjectId>& evicted =
      ncl_->InsertAbsent(id, entry, frequency * miss_penalty, desc);
  if (evicted_out != nullptr) *evicted_out = evicted;
  return true;
}

void CacheNode::RefreshLoss(ObjectId id, double now) {
  CASCACHE_CHECK(ncl_ != nullptr);
  const cache::NclCache::Entry entry = ncl_->Find(id);
  CASCACHE_CHECK_MSG(entry.cached(), "RefreshLoss on object not cached");
  RefreshLoss(entry, &ncl_->DescriptorAt(entry), now);
}

void CacheNode::RefreshLoss(cache::NclCache::Entry entry,
                            ObjectDescriptor* desc, double now) {
  const double frequency = estimator_.Estimate(desc, now);
  ncl_->UpdateLoss(entry, frequency * desc->miss_penalty);
}

}  // namespace cascache::sim
