#ifndef CASCACHE_TESTS_TESTING_REF_CACHES_H_
#define CASCACHE_TESTS_TESTING_REF_CACHES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/descriptor.h"
#include "cache/flat_store.h"
#include "cache/frequency.h"
#include "cache/ncl_cache.h"
#include "trace/object_catalog.h"
#include "util/check.h"
#include "util/indexed_heap.h"

namespace cascache::testing {

using trace::ObjectId;

/// Reference LRU oracle: the historical `std::list` + `std::unordered_map`
/// LruCache implementation, verbatim, kept in the tests only. The flat
/// production store (cache::FlatLru) must stay behaviorally identical to
/// this — the differential test drives both through long random op
/// sequences and compares every observable.
class RefLruCache {
 public:
  explicit RefLruCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  bool Contains(ObjectId id) const { return index_.count(id) > 0; }

  bool Touch(ObjectId id) {
    auto it = index_.find(id);
    if (it == index_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  std::vector<ObjectId> Insert(ObjectId id, uint64_t size,
                               bool* inserted = nullptr) {
    if (inserted != nullptr) *inserted = false;
    std::vector<ObjectId> evicted;
    if (Touch(id)) return evicted;  // Already present.
    CASCACHE_CHECK(size > 0);
    if (size > capacity_) return evicted;  // Cannot ever fit.

    while (used_ + size > capacity_) {
      CASCACHE_CHECK(!order_.empty());
      const Entry victim = order_.back();
      order_.pop_back();
      index_.erase(victim.id);
      used_ -= victim.size;
      evicted.push_back(victim.id);
    }
    order_.push_front({id, size});
    index_[id] = order_.begin();
    used_ += size;
    if (inserted != nullptr) *inserted = true;
    return evicted;
  }

  bool Erase(ObjectId id) {
    auto it = index_.find(id);
    if (it == index_.end()) return false;
    used_ -= it->second->size;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void Clear() {
    order_.clear();
    index_.clear();
    used_ = 0;
  }

  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t used_bytes() const { return used_; }
  size_t num_objects() const { return index_.size(); }

  ObjectId LruVictim() const {
    CASCACHE_CHECK(!order_.empty());
    return order_.back().id;
  }

 private:
  struct Entry {
    ObjectId id;
    uint64_t size;
  };

  uint64_t capacity_;
  uint64_t used_ = 0;
  /// Front = most recently used, back = least recently used.
  std::list<Entry> order_;
  std::unordered_map<ObjectId, std::list<Entry>::iterator> index_;
};

/// Reference two-tier oracle: an inclusive RAM tier over a disk tier,
/// both plain list-based LRU. Mirrors the tiered CacheNode contract
/// (sim/node.h): the disk tier is the full-capacity store deciding
/// hit/miss; the RAM tier holds a subset of disk-resident objects;
/// serving a hit touches RAM or promotes the object into RAM
/// (promotion-on-hit, RAM victims demoted but keeping their disk copy);
/// a disk eviction drops the victim's RAM copy (demote-on-evict, the
/// inclusion invariant). The differential test drives this and a tiered
/// CacheNode through identical op sequences and compares every
/// observable.
class RefTieredCache {
 public:
  RefTieredCache(uint64_t disk_capacity_bytes, uint64_t ram_capacity_bytes)
      : disk_(disk_capacity_bytes), ram_(ram_capacity_bytes) {
    CASCACHE_CHECK(ram_capacity_bytes <= disk_capacity_bytes);
  }

  bool Contains(ObjectId id) const { return disk_.Contains(id); }
  bool RamResident(ObjectId id) const { return ram_.Contains(id); }

  struct TierServe {
    bool ram_hit = false;
    bool promoted = false;
    int demotions = 0;
  };

  /// Serves a disk-resident object through the tier stack. The caller is
  /// responsible for the disk store's own recency touch (as the scheme's
  /// OnServe is on the production node).
  TierServe ServeTiered(ObjectId id, uint64_t size) {
    CASCACHE_CHECK(disk_.Contains(id));
    TierServe result;
    if (ram_.Touch(id)) {
      result.ram_hit = true;
      return result;
    }
    bool inserted = false;
    const std::vector<ObjectId> demoted = ram_.Insert(id, size, &inserted);
    result.promoted = inserted;
    result.demotions = static_cast<int>(demoted.size());
    return result;
  }

  /// Places an object in the disk tier; disk victims lose their RAM copy.
  std::vector<ObjectId> Insert(ObjectId id, uint64_t size,
                               bool* inserted = nullptr) {
    const std::vector<ObjectId> evicted = disk_.Insert(id, size, inserted);
    for (ObjectId victim : evicted) ram_.Erase(victim);
    return evicted;
  }

  /// Coherency-style drop: both tiers lose the copy.
  bool Erase(ObjectId id) {
    ram_.Erase(id);
    return disk_.Erase(id);
  }

  void Clear() {
    disk_.Clear();
    ram_.Clear();
  }

  bool CheckInclusion() const {
    // The RefLruCache has no iteration; inclusion is asserted by the
    // differential test via per-object probes instead.
    return ram_.used_bytes() <= disk_.used_bytes();
  }

  const RefLruCache& disk() const { return disk_; }
  const RefLruCache& ram() const { return ram_; }
  RefLruCache& disk() { return disk_; }
  RefLruCache& ram() { return ram_; }

 private:
  RefLruCache disk_;
  RefLruCache ram_;
};

/// Reference heap oracle: the historical swap-sift util::IndexedMinHeap,
/// verbatim — every sift level swaps two entries and rewrites both
/// key→position entries. The production heap writes the moving entry
/// once, at its final position; it must leave exactly the same array
/// arrangement after every operation, because ties among equal
/// priorities (fresh d-cache descriptors all sit at f = 1.0) are broken
/// by that arrangement.
template <typename Priority = double>
class RefIndexedMinHeap {
 public:
  using Key = uint32_t;
  using Entry = std::pair<Key, Priority>;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  bool Contains(Key key) const { return Lookup(key) != kNpos; }

  /// Priority of an existing key. The key must be present.
  const Priority& PriorityOf(Key key) const {
    const size_t i = Lookup(key);
    CASCACHE_CHECK(i != kNpos);
    return entries_[i].second;
  }

  /// Inserts a new key. The key must not already be present.
  void Push(Key key, const Priority& priority) {
    CASCACHE_CHECK_MSG(!Contains(key), "duplicate key in RefIndexedMinHeap");
    entries_.emplace_back(key, priority);
    SetPos(key, entries_.size() - 1);
    SiftUp(entries_.size() - 1);
  }

  /// The minimum-priority entry. Heap must be non-empty.
  const Entry& Top() const {
    CASCACHE_CHECK(!entries_.empty());
    return entries_[0];
  }

  /// Removes and returns the minimum-priority entry.
  Entry Pop() {
    CASCACHE_CHECK(!entries_.empty());
    Entry top = entries_[0];
    RemoveAt(0);
    return top;
  }

  /// Changes the priority of an existing key.
  void Update(Key key, const Priority& priority) {
    const size_t i = Lookup(key);
    CASCACHE_CHECK(i != kNpos);
    const Priority old = entries_[i].second;
    entries_[i].second = priority;
    if (priority < old) {
      SiftUp(i);
    } else if (old < priority) {
      SiftDown(i);
    }
  }

  /// Inserts the key or updates its priority if already present.
  void Upsert(Key key, const Priority& priority) {
    if (Contains(key)) {
      Update(key, priority);
    } else {
      Push(key, priority);
    }
  }

  /// Removes a key; returns false if it was not present.
  bool Erase(Key key) {
    const size_t i = Lookup(key);
    if (i == kNpos) return false;
    RemoveAt(i);
    return true;
  }

  void Clear() {
    entries_.clear();
    pos_.clear();
  }

  /// Unordered view of all entries (heap order, not priority order).
  const std::vector<Entry>& entries() const { return entries_; }

  /// Visits entries in ascending priority order, without modifying the
  /// heap, until `fn(const Entry&)` returns false. A best-first walk over
  /// the heap array: `frontier` (caller-owned scratch, so a warm walk
  /// never allocates) holds the positions whose parents were visited,
  /// ordered as a min-heap on priority; by the heap property its minimum
  /// is the next entry in order. Visiting k entries costs O(k log k).
  template <typename Fn>
  void VisitAscending(std::vector<size_t>* frontier, Fn fn) const {
    const auto later = [this](size_t a, size_t b) {
      return entries_[b].second < entries_[a].second;
    };
    frontier->clear();
    if (!entries_.empty()) frontier->push_back(0);
    while (!frontier->empty()) {
      std::pop_heap(frontier->begin(), frontier->end(), later);
      const size_t i = frontier->back();
      frontier->pop_back();
      if (!fn(entries_[i])) return;
      for (size_t child = 2 * i + 1;
           child <= 2 * i + 2 && child < entries_.size(); ++child) {
        frontier->push_back(child);
        std::push_heap(frontier->begin(), frontier->end(), later);
      }
    }
  }

  /// Verifies the heap property and index map; used by tests.
  bool CheckInvariants() const {
    if (static_cast<size_t>(std::count_if(
            pos_.begin(), pos_.end(),
            [](size_t pos) { return pos != kNpos; })) != entries_.size()) {
      return false;
    }
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (Lookup(entries_[i].first) != i) return false;
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < entries_.size() && entries_[l].second < entries_[i].second)
        return false;
      if (r < entries_.size() && entries_[r].second < entries_[i].second)
        return false;
    }
    return true;
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  size_t Lookup(Key key) const {
    return key < pos_.size() ? pos_[key] : kNpos;
  }

  void SetPos(Key key, size_t pos) {
    if (key >= pos_.size()) {
      const size_t target =
          std::max<size_t>(static_cast<size_t>(key) + 1, pos_.size() * 2);
      pos_.resize(target, kNpos);
    }
    pos_[key] = pos;
  }

  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (entries_[parent].second <= entries_[i].second) break;
      SwapEntries(i, parent);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = entries_.size();
    for (;;) {
      const size_t l = 2 * i + 1, r = 2 * i + 2;
      size_t smallest = i;
      if (l < n && entries_[l].second < entries_[smallest].second)
        smallest = l;
      if (r < n && entries_[r].second < entries_[smallest].second)
        smallest = r;
      if (smallest == i) break;
      SwapEntries(i, smallest);
      i = smallest;
    }
  }

  void SwapEntries(size_t a, size_t b) {
    std::swap(entries_[a], entries_[b]);
    SetPos(entries_[a].first, a);
    SetPos(entries_[b].first, b);
  }

  void RemoveAt(size_t i) {
    const size_t last = entries_.size() - 1;
    pos_[entries_[i].first] = kNpos;
    if (i != last) {
      entries_[i] = entries_[last];
      SetPos(entries_[i].first, i);
      entries_.pop_back();
      // The moved element may need to go either direction.
      SiftDown(i);
      SiftUp(i);
    } else {
      entries_.pop_back();
    }
  }

  std::vector<Entry> entries_;
  std::vector<size_t> pos_;  ///< key → heap position (kNpos = absent).
};

/// Reference d-cache oracle: the historical `unordered_map` descriptor
/// store with an id-keyed eviction heap. The d-cache inside the
/// production NclCache (pooled descriptors, slot-keyed heap, entries
/// tagged in the store's one id index) must match it observably under
/// both policies.
class RefDCache {
 public:
  explicit RefDCache(size_t max_descriptors,
                     cache::DCachePolicy policy = cache::DCachePolicy::kLfu)
      : capacity_(max_descriptors), policy_(policy) {}

  cache::DCachePolicy policy() const { return policy_; }

  bool Contains(ObjectId id) const { return descriptors_.count(id) > 0; }

  cache::ObjectDescriptor* Find(ObjectId id) {
    auto it = descriptors_.find(id);
    return it == descriptors_.end() ? nullptr : &it->second;
  }

  cache::ObjectDescriptor* Insert(ObjectId id,
                                  const cache::ObjectDescriptor& desc) {
    if (capacity_ == 0) return nullptr;
    auto it = descriptors_.find(id);
    if (it != descriptors_.end()) {
      it->second = desc;
      heap_.Update(id, PriorityOf(desc));
      return &it->second;
    }
    if (descriptors_.size() >= capacity_) {
      // Admission: do not displace a higher-priority descriptor.
      if (PriorityOf(desc) < heap_.Top().second) return nullptr;
      const ObjectId victim = heap_.Pop().first;
      descriptors_.erase(victim);
    }
    auto [new_it, ok] = descriptors_.emplace(id, desc);
    CASCACHE_CHECK(ok);
    heap_.Push(id, PriorityOf(desc));
    return &new_it->second;
  }

  void Refresh(ObjectId id, const cache::ObjectDescriptor& desc) {
    if (!heap_.Contains(id)) return;
    heap_.Update(id, PriorityOf(desc));
  }

  bool Erase(ObjectId id) {
    if (descriptors_.erase(id) == 0) return false;
    CASCACHE_CHECK(heap_.Erase(id));
    return true;
  }

  void Clear() {
    descriptors_.clear();
    heap_.Clear();
  }

  size_t size() const { return descriptors_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  double PriorityOf(const cache::ObjectDescriptor& desc) const {
    if (policy_ == cache::DCachePolicy::kLfu) return desc.frequency;
    return desc.num_accesses == 0 ? 0.0 : desc.KthMostRecentAccess(1);
  }

  size_t capacity_;
  cache::DCachePolicy policy_;
  std::unordered_map<ObjectId, cache::ObjectDescriptor> descriptors_;
  util::IndexedMinHeap<> heap_;  ///< Keyed by id.
};

/// Reference NCL store oracle: the historical NclCache, verbatim — size,
/// loss and NCL in struct-of-arrays slots behind their own id→slot index,
/// and the (NCL, id) std::set reordered by erase + emplace on every loss
/// update. The production NclCache (descriptors in its slots, a
/// slot-keyed (NCL, id) heap walked best-first) must match it observably.
class RefNclCache {
 public:
  using EvictionPlan = cache::NclCache::EvictionPlan;

  explicit RefNclCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  double LossOf(ObjectId id) const {
    const cache::SlotId slot = index_.Get(id);
    CASCACHE_CHECK_MSG(slot != cache::kNoSlot, "object not cached");
    return losses_[slot];
  }

  void PlanEvictionInto(uint64_t need_bytes, EvictionPlan* plan) const {
    plan->Clear();
    const uint64_t free = capacity_ - used_;
    if (free >= need_bytes) {
      plan->feasible = true;
      return;
    }
    uint64_t to_free = need_bytes - free;
    for (const auto& [ncl, id] : order_) {
      const cache::SlotId slot = index_.Get(id);
      CASCACHE_DCHECK(slot != cache::kNoSlot);
      plan->victims.push_back(id);
      plan->cost_loss += losses_[slot];
      plan->freed_bytes += sizes_[slot];
      if (plan->freed_bytes >= to_free) {
        plan->feasible = true;
        return;
      }
    }
    // Even evicting everything is not enough.
    plan->feasible = false;
  }

  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size, double loss,
                                      bool* inserted = nullptr) {
    if (inserted != nullptr) *inserted = false;
    evicted_scratch_.clear();
    CASCACHE_CHECK(size > 0);
    if (Contains(id)) {
      UpdateLoss(id, loss);
      return evicted_scratch_;
    }
    if (size > capacity_) return evicted_scratch_;

    PlanEvictionInto(size, &insert_plan_);
    CASCACHE_CHECK(insert_plan_.feasible);
    for (ObjectId victim : insert_plan_.victims) {
      CASCACHE_CHECK(Erase(victim));
      evicted_scratch_.push_back(victim);
    }
    const cache::SlotId slot = AllocSlot();
    sizes_[slot] = size;
    losses_[slot] = loss;
    ncls_[slot] = loss / static_cast<double>(size);
    order_.emplace(ncls_[slot], id);
    index_.Set(id, slot);
    used_ += size;
    ++count_;
    if (inserted != nullptr) *inserted = true;
    return evicted_scratch_;
  }

  bool UpdateLoss(ObjectId id, double loss) {
    const cache::SlotId slot = index_.Get(id);
    if (slot == cache::kNoSlot) return false;
    order_.erase({ncls_[slot], id});
    losses_[slot] = loss;
    ncls_[slot] = loss / static_cast<double>(sizes_[slot]);
    order_.emplace(ncls_[slot], id);
    return true;
  }

  bool Erase(ObjectId id) {
    const cache::SlotId slot = index_.Get(id);
    if (slot == cache::kNoSlot) return false;
    order_.erase({ncls_[slot], id});
    used_ -= sizes_[slot];
    index_.Erase(id);
    free_.push_back(slot);
    --count_;
    return true;
  }

  void Clear() {
    free_.clear();
    free_.reserve(sizes_.size());
    for (cache::SlotId slot = static_cast<cache::SlotId>(sizes_.size());
         slot-- > 0;) {
      free_.push_back(slot);
    }
    index_.Clear();
    order_.clear();
    used_ = 0;
    count_ = 0;
  }

  uint64_t used_bytes() const { return used_; }
  size_t num_objects() const { return count_; }

  std::vector<ObjectId> IdsByNcl() const {
    std::vector<ObjectId> ids;
    ids.reserve(order_.size());
    for (const auto& [ncl, id] : order_) ids.push_back(id);
    return ids;
  }

 private:
  cache::SlotId AllocSlot() {
    if (!free_.empty()) {
      const cache::SlotId slot = free_.back();
      free_.pop_back();
      return slot;
    }
    const cache::SlotId slot = static_cast<cache::SlotId>(sizes_.size());
    sizes_.push_back(0);
    losses_.push_back(0.0);
    ncls_.push_back(0.0);
    return slot;
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  EvictionPlan insert_plan_;
  std::vector<ObjectId> evicted_scratch_;
  std::vector<uint64_t> sizes_;
  std::vector<double> losses_;  ///< f·m
  std::vector<double> ncls_;    ///< loss / size
  std::vector<cache::SlotId> free_;
  cache::SlotIndex index_;
  std::set<std::pair<double, ObjectId>> order_;
};

/// Reference cost-mode node oracle: the cost-mode orchestration of
/// sim::CacheNode as it stood with a separate d-cache. A RefNclCache
/// orders the cached objects, their descriptors sit in a hash map beside
/// it, and a RefDCache holds the descriptors of hot non-cached objects;
/// descriptors are copied between the two on promotion and demotion. The
/// production node (one id index, the d-cache inside NclCache) must match
/// it observably. A d-cache of capacity 0 stands for "no d-cache": it
/// finds nothing and admits nothing.
class RefCostNode {
 public:
  RefCostNode(uint64_t capacity_bytes, size_t dcache_entries,
              cache::DCachePolicy dcache_policy,
              const cache::FrequencyEstimatorParams& frequency = {})
      : capacity_(capacity_bytes),
        estimator_(frequency),
        ncl_(capacity_bytes),
        dcache_(dcache_entries, dcache_policy) {}

  bool Contains(ObjectId id) const { return ncl_.Contains(id); }

  cache::ObjectDescriptor* FindDescriptor(ObjectId id) {
    if (auto it = main_.find(id); it != main_.end()) return &it->second;
    return dcache_.Find(id);
  }

  cache::ObjectDescriptor* RecordAccess(ObjectId id, double now) {
    if (auto it = main_.find(id); it != main_.end()) {
      estimator_.OnAccess(&it->second, now);
      RefreshLoss(id, &it->second, now);
      return &it->second;
    }
    cache::ObjectDescriptor* desc = dcache_.Find(id);
    if (desc != nullptr) {
      estimator_.OnAccess(desc, now);
      dcache_.Refresh(id, *desc);
    }
    return desc;
  }

  bool RecordAccessOrAdmit(ObjectId id, uint64_t size, double now) {
    if (RecordAccess(id, now) != nullptr) return true;
    AdmitNew(id, size, now);
    return false;
  }

  cache::ObjectDescriptor* AdmitDescriptor(ObjectId id, uint64_t size,
                                           double now) {
    CASCACHE_CHECK(!Contains(id));
    if (cache::ObjectDescriptor* existing = dcache_.Find(id)) return existing;
    return AdmitNew(id, size, now);
  }

  void UpdateMissPenalty(ObjectId id, double miss_penalty, double now) {
    cache::ObjectDescriptor* desc = FindDescriptor(id);
    if (desc == nullptr) return;
    desc->miss_penalty = miss_penalty;
    if (Contains(id)) RefreshLoss(id, desc, now);
  }

  void UpdateMissPenaltyOrAdmit(ObjectId id, uint64_t size,
                                double miss_penalty, double now) {
    if (auto it = main_.find(id); it != main_.end()) {
      it->second.miss_penalty = miss_penalty;
      RefreshLoss(id, &it->second, now);
      return;
    }
    cache::ObjectDescriptor* desc = dcache_.Find(id);
    if (desc == nullptr) desc = AdmitNew(id, size, now);
    if (desc != nullptr) desc->miss_penalty = miss_penalty;
  }

  bool InsertCost(ObjectId id, uint64_t size, double miss_penalty, double now,
                  std::vector<ObjectId>* evicted_out) {
    evicted_out->clear();
    if (Contains(id)) {
      UpdateMissPenalty(id, miss_penalty, now);
      return false;
    }
    if (size > capacity_) return false;
    // Promote (or create) the descriptor, preserving access history.
    cache::ObjectDescriptor desc;
    if (cache::ObjectDescriptor* existing = dcache_.Find(id)) {
      desc = *existing;
      dcache_.Erase(id);
    }
    if (desc.num_accesses == 0) estimator_.OnAccess(&desc, now);
    desc.size = size;
    desc.miss_penalty = miss_penalty;
    const double loss = estimator_.Estimate(&desc, now) * miss_penalty;
    bool inserted = false;
    *evicted_out = ncl_.Insert(id, size, loss, &inserted);
    CASCACHE_CHECK(inserted);
    // Demote the victims' descriptors (admission may reject cold ones).
    for (ObjectId victim : *evicted_out) {
      dcache_.Insert(victim, main_.at(victim));
      main_.erase(victim);
    }
    main_[id] = desc;
    return true;
  }

  bool EraseObject(ObjectId id) {
    auto it = main_.find(id);
    if (it == main_.end()) return false;
    dcache_.Insert(id, it->second);
    main_.erase(it);
    ncl_.Erase(id);
    return true;
  }

  void Reset() {
    ncl_.Clear();
    main_.clear();
    dcache_.Clear();
  }

  std::vector<ObjectId> IdsByNcl() const { return ncl_.IdsByNcl(); }
  uint64_t used_bytes() const { return ncl_.used_bytes(); }
  size_t dcache_size() const { return dcache_.size(); }

 private:
  cache::ObjectDescriptor* AdmitNew(ObjectId id, uint64_t size, double now) {
    cache::ObjectDescriptor desc;
    desc.size = size;
    estimator_.OnAccess(&desc, now);
    return dcache_.Insert(id, desc);
  }

  void RefreshLoss(ObjectId id, cache::ObjectDescriptor* desc, double now) {
    ncl_.UpdateLoss(id, estimator_.Estimate(desc, now) * desc->miss_penalty);
  }

  uint64_t capacity_;
  cache::FrequencyEstimator estimator_;
  RefNclCache ncl_;
  std::unordered_map<ObjectId, cache::ObjectDescriptor> main_;
  RefDCache dcache_;
};

/// Reference GreedyDual-Size oracle: the historical GdsCache, verbatim —
/// (size, credit) in chunked-pool slots behind an id→slot index, and the
/// ascending (H, id) std::set re-keyed by erase + emplace on every credit
/// refresh. The production GdsCache (slot-keyed heap on (H, id)) must
/// match it observably: eviction order, inflation and every credit.
class RefGdsCache {
 public:
  explicit RefGdsCache(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  bool Contains(ObjectId id) const { return index_.Contains(id); }

  const std::vector<ObjectId>& Insert(ObjectId id, uint64_t size, double cost,
                                      bool* inserted = nullptr) {
    if (inserted != nullptr) *inserted = false;
    evicted_scratch_.clear();
    CASCACHE_CHECK(size > 0);
    CASCACHE_CHECK(cost >= 0.0);
    if (const cache::SlotId slot_id = index_.Get(id);
        slot_id != cache::kNoSlot) {
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
      const cache::SlotId victim_slot = index_.Get(victim);
      CASCACHE_DCHECK(victim_slot != cache::kNoSlot);
      used_ -= slots_.at(victim_slot).size;
      index_.Erase(victim);
      slots_.Free(victim_slot);
      --count_;
      evicted_scratch_.push_back(victim);
    }

    const cache::SlotId slot_id = slots_.Alloc();
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

  bool OnHit(ObjectId id, double cost) {
    const cache::SlotId slot_id = index_.Get(id);
    if (slot_id == cache::kNoSlot) return false;
    Slot& slot = slots_.at(slot_id);
    SetCredit(id, slot, inflation_ + cost / static_cast<double>(slot.size));
    return true;
  }

  bool Erase(ObjectId id) {
    const cache::SlotId slot_id = index_.Get(id);
    if (slot_id == cache::kNoSlot) return false;
    const Slot& slot = slots_.at(slot_id);
    order_.erase({slot.credit, id});
    used_ -= slot.size;
    index_.Erase(id);
    slots_.Free(slot_id);
    --count_;
    return true;
  }

  void Clear() {
    slots_.Clear();
    index_.Clear();
    order_.clear();
    used_ = 0;
    count_ = 0;
    inflation_ = 0.0;
  }

  uint64_t used_bytes() const { return used_; }
  size_t num_objects() const { return count_; }
  double inflation() const { return inflation_; }

  double CreditOf(ObjectId id) const {
    const cache::SlotId slot = index_.Get(id);
    CASCACHE_CHECK_MSG(slot != cache::kNoSlot, "object not cached");
    return slots_.at(slot).credit;
  }

 private:
  struct Slot {
    uint64_t size;
    double credit;  ///< H.
  };

  void SetCredit(ObjectId id, Slot& slot, double credit) {
    order_.erase({slot.credit, id});
    slot.credit = credit;
    order_.emplace(credit, id);
  }

  uint64_t capacity_;
  uint64_t used_ = 0;
  size_t count_ = 0;
  double inflation_ = 0.0;  ///< L.

  cache::ChunkedSlotPool<Slot> slots_;
  cache::SlotIndex index_;
  std::vector<ObjectId> evicted_scratch_;

  std::set<std::pair<double, ObjectId>> order_;  ///< Ascending (H, id).
};

}  // namespace cascache::testing

#endif  // CASCACHE_TESTS_TESTING_REF_CACHES_H_
