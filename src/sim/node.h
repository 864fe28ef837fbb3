#ifndef CASCACHE_SIM_NODE_H_
#define CASCACHE_SIM_NODE_H_

#include <memory>
#include <vector>

#include "cache/descriptor.h"
#include "cache/flat_lru.h"
#include "cache/flat_store.h"
#include "cache/frequency.h"
#include "cache/gds_cache.h"
#include "cache/lfu_cache.h"
#include "cache/ncl_cache.h"
#include "topology/graph.h"
#include "util/check.h"

namespace cascache::sim {

using cache::ObjectDescriptor;
using trace::ObjectId;

/// Replacement machinery a node runs. kLru backs the LRU and MODULO
/// baselines (no descriptors); kCost backs LNC-R and the coordinated
/// scheme (NCL-ordered store + descriptor bookkeeping + optional d-cache);
/// kGds and kLfu back the extra single-cache replacement baselines
/// (GreedyDual-Size and perfect in-cache LFU).
enum class CacheMode { kLru, kCost, kGds, kLfu };

struct CacheNodeConfig {
  CacheMode mode = CacheMode::kLru;
  uint64_t capacity_bytes = 0;
  /// d-cache capacity in descriptors; 0 disables the d-cache.
  size_t dcache_entries = 0;
  /// d-cache replacement (paper §2.4 default: LFU).
  cache::DCachePolicy dcache_policy = cache::DCachePolicy::kLfu;
  /// The catalog's id count, which sizes every id→slot index
  /// (cache::SlotIndex::SetIdCount): hashed tables for huge procedural
  /// catalogs (e.g. 10^8 objects), where a dense table per store would
  /// dwarf the cached data, else dense tables no wider than the catalog.
  /// 0 = unknown (dense, grown to the largest id seen). The simulator
  /// sets it from the catalog.
  uint64_t catalog_ids = 0;
  /// Two-tier node (Traffic Server's RAM-cache-over-disk design): a small
  /// fast RAM tier in front of the mode store, sized as this fraction of
  /// `capacity_bytes`. 0 disables the tier (single-store node, today's
  /// behavior). The RAM tier is strictly inclusive — every RAM-resident
  /// object also lives in the disk (mode) store, so hit/miss decisions
  /// and byte-hit ratios are unchanged; only the serving tier (and hence
  /// service cost) differs.
  double ram_fraction = 0.0;
  /// Absolute RAM-tier capacity in bytes; overrides `ram_fraction` when
  /// non-zero.
  uint64_t ram_capacity_bytes = 0;
  cache::FrequencyEstimatorParams frequency;

  /// RAM-tier capacity this config resolves to (0 = untiered).
  uint64_t EffectiveRamCapacity() const {
    if (ram_capacity_bytes > 0) return ram_capacity_bytes;
    if (ram_fraction <= 0.0) return 0;
    return static_cast<uint64_t>(ram_fraction *
                                 static_cast<double>(capacity_bytes));
  }
};

/// A cache attached to one network node. Owns the object store and, in
/// cost mode, every descriptor the node knows: those of cached objects and
/// the d-cache holding descriptors of hot non-cached objects (paper
/// §2.3-2.4), both behind the NclCache's one id index. Schemes drive it
/// through the mode-specific methods below; the simulator only queries
/// Contains().
///
/// All stores are flat (struct-of-arrays slot pools + direct-index
/// id→slot tables over the closed catalog); Reset() recycles pooled
/// slots in place when the configuration is unchanged (crash cold
/// restarts re-fill warm memory) and is required to leave no stale index
/// entries behind.
class CacheNode {
 public:
  CacheNode(topology::NodeId id, const CacheNodeConfig& config);

  topology::NodeId id() const { return id_; }
  CacheMode mode() const { return config_.mode; }
  /// Active configuration; a cold restart (fault plane) re-applies it.
  const CacheNodeConfig& config() const { return config_; }
  uint64_t capacity_bytes() const { return config_.capacity_bytes; }
  const cache::FrequencyEstimator& estimator() const { return estimator_; }

  /// Whether the object is stored in the main cache (any mode). Inline:
  /// this is the per-hop probe of the replay ascent, the hottest call in
  /// the simulator.
  bool Contains(ObjectId id) const {
    if (lru_ != nullptr) return lru_->Contains(id);
    if (gds_ != nullptr) return gds_->Contains(id);
    if (lfu_ != nullptr) return lfu_->Contains(id);
    return ncl_->Contains(id);
  }

  /// Advisory prefetch of the Contains() probe line for `id` (see
  /// SlotIndex::Prefetch). The replay loop issues these for the next
  /// request's path one request ahead; no state changes.
  void PrefetchProbe(ObjectId id) const {
    if (lru_ != nullptr) {
      lru_->PrefetchProbe(id);
    } else if (gds_ != nullptr) {
      gds_->PrefetchProbe(id);
    } else if (lfu_ != nullptr) {
      lfu_->PrefetchProbe(id);
    } else {
      ncl_->PrefetchProbe(id);
    }
  }

  /// Second-stage advisory prefetch, after PrefetchProbe's line has
  /// arrived: the cost-mode store's entry-dependent lines for `id` (see
  /// NclCache::PrefetchEntry); no-op in the other modes.
  void PrefetchEntry(ObjectId id) const {
    if (ncl_ != nullptr) ncl_->PrefetchEntry(id);
  }

  /// Advisory prefetch of the RAM tier's index entry for `id`, the
  /// tiered serve's first read; no-op on an untiered node.
  void PrefetchRamProbe(ObjectId id) const {
    if (ram_ != nullptr) ram_->PrefetchProbe(id);
  }

  /// Second-stage advisory prefetch, after the probes' lines have
  /// arrived: the list links a hit's Touch rewrites in the LRU store and
  /// the RAM tier (FlatLru::PrefetchLinks); no-op where neither exists.
  void PrefetchLruLinks(ObjectId id) const {
    if (lru_ != nullptr) lru_->PrefetchLinks(id);
    if (ram_ != nullptr) ram_->PrefetchLinks(id);
  }

  /// Advisory prefetch of the LRU store's eviction-victim entries (see
  /// FlatLru::PrefetchVictim); no-op outside LRU mode.
  void PrefetchLruVictim() const {
    if (lru_ != nullptr) lru_->PrefetchVictim();
  }

  /// Removes an object from the main cache regardless of mode (coherency
  /// drops, test manipulation). In cost mode the descriptor is demoted to
  /// the d-cache. Also forgets the copy's freshness stamp and, on a
  /// tiered node, drops the RAM copy (inclusion). Returns false if the
  /// object was not cached.
  bool EraseObject(ObjectId id);

  // --- RAM tier (two-tier nodes) --------------------------------------------

  /// Whether this node runs a RAM tier over its mode store.
  bool tiered() const { return ram_ != nullptr; }

  /// The RAM tier; tiered nodes only.
  cache::FlatLru* ram() {
    CASCACHE_CHECK_MSG(ram_ != nullptr, "node is not tiered");
    return ram_.get();
  }

  /// Outcome of serving a cached object through the tier stack.
  struct TierServe {
    bool ram_hit = false;   ///< Served from RAM (else from disk).
    bool promoted = false;  ///< Disk serve copied the object into RAM.
    int demotions = 0;      ///< RAM victims pushed out by the promotion.
  };

  /// Serves a hit on a tiered node: a RAM-resident object is touched and
  /// served from RAM; a disk-only object is served from disk and promoted
  /// into the RAM tier (promotion-on-hit), evicting RAM victims as needed
  /// — their disk copies stay, so a demotion only loses the fast path.
  /// An object larger than the RAM tier is served from disk unpromoted.
  /// The disk (mode) store's own recency/priority update stays with the
  /// scheme's OnServe, exactly as on an untiered node.
  TierServe ServeTiered(ObjectId id, uint64_t size);

  /// Drops the RAM copies of disk-eviction victims (demote-on-evict: the
  /// inclusive RAM tier may not outlive the disk copy). Returns how many
  /// victims were RAM-resident. Tiered nodes only.
  int DropRamCopies(const std::vector<ObjectId>& victims);

  // --- Copy freshness tracking (coherency substrate) ------------------------

  /// Fetch time and origin version of the locally cached copy, recorded
  /// by the simulator when coherency tracking is active.
  struct CopyStamp {
    double fetch_time = 0.0;
    uint32_t version = 0;
  };

  void StampCopy(ObjectId id, double fetch_time, uint32_t version);
  /// nullptr if no stamp is recorded.
  const CopyStamp* FindCopy(ObjectId id) const;
  /// Advisory prefetch of the stamp index entry FindCopy(id) and
  /// StampCopy(id, ...) read; no state changes.
  void PrefetchCopy(ObjectId id) const { copy_stamps_.Prefetch(id); }

  /// Structural invariants, used by tests and debug sweeps: byte usage
  /// within capacity; in cost mode, every cached object's descriptor
  /// records its size.
  bool CheckInvariants() const;

  uint64_t used_bytes() const;
  size_t num_cached_objects() const;

  /// Drops all cached objects and descriptors, applying a new config.
  /// When the new config matches the current one the flat stores are
  /// cleared in place (pooled slots recycled, index tables emptied);
  /// otherwise they are rebuilt.
  void Reset(const CacheNodeConfig& config);

  // --- LRU mode -----------------------------------------------------------

  // The mode accessors are inline: the scheme handlers call them for
  // every placement/touch on the replay hot path.

  cache::FlatLru* lru() {
    CASCACHE_CHECK_MSG(lru_ != nullptr, "node is not in LRU mode");
    return lru_.get();
  }

  // --- GDS / LFU modes ------------------------------------------------------

  cache::GdsCache* gds() {
    CASCACHE_CHECK_MSG(gds_ != nullptr, "node is not in GDS mode");
    return gds_.get();
  }
  cache::LfuCache* lfu() {
    CASCACHE_CHECK_MSG(lfu_ != nullptr, "node is not in LFU mode");
    return lfu_.get();
  }

  // --- Cost mode ----------------------------------------------------------

  /// The cost-mode store, d-cache included.
  cache::NclCache* ncl() {
    CASCACHE_CHECK_MSG(ncl_ != nullptr, "node is not in cost mode");
    return ncl_.get();
  }

  /// Descriptor of an object, whether cached (main, kept in the object's
  /// store slot) or tracked in the d-cache; nullptr if unknown at this
  /// node.
  ObjectDescriptor* FindDescriptor(ObjectId id);

  /// True if the object's descriptor is a main descriptor (object is
  /// cached here).
  bool DescriptorInMain(ObjectId id) const {
    return ncl_ != nullptr && ncl_->Contains(id);
  }

  /// Records an access on the object's descriptor if the node knows the
  /// object; refreshes its frequency estimate and, for cached objects,
  /// its NCL eviction priority; for d-cached descriptors, its LFU
  /// priority. Returns the descriptor, or nullptr if unknown.
  ObjectDescriptor* RecordAccess(ObjectId id, double now);

  /// RecordAccess, and for an unknown object AdmitDescriptor, in one
  /// lookup pass (LNC-R's per-hop access). Returns whether the node
  /// already knew the object.
  bool RecordAccessOrAdmit(ObjectId id, uint64_t size, double now);

  /// Ensures the d-cache has a descriptor for a non-cached object,
  /// creating one (with a single access at `now`) if absent. Subject to
  /// LFU admission; may return nullptr if the d-cache rejects it or is
  /// disabled. Must not be called for objects cached here.
  ObjectDescriptor* AdmitDescriptor(ObjectId id, uint64_t size, double now);

  /// Sets the miss penalty on a known object's descriptor (main or
  /// d-cache), refreshing the dependent priorities; otherwise
  /// AdmitDescriptor and set the admitted descriptor's miss penalty (the
  /// response descent past a non-selected node, paper §2.3-2.4), in one
  /// lookup pass.
  void UpdateMissPenaltyOrAdmit(ObjectId id, uint64_t size,
                                double miss_penalty, double now);

  /// Greedy NCL eviction preview for inserting `size` bytes (paper §2.1's
  /// l computation), into a caller-owned plan reusing its victims buffer
  /// (hot path of the coordinated request ascent), stopping once the
  /// loss exceeds `loss_limit` (NclCache::PlanEvictionInto). Cost mode
  /// only.
  void PlanEvictionInto(uint64_t size, double loss_limit,
                        cache::NclCache::EvictionPlan* plan) const;

  /// Inserts an object into the cost-mode store with the given miss
  /// penalty. The object's descriptor is promoted from the d-cache (or
  /// created), the access history is preserved, evicted objects'
  /// descriptors are demoted to the d-cache. Returns whether the object
  /// was stored; `evicted_out`, when given, receives the victims the
  /// insertion pushed out (empty on rejection), reusing its capacity.
  bool InsertCost(ObjectId id, uint64_t size, double miss_penalty,
                  double now, std::vector<ObjectId>* evicted_out = nullptr);

  /// Recomputes the NCL priority of a cached object from its descriptor
  /// (f(now) * miss_penalty). Cost mode; object must be cached.
  void RefreshLoss(ObjectId id, double now);

 private:
  /// The object's index entry in the cost-mode store; unknown outside
  /// cost mode.
  cache::NclCache::Entry Find(ObjectId id) const {
    return ncl_ != nullptr ? ncl_->Find(id)
                           : cache::NclCache::Entry{cache::kNoSlot};
  }
  /// Recomputes a cached entry's NCL priority from its descriptor.
  void RefreshLoss(cache::NclCache::Entry entry, ObjectDescriptor* desc,
                   double now);
  /// Sets a known entry's miss penalty, refreshing a cached one's loss.
  void SetMissPenalty(cache::NclCache::Entry entry, double miss_penalty,
                      double now);
  /// Records an access on a known entry's descriptor and re-ranks it.
  ObjectDescriptor* Access(cache::NclCache::Entry entry, double now);
  /// Admits a d-cache descriptor, with one access at `now`, for an object
  /// the node does not know. nullptr if the d-cache is disabled or
  /// admission rejects it.
  ObjectDescriptor* AdmitNew(ObjectId id, uint64_t size, double now);

  topology::NodeId id_;
  CacheNodeConfig config_;
  cache::FrequencyEstimator estimator_;

  std::unique_ptr<cache::FlatLru> lru_;
  /// Inclusive RAM tier over the mode store (nullptr = untiered).
  std::unique_ptr<cache::FlatLru> ram_;
  /// Cost-mode store; also holds every descriptor the node knows, cached
  /// objects' in their slots and the d-cache's (stable pointers, one id
  /// index).
  std::unique_ptr<cache::NclCache> ncl_;
  std::unique_ptr<cache::GdsCache> gds_;
  std::unique_ptr<cache::LfuCache> lfu_;
  /// Freshness stamps of cached copies (populated only when the simulator
  /// runs with coherency tracking). May contain leftover stamps for
  /// objects the store evicted internally; consumers must check
  /// Contains() first.
  cache::FlatIdMap<CopyStamp> copy_stamps_;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_NODE_H_
