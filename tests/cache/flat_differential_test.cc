// Differential tests for the flat cache plane: the production stores
// (FlatLru over a struct-of-arrays slot pool, NclCache with descriptors in
// its slots and its d-cache of pooled descriptors behind the same id
// index, GdsCache) are driven through long random operation sequences
// in lock-step with the historical node-based implementations kept as
// oracles in tests/testing/ref_caches.h. Every observable — return
// values, membership, byte accounting, eviction order, descriptor
// contents — must match at every step.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/flat_lru.h"
#include "cache/gds_cache.h"
#include "cache/ncl_cache.h"
#include "testing/ref_caches.h"
#include "util/random.h"

namespace cascache::cache {
namespace {

using cascache::testing::RefDCache;
using cascache::testing::RefGdsCache;
using cascache::testing::RefLruCache;
using cascache::testing::RefNclCache;
using trace::ObjectId;
using util::Rng;

TEST(FlatLruDifferentialTest, MatchesReferenceUnderRandomOps) {
  Rng rng(20260807);
  FlatLru flat(4096);
  RefLruCache ref(4096);
  for (int step = 0; step < 100000; ++step) {
    const ObjectId id = static_cast<ObjectId>(rng.NextUint64(200));
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.55) {
      const uint64_t size = 1 + rng.NextUint64(900);
      bool flat_inserted = false;
      bool ref_inserted = false;
      const std::vector<ObjectId>& flat_evicted =
          flat.Insert(id, size, &flat_inserted);
      const std::vector<ObjectId> ref_evicted =
          ref.Insert(id, size, &ref_inserted);
      ASSERT_EQ(flat_inserted, ref_inserted) << "step " << step;
      ASSERT_EQ(flat_evicted, ref_evicted) << "step " << step;
    } else if (dice < 0.75) {
      ASSERT_EQ(flat.Touch(id), ref.Touch(id)) << "step " << step;
    } else if (dice < 0.9) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "step " << step;
    } else if (dice < 0.98) {
      ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "step " << step;
    } else {
      flat.Clear();
      ref.Clear();
    }
    ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << "step " << step;
    ASSERT_EQ(flat.num_objects(), ref.num_objects()) << "step " << step;
    if (flat.num_objects() > 0) {
      ASSERT_EQ(flat.LruVictim(), ref.LruVictim()) << "step " << step;
    }
    if (step % 4999 == 0) {
      ASSERT_TRUE(flat.CheckInvariants());
    }
  }
  ASSERT_TRUE(flat.CheckInvariants());
}

// Clearing must recycle slots: after Clear the flat store re-fills the
// same slot span instead of growing, and still matches the oracle.
TEST(FlatLruDifferentialTest, ClearRecyclesSlotsAndStaysEquivalent) {
  FlatLru flat(10'000);
  RefLruCache ref(10'000);
  for (ObjectId id = 0; id < 100; ++id) {
    flat.Insert(id, 100);
    ref.Insert(id, 100);
  }
  const size_t span_before = flat.slot_span();
  flat.Clear();
  ref.Clear();
  for (ObjectId id = 100; id < 200; ++id) {
    flat.Insert(id, 100);
    ref.Insert(id, 100);
  }
  EXPECT_EQ(flat.slot_span(), span_before);  // Reused, not regrown.
  EXPECT_EQ(flat.used_bytes(), ref.used_bytes());
  for (ObjectId id = 0; id < 200; ++id) {
    ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "id " << id;
  }
  ASSERT_TRUE(flat.CheckInvariants());
}

ObjectDescriptor RandomDescriptor(Rng& rng, double now) {
  ObjectDescriptor desc;
  desc.size = 1 + rng.NextUint64(500);
  desc.frequency = rng.NextDouble(0.0, 50.0);
  const int accesses = static_cast<int>(rng.NextUint64(5));
  for (int i = 0; i < accesses; ++i) {
    desc.RecordAccess(now + static_cast<double>(i));
  }
  return desc;
}

void AssertDescriptorsEqual(const ObjectDescriptor* a,
                            const ObjectDescriptor* b, int step) {
  ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
  if (a == nullptr) return;
  ASSERT_EQ(a->size, b->size) << "step " << step;
  ASSERT_EQ(a->frequency, b->frequency) << "step " << step;
  ASSERT_EQ(a->num_accesses, b->num_accesses) << "step " << step;
}

/// The store's d-cache against RefDCache. The store's cached objects act
/// as a parking lot outside the d-cache: a d-cached id is promoted into
/// the cache (RefDCache::Erase) and a cached one demoted back
/// (RefDCache::Insert of its descriptor), as the cost-mode node does. The
/// byte capacity holds every object, so no eviction interferes.
void RunDCacheDifferential(DCachePolicy policy) {
  Rng rng(policy == DCachePolicy::kLfu ? 11 : 13);
  NclCache flat(1'000'000, 64, policy);
  RefDCache ref(64, policy);
  double now = 0.0;
  for (int step = 0; step < 60000; ++step) {
    now += 1.0;
    const ObjectId id = static_cast<ObjectId>(rng.NextUint64(300));
    const NclCache::Entry entry = flat.Find(id);
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.6) {
      const ObjectDescriptor desc = RandomDescriptor(rng, now);
      if (entry.dcached()) {
        // Overwrite in place and re-rank, as RefDCache::Insert does.
        ObjectDescriptor* a = &flat.DescriptorAt(entry);
        *a = desc;
        flat.RefreshDescriptor(entry);
        AssertDescriptorsEqual(a, ref.Insert(id, desc), step);
      } else if (!entry.known()) {
        AssertDescriptorsEqual(flat.AdmitDescriptor(id, desc),
                               ref.Insert(id, desc), step);
      }
    } else if (dice < 0.75) {
      ObjectDescriptor* a = entry.dcached() ? &flat.DescriptorAt(entry)
                                            : nullptr;
      ObjectDescriptor* b = ref.Find(id);
      AssertDescriptorsEqual(a, b, step);
      if (a != nullptr) {
        // Mutate through the pointer exactly like the request path does,
        // then re-prioritize. Both stores must track the same state.
        a->RecordAccess(now);
        b->RecordAccess(now);
        a->frequency += 0.5;
        b->frequency += 0.5;
        flat.RefreshDescriptor(entry);
        ref.Refresh(id, *b);
      }
    } else if (dice < 0.9) {
      if (entry.cached()) {
        const ObjectDescriptor parked = flat.DescriptorAt(entry);
        ASSERT_TRUE(flat.Erase(id));
        ref.Insert(id, parked);
      } else {
        const uint64_t size =
            entry.known() ? flat.DescriptorAt(entry).size : 1;
        bool promoted = false;
        if (entry.known()) flat.Insert(id, size, 1.0, &promoted);
        ASSERT_EQ(promoted, ref.Erase(id)) << "step " << step;
      }
    } else {
      ASSERT_EQ(flat.Find(id).dcached(), ref.Contains(id)) << "step " << step;
    }
    ASSERT_EQ(flat.dcache_size(), ref.size()) << "step " << step;
  }
  // Final full-membership sweep.
  for (ObjectId id = 0; id < 300; ++id) {
    const NclCache::Entry entry = flat.Find(id);
    ASSERT_EQ(entry.dcached(), ref.Contains(id)) << "id " << id;
    AssertDescriptorsEqual(entry.dcached() ? &flat.DescriptorAt(entry)
                                           : nullptr,
                           ref.Find(id), -1);
  }
}

TEST(DCacheDifferentialTest, MatchesReferenceUnderLfuPolicy) {
  RunDCacheDifferential(DCachePolicy::kLfu);
}

TEST(DCacheDifferentialTest, MatchesReferenceUnderLruPolicy) {
  RunDCacheDifferential(DCachePolicy::kLru);
}

// Zero-capacity edge cases must agree too: no admission, no demotion.
TEST(DCacheDifferentialTest, ZeroCapacityRejectsEverywhere) {
  NclCache flat(1'000, 0);
  RefDCache ref(0);
  ObjectDescriptor desc;
  desc.size = 10;
  desc.frequency = 1.0;
  EXPECT_EQ(flat.AdmitDescriptor(7, desc), nullptr);
  EXPECT_EQ(ref.Insert(7, desc), nullptr);
  EXPECT_FALSE(flat.Find(7).known());
  EXPECT_FALSE(ref.Contains(7));
  flat.Insert(8, 10, 1.0);
  EXPECT_TRUE(flat.Erase(8));
  EXPECT_EQ(ref.Insert(8, desc), nullptr);
  EXPECT_FALSE(flat.Find(8).known());
  EXPECT_FALSE(ref.Contains(8));
}

// NCL store: random Insert / UpdateLoss / Erase / PlanEviction / Clear in
// lock-step with the historical store. Losses are mostly exact multiples
// of the size from a small set, so many ids share an NCL value and the
// (NCL, id) tie-break decides the order; a quarter of the updates re-set
// the current loss, the case the production store skips re-keying for.
TEST(NclCacheDifferentialTest, MatchesReferenceUnderRandomOps) {
  Rng rng(20030305);
  constexpr uint64_t kCapacity = 4096;
  NclCache flat(kCapacity);
  RefNclCache ref(kCapacity);
  NclCache::EvictionPlan flat_plan;
  NclCache::EvictionPlan ref_plan;
  const double kNcls[] = {0.25, 0.5, 1.0, 2.0};
  auto random_loss = [&](uint64_t size) {
    if (rng.NextDouble(0.0, 1.0) < 0.8) {
      return kNcls[rng.NextUint64(4)] * static_cast<double>(size);
    }
    return rng.NextDouble(0.0, 50.0);
  };
  for (int step = 0; step < 100000; ++step) {
    const ObjectId id = static_cast<ObjectId>(rng.NextUint64(150));
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.35) {
      const uint64_t size = 1 + rng.NextUint64(kCapacity / 8);
      const double loss = random_loss(size);
      bool flat_inserted = false;
      bool ref_inserted = false;
      const std::vector<ObjectId>& flat_evicted =
          flat.Insert(id, size, loss, &flat_inserted);
      const std::vector<ObjectId>& ref_evicted =
          ref.Insert(id, size, loss, &ref_inserted);
      ASSERT_EQ(flat_inserted, ref_inserted) << "step " << step;
      ASSERT_EQ(flat_evicted, ref_evicted) << "step " << step;
    } else if (dice < 0.65) {
      double loss = random_loss(1 + rng.NextUint64(kCapacity / 8));
      if (ref.Contains(id) && rng.NextDouble(0.0, 1.0) < 0.25) {
        loss = ref.LossOf(id);  // Equal-loss update: order unchanged.
      }
      ASSERT_EQ(flat.UpdateLoss(id, loss), ref.UpdateLoss(id, loss))
          << "step " << step;
    } else if (dice < 0.8) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "step " << step;
    } else if (dice < 0.998) {
      const uint64_t need = 1 + rng.NextUint64(kCapacity + kCapacity / 4);
      flat.PlanEvictionInto(need, cache::NclCache::kNoLossLimit, &flat_plan);
      ref.PlanEvictionInto(need, &ref_plan);
      ASSERT_EQ(flat_plan.victims, ref_plan.victims) << "step " << step;
      // Same summation order, so bit-identical, not merely close.
      ASSERT_EQ(flat_plan.cost_loss, ref_plan.cost_loss) << "step " << step;
      ASSERT_EQ(flat_plan.freed_bytes, ref_plan.freed_bytes)
          << "step " << step;
      ASSERT_EQ(flat_plan.feasible, ref_plan.feasible) << "step " << step;
    } else {
      flat.Clear();
      ref.Clear();
    }
    ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << "step " << step;
    ASSERT_EQ(flat.num_objects(), ref.num_objects()) << "step " << step;
    ASSERT_EQ(flat.IdsByNcl(), ref.IdsByNcl()) << "step " << step;
  }
  for (ObjectId id = 0; id < 150; ++id) {
    ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "id " << id;
    if (ref.Contains(id)) {
      ASSERT_EQ(flat.LossOf(id), ref.LossOf(id));
    }
  }
}

// GreedyDual-Size store: random Insert / OnHit / Erase / Clear in
// lock-step with the historical std::set store. Sizes and costs are
// powers of two from small sets, so credits H = L + cost/size are exact
// binary fractions and many ids share an H: the (H, id) tie-break decides
// the eviction order.
TEST(GdsCacheDifferentialTest, MatchesReferenceUnderRandomOps) {
  Rng rng(19990621);
  constexpr uint64_t kCapacity = 1024;
  constexpr ObjectId kIds = 100;
  GdsCache flat(kCapacity);
  RefGdsCache ref(kCapacity);
  const uint64_t kSizes[] = {16, 32, 64, 128, 2 * kCapacity};
  const double kCosts[] = {0.0, 1.0, 2.0, 4.0, 8.0};
  std::vector<uint64_t> sizes(kIds);
  for (uint64_t& size : sizes) size = kSizes[rng.NextUint64(5)];
  for (int step = 0; step < 100000; ++step) {
    const ObjectId id = static_cast<ObjectId>(rng.NextUint64(kIds));
    const double cost = kCosts[rng.NextUint64(5)];
    const double dice = rng.NextDouble(0.0, 1.0);
    if (dice < 0.5) {
      bool flat_inserted = false;
      bool ref_inserted = false;
      const std::vector<ObjectId>& flat_evicted =
          flat.Insert(id, sizes[id], cost, &flat_inserted);
      const std::vector<ObjectId>& ref_evicted =
          ref.Insert(id, sizes[id], cost, &ref_inserted);
      ASSERT_EQ(flat_inserted, ref_inserted) << "step " << step;
      ASSERT_EQ(flat_evicted, ref_evicted) << "step " << step;
    } else if (dice < 0.85) {
      ASSERT_EQ(flat.OnHit(id, cost), ref.OnHit(id, cost)) << "step " << step;
    } else if (dice < 0.998) {
      ASSERT_EQ(flat.Erase(id), ref.Erase(id)) << "step " << step;
    } else {
      flat.Clear();
      ref.Clear();
    }
    ASSERT_EQ(flat.Contains(id), ref.Contains(id)) << "step " << step;
    if (ref.Contains(id)) {
      ASSERT_EQ(flat.CreditOf(id), ref.CreditOf(id)) << "step " << step;
    }
    ASSERT_EQ(flat.inflation(), ref.inflation()) << "step " << step;
    ASSERT_EQ(flat.used_bytes(), ref.used_bytes()) << "step " << step;
    ASSERT_EQ(flat.num_objects(), ref.num_objects()) << "step " << step;
    if (step % 1000 == 0) {
      for (ObjectId k = 0; k < kIds; ++k) {
        ASSERT_EQ(flat.Contains(k), ref.Contains(k)) << "id " << k;
        if (ref.Contains(k)) {
          ASSERT_EQ(flat.CreditOf(k), ref.CreditOf(k)) << "id " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cascache::cache
